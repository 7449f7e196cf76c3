"""Span recording from outside laue_lab, and the per-layer metrics.

``install`` wraps the public functions of each laue_lab module, a few rule
methods, and ``__call__`` of every field class, so that each call records a
span (name, parent, start, end) and the counts of work it did.  Nothing
under ``src/`` changes: the wrappers replace module attributes in the
running process only.  A field call is attributed by where its closure was
defined: transform closures (``active_transform``, ``boost_emt_analytic``),
finite-difference closures, checker-built integrands, or else an analytic
field (the scenario's T or a suite's test field).
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter

import numpy as np

# time metric -> the span name whose self time it sums
TIME_METRICS = {
    "laue_lab.import_s": "laue_lab.import",
    "quadrature.rule_s": "quadrature.rule",
    "fields.eval_s": "fields.eval",
    "quadrature.evaluate_s": "quadrature.evaluate",
    "quadrature.reduce_s": "quadrature.reduce",
    "quadrature.contract_s": "quadrature.contract",
    "fields.transform_s": "fields.transform",
    "fields.fd_s": "fields.fd",
    "exterior.hodge_s": "exterior.hodge",
    "poincare.s": "poincare",
    "scenarios.self_s": "scenarios",
    "checkers.self_s": "checkers",
    "cli.self_s": "cli",
}

COUNT_METRICS = (
    "quadrature.rule_nodes",
    "fields.eval_points",
    "quadrature.reduce_values",
    "fields.fd_points",
    "exterior.hodge_points",
)

# the per-layer metrics in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "laue_lab.import_s": "s",
    "quadrature.rule_s": "s",
    "quadrature.rule_nodes": "count",
    "fields.eval_s": "s",
    "fields.eval_points": "count",
    "quadrature.evaluate_s": "s",
    "quadrature.resample_ratio": "ratio",
    "quadrature.sample_mb": "MB",
    "quadrature.reduce_s": "s",
    "quadrature.reduce_values": "count",
    "quadrature.contract_s": "s",
    "fields.transform_s": "s",
    "fields.fd_s": "s",
    "fields.fd_points": "count",
    "exterior.hodge_s": "s",
    "exterior.hodge_points": "count",
    "poincare.s": "s",
    "scenarios.self_s": "s",
    "checkers.self_s": "s",
    "cli.self_s": "s",
}

TRANSFORM_FACTORIES = {"active_transform", "boost_emt_analytic"}
FD_FACTORIES = {
    "fd_partial", "exterior_derivative", "lie_derivative", "divergence",
    "christoffels", "vector_divergence",
}
FIELD_CLASSES = (
    "ScalarField", "VectorField", "FormField", "CoFormField",
    "SymTensorField", "Cov2Field", "MetricField",
)


def _points(points) -> int:
    """Number of points in a batch of shape (..., n)."""
    return math.prod(np.shape(points)[:-1])


class Tracer:
    """In-memory span recorder; spans are [name, parent index, start, end]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.sample_bytes = 0
        self.sampled_points = 0
        self._stack = []
        self._open = Counter()
        self._patches = {}  # id -> (patch, node count); holding the patch keeps ids unique

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self.clock(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] += 1
        return index

    def close(self, index: int):
        self.spans[index][3] = self.clock()
        self._stack.pop()
        self._open[self.spans[index][0]] -= 1

    def wrap(self, fn, name, count=None, outermost_only=False):
        """Wrap ``fn`` in a span; ``count(args, result)`` records its work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost_only and self._open[name]:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(args, result)
            return result

        return wrapper

    # --- counters attached to particular functions ---

    def _count_spherical(self, args, result):
        self.counts["quadrature.rule_nodes"] += result[0].shape[0]

    def _count_nodes_weights(self, args, result):
        patch = args[0]
        n = result[0].shape[0]
        if patch.rule_nodes is None:  # the midpoint mesh is built on each call
            self.counts["quadrature.rule_nodes"] += n
        self._patches[id(patch)] = (patch, n)

    def _count_evaluate(self, args, result):
        self.sampled_points += args[1].shape[0]
        self.sample_bytes = max(self.sample_bytes, result.nbytes)

    def _count_reduce(self, args, result):
        self.counts["quadrature.reduce_values"] += np.size(args[0])

    def _count_hodge(self, args, result):
        self.counts["exterior.hodge_points"] += _points(args[0])

    def field_call(self, orig):
        """Wrap a field class's ``__call__``, naming the span by its closure."""
        layers = {}

        def layer_of(func):
            code = getattr(func, "__code__", None)
            if code not in layers:
                outer = getattr(func, "__qualname__", "").split(".")[0]
                if outer in TRANSFORM_FACTORIES:
                    layers[code] = "fields.transform"
                elif outer in FD_FACTORIES:
                    layers[code] = "fields.fd"
                elif getattr(func, "__module__", "") == "laue_lab.checkers":
                    layers[code] = "checkers"
                else:
                    layers[code] = "fields.eval"
            return layers[code]

        @functools.wraps(orig)
        def __call__(field, points):
            name = layer_of(field.func)
            index = self.open(name)
            try:
                result = orig(field, points)
            finally:
                self.close(index)
            if name in ("fields.eval", "fields.fd"):
                self.counts[f"{name}_points"] += _points(points)
            return result

        return __call__

    def install(self):
        """Replace laue_lab's public functions with span-recording wrappers."""
        mods = {
            name: importlib.import_module(f"laue_lab.{name}")
            for name in ("exterior", "poincare", "fields", "quadrature",
                         "scenarios", "checkers", "cli")
        }
        q = mods["quadrature"]
        targets = {
            q.spherical_rule: ("quadrature.rule", self._count_spherical, False),
            q.map_rule_affine: ("quadrature.rule", None, False),
            q.evaluate_tiled: ("quadrature.evaluate", self._count_evaluate, False),
            q.pairwise_sum: ("quadrature.reduce", self._count_reduce, True),
            q.momentum_map: ("quadrature.contract", None, False),
            q.four_momentum: ("quadrature.contract", None, False),
            q.laue_integrals: ("quadrature.contract", None, False),
            q.integrate_form: ("quadrature.contract", None, False),
            q.integrate_scalar_density: ("quadrature.contract", None, False),
            mods["exterior"].hodge_comps: ("exterior.hodge", self._count_hodge, False),
            mods["exterior"].raise_comps: ("exterior.hodge", None, False),
        }
        # every public function of these modules is one layer
        for layer in ("poincare", "scenarios", "checkers", "cli"):
            mod = mods[layer]
            for attr, val in vars(mod).items():
                if (callable(val) and not isinstance(val, type) and not attr.startswith("_")
                        and getattr(val, "__module__", None) == mod.__name__):
                    targets.setdefault(val, (layer, None, False))
        wrappers = {
            id(fn): self.wrap(fn, name, count, outer)
            for fn, (name, count, outer) in targets.items()
        }
        # rebind every module-level name that refers to a wrapped function,
        # including names imported by other modules and the package itself
        import laue_lab

        for mod in [laue_lab, *mods.values()]:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])
        for cls, meth, count in (
            (q.HyperplanePatch, "nodes_weights", self._count_nodes_weights),
            (q.HyperplanePatch, "points", None),
            (mods["scenarios"].ScenarioSpec, "slice_patch", None),
            (mods["scenarios"].ScenarioSpec, "adapted_slice_patch", None),
        ):
            setattr(cls, meth, self.wrap(cls.__dict__[meth], "quadrature.rule", count))
        for cls_name in FIELD_CLASSES:
            cls = getattr(mods["fields"], cls_name)
            cls.__call__ = self.field_call(cls.__dict__["__call__"])

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "sample_bytes": self.sample_bytes,
            "sampled_points": self.sampled_points,
            "distinct_nodes": sum(n for _, n in self._patches.values()),
        }


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for name, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (name, parent, start, end), kids in zip(spans, children):
        covered = 0.0
        cursor = start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, cursor), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                cursor = k_end
        out.append((end - start) - covered)
    return out


def layer_times(spans) -> dict:
    """Self time summed per span name."""
    totals = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return totals


def per_layer_metrics(trace: dict) -> dict:
    """The per-layer metrics of one traced process, by name."""
    totals = layer_times(trace["spans"])
    out = {name: totals[span] for name, span in TIME_METRICS.items()}
    for name in COUNT_METRICS:
        out[name] = trace["counts"].get(name, 0)
    distinct = trace["distinct_nodes"]
    out["quadrature.resample_ratio"] = trace["sampled_points"] / distinct if distinct else 0.0
    out["quadrature.sample_mb"] = trace["sample_bytes"] / 1e6
    return {name: out[name] for name in PER_LAYER_UNITS}

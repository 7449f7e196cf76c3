"""Command-line front end: property suites, scenario reports, theorem checks.

Exit codes: 0 all verdicts pass, 1 a verification verdict failed, 2 usage
error, 3 internal numeric fault.  Output is deterministic for a fixed
configuration: fixed-order quadrature, seeded counter-based randomness
(Philox), and repr-stable float formatting.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .exterior import Signature
from .fields import (
    DEFAULT_H,
    FormField,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    _spatial_r2,
)
from .poincare import (
    PoinLieElement,
    compose,
    fundamental_field,
    rotation,
    standard_boost,
    translation,
    wedge_vectors,
)
from .quadrature import HyperplanePatch

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

FORMATS = ("csv", "json", "md")
CSV_HEADER = "quantity,component,value,grid_N,h,refinement_ratio,tolerance,verdict"


@dataclass(frozen=True)
class IntegralRecord:
    """Traceable emitted number: (name, value, grid, h, refinement_ratio)."""

    name: str
    value: float
    grid: str = ""
    h: float = float("nan")
    refinement_ratio: float = float("nan")
    tolerance: float = float("nan")
    verdict: str = ""

    @classmethod
    def gated(cls, name, value, tol, grid="", passed=None, **meta):
        """Record judged against ``tol``: it passes when |value| < tol, or
        when ``passed`` says so for a check that is not a plain bound."""
        ok = abs(value) < tol if passed is None else passed
        return cls(name, value, grid, tolerance=tol, verdict="pass" if ok else "fail", **meta)


def _row(r) -> dict:
    """The CSV_HEADER columns of a record, the one row every format prints: a
    NaN number is None, and the value a plain float, since numpy 2 prints a
    np.float64 as ``np.float64(...)``."""
    name, _, comp = r.name.partition("[")
    cells = (name, comp.rstrip("]"), float(r.value), r.grid, r.h, r.refinement_ratio,
             r.tolerance, r.verdict)
    return {key: None if isinstance(x, float) and math.isnan(x) else x
            for key, x in zip(CSV_HEADER.split(","), cells)}


def _fmt(x) -> str:
    """A cell as CSV and markdown print it: None as "", a float by repr."""
    if x is None:
        return ""
    return repr(x) if isinstance(x, float) else str(x)


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in records:
        writer.writerow([_fmt(x) for x in _row(r).values()])
    return buf.getvalue()


def records_to_json(records) -> str:
    return json.dumps([_row(r) for r in records], indent=2) + "\n"


def records_to_md(records) -> str:
    out = ["| quantity | value | grid | tolerance | verdict |",
           "|---|---|---|---|---|"]
    for r in records:
        row = {key: _fmt(x) for key, x in _row(r).items()}
        name = row["quantity"] + (f"[{row['component']}]" if row["component"] else "")
        out.append(f"| {name} | {row['value']} | {row['grid_N']} | {row['tolerance']} "
                   f"| {row['verdict']} |")
    return "\n".join(out) + "\n"


def emit(records, fmt: str) -> str:
    if fmt == "csv":
        return records_to_csv(records)
    if fmt == "json":
        return records_to_json(records)
    if fmt == "md":
        return records_to_md(records)
    raise ValueError(f"unknown format {fmt!r}")


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator so suites reproduce across platforms."""
    return np.random.Generator(np.random.Philox(seed))


# name -> (argparse keywords, [run] key parser or None, default).  Every
# check reads COMMON; CHECKS (below the runners) names what else it reads,
# and its parser accepts only those flags.
COMMON = ("format", "out")
OPTIONS = {
    "seed": (dict(type=int, help="RNG seed (Philox)"), int, 7),
    "format": (dict(choices=FORMATS), str, "csv"),
    "out": (dict(help="output path (default stdout)"), str, None),
    "tol": (dict(type=float, help="tolerance override"), float, 1e-3),
    "grid_n": (dict(type=int, help="grid scale anchor N"), int, 48),
    "fd_h": (dict(type=float, help="fd step"), float, DEFAULT_H),
    "strict": (
        dict(action="store_true",
             help="also re-run the check at doubled resolution and require the refined "
                  "verdict (identities: a ~4x drop; classical: the same four-vector verdict)"),
        None,
        False,
    ),
    "scenario": (dict(help="scenario name"), str, "gaussian_dust"),
    "beta": (
        dict(type=float, action="append", help="repeatable"),
        lambda text: [float(b) for b in text.split(",")],
        (0.3, 0.6),
    ),
}
RUN_KEYS = [key for key, (_, parse, _) in OPTIONS.items() if parse]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laue-lab",
        description="Exterior-algebra, isometry-group, and flux-integral workbench",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="INI config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {
        command: sub.add_parser(command, help=text).add_subparsers(dest="check", required=True)
        for command, text in (
            ("verify", "run a property suite"),
            ("laue", "boost/covariance reports"),
        )
    }
    for (command, check), (flags, _) in CHECKS.items():
        if check is None:
            leaf = sub.add_parser(command, help="scenario numbers")
            leaf.add_argument("name")
            leaf.set_defaults(check=None)
        else:
            leaf = groups[command].add_parser(check)
        for flag in COMMON + flags:
            leaf.add_argument("--" + flag.replace("_", "-"), **OPTIONS[flag][0])
    return parser


def load_config(path: str) -> dict:
    """Parse into {"run": {key: text}} and {"scenario.NAME": params typed by the
    scenario's declaration}; unknown sections, keys, scenarios, parameters exit 2."""
    from .scenarios import scenario_params

    cp = configparser.ConfigParser()
    cp.optionxform = str  # scenario parameters are case-sensitive (coulomb_shell's R)
    if not cp.read(path):
        raise ValueError(f"cannot read config file {path!r}")
    out = {"run": {}}
    for section in cp.sections():
        values = dict(cp.items(section))
        if section == "run":
            for key in values:
                if key not in RUN_KEYS:
                    raise ValueError(f"unknown config key {key!r} in [run]")
            out["run"] = values
        elif section.startswith("scenario."):
            out[section] = scenario_params(section[len("scenario."):], values)
        else:
            raise ValueError(f"unknown config section [{section}]")
    return out


def _apply_config(args, cfg: dict, flags):
    reads = COMMON + flags
    run_cfg = cfg.get("run", {})
    for name in run_cfg:
        if name not in reads:
            check = " ".join(filter(None, (args.command, args.check)))
            raise ValueError(f"config key {name!r} in [run] is not read by {check}")
    for key in reads:
        _, parse, default = OPTIONS[key]
        source = "--" + key.replace("_", "-")  # where a bad value is reported from
        cfg_val = run_cfg.get(key)
        if cfg_val is not None:
            try:
                value = parse(cfg_val)
            except ValueError as exc:
                raise ValueError(f"[run] {key}: {exc}") from None
            if getattr(args, key) is None:
                setattr(args, key, value)
                source = f"[run] {key}"
            elif getattr(args, key) != value:
                print(f"note: flag {source}={getattr(args, key)} overrides config value {cfg_val}",
                      file=sys.stderr)
        value = getattr(args, key)
        if value is None:
            setattr(args, key, default)
        elif key in ("fd_h", "grid_n", "tol") and not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{source} must be a finite positive number, got {value}")
        elif key == "beta" and (bad := [b for b in value if not abs(b) < 1]):  # nan, inf too
            raise ValueError(f"{source} must be finite with |beta| < 1, got {bad[0]}")
    if args.format not in FORMATS:
        raise ValueError(f"unknown format {args.format!r}")
    return args


# --- the verify suites' fields, declared once; the tests import them, not copies ---

SIG = Signature.mostly_minus(4)
ETA = MetricField.minkowski(4)


def _curved_metric(points):
    out = np.zeros((4, 4) + points.shape[:-1])  # component-major, like the scenario closures
    out[0, 0], out[2, 2], out[3, 3] = 1.0, -1.0, -1.0
    out[1, 1] = -((1.0 + 0.1 * np.sin(points[..., 1])) ** 2)
    return np.moveaxis(out, (0, 1), (-2, -1))


CURVED_METRIC = MetricField(SIG, _curved_metric)  # g_11 = -(1 + 0.1 sin x1)^2


def _lam(points):
    x = points[..., 1:]
    b = np.exp(-_spatial_r2(x) / 2.0)
    out = np.zeros(points.shape[:-1] + (6,), order="F")  # component-major, like a tile
    out[..., 5] = b  # purely spatial slot
    out[..., 2] = 0.7 * b  # slot with a time leg: the derived current gets spatial components
    return out


LAM = FormField(4, 2, _lam)  # 2-form potential of the exact currents
TIME_TRANSLATION = VectorField(
    lambda points: np.broadcast_to(np.eye(4)[0], np.shape(points)[:-1] + (4,))
)


def _phi(points):
    r2 = _spatial_r2(points[..., 1:])
    return np.exp(-r2 / 4.0) * points[..., 1]


PHI = ScalarField(_phi)  # geometric test function exp(-r^2/4) x1


def _conserved_blob(points):
    # Gaussian energy density; spatial stress [delta_ab (r^2 - 2) - x_a x_b]
    # exp(-r^2/2) / 2, whose spatial divergence vanishes identically
    x = points[..., 1:]
    r2 = _spatial_r2(x)
    chi = 0.5 * np.exp(-r2 / 2.0)
    out = np.zeros(points.shape[:-1] + (4, 4))
    out[..., 0, 0] = np.exp(-r2 / 2.0)
    for a in range(3):
        for b in range(3):
            out[..., 1 + a, 1 + b] = -x[..., a] * x[..., b] * chi
        out[..., 1 + a, 1 + a] += (r2 - 2.0) * chi
    return out


CONSERVED_BLOB = SymTensorField(_conserved_blob)
ROTATION_12 = VectorField(
    fundamental_field(PoinLieElement(np.zeros(4), wedge_vectors(*np.eye(4)[1:3])), np.zeros(4), SIG)
)


def _conserved_current(points):
    t = points[..., 0]
    x = points[..., 1:]
    r2 = _spatial_r2(x)
    out = np.zeros(points.shape[:-1] + (4,))
    out[..., 0] = -np.sin(t) * np.exp(-r2) * (3.0 - 2.0 * r2)
    out[..., 1:] = np.cos(t)[..., None] * np.exp(-r2)[..., None] * x
    return out


def _sourced_current(points):
    out = np.zeros(points.shape[:-1] + (4,))
    r2 = _spatial_r2(points[..., 1:])
    out[..., 0] = (1.0 + 0.5 * np.sin(points[..., 0])) * np.exp(-r2)
    return out


def _static_charge(points):
    out = np.zeros(points.shape[:-1] + (4,))
    out[..., 0] = np.exp(-_spatial_r2(points[..., 1:]))
    return out


def _generic_current(points):
    b = np.exp(-_spatial_r2(points[..., 1:]) / 2.0)
    return b[..., None] * np.array([1.0, 0.5, 0.3, -0.2])


CONSERVED_CURRENT = VectorField(_conserved_current)
SOURCED_CURRENT = VectorField(_sourced_current)  # div J = 0.5 cos t exp(-r^2)
STATIC_CHARGE = VectorField(_static_charge)  # rho = exp(-r^2), charge pi^(3/2)
# four non-zero components and a non-zero charge: every slot of i_J mu counts
GENERIC_CURRENT = VectorField(_generic_current)


def seeded_elements(seed: int):
    """Five labelled Poincare elements, each a boost along x1 after a 1-2
    rotation after a spatial translation, drawn in a fixed order."""
    rng = rng_from_seed(seed)
    out = []
    for i in range(5):
        g = compose(
            standard_boost(1, float(rng.uniform(-0.6, 0.6))),
            compose(
                rotation(1, 2, float(rng.uniform(0, 2 * math.pi))),
                translation(np.concatenate([[0.0], rng.uniform(-0.5, 0.5, 3)])),
            ),
        )
        out.append((f"g{i}", g))
    return out


# --- suite runners; each returns its records, and main reads the verdict from them ---


def _passed(records) -> bool:
    return all(r.verdict != "fail" for r in records)


def _fold(res: float, *diffs) -> float:
    """max(res, max |d| over the diffs); a non-finite d raises, where Python's
    max(res, nan) would keep res and read as a pass."""
    worst = float(np.max([np.max(np.abs(d)) for d in diffs]))
    if not math.isfinite(worst):
        raise FloatingPointError("non-finite residual in a suite fold")
    return max(res, worst)


def _doubling_ratio(coarse: float, fine: float):
    """Residual ratio at step 2h over step h, and whether it is the ~4x
    drop of an h^2-limited residual."""
    ratio = coarse / fine if fine else float("nan")
    return ratio, 3.0 < ratio < 5.0


def run_algebra_suite(seed: int):
    from .exterior import (
        PForm,
        hodge,
        inner_norm,
        insert,
        multi_indices,
        musical,
        volume_form,
        wedge,
    )

    n_random, tol = 500, 1e-12  # random n = 4 forms drawn; residual tolerance
    rng = rng_from_seed(seed)
    records = []
    for n in range(2, 7):
        for convention, sig in (
            ("mostly_minus", Signature.mostly_minus(n)),
            ("mostly_plus", Signature.mostly_plus(n)),
        ):
            eps = volume_form(n)
            label = f"n={n};{convention}"
            # defining duality property, exhaustive over basis pairs
            res = 0.0
            for p in range(n + 1):
                for a_idx in multi_indices(n, p):
                    a = PForm.basis(n, a_idx)
                    star_a = hodge(a, sig)
                    for b_idx in multi_indices(n, p):
                        b = PForm.basis(n, b_idx)
                        lhs = wedge(b, star_a)
                        rhs = inner_norm(b, a, sig) * eps
                        res = _fold(res, lhs.comps - rhs.comps)
            records.append(IntegralRecord.gated(f"duality_property[{label}]", res, tol, label))
            # volume normalisation
            res = abs(inner_norm(eps, eps, sig) - (-1.0) ** sig.n_minus)
            records.append(IntegralRecord.gated(f"volume_square[{label}]", res, tol, label))
    sig = Signature.mostly_minus(4)
    n = 4
    res_sq = res_adj = res_ins = 0.0
    for k in range(n_random):
        p = int(rng.integers(0, n + 1))
        a = PForm(n, p, rng.standard_normal(math.comb(n, p)))
        twice = hodge(hodge(a, sig), sig)
        sign = (-1.0) ** ((n + 1) * (p + 1))
        res_sq = _fold(res_sq, twice.comps - sign * a.comps)
        b = PForm(n, n - p, rng.standard_normal(math.comb(n, n - p)))
        lhs = inner_norm(a, hodge(b, sig), sig)
        rhs = (-1.0) ** (p * (n - p)) * inner_norm(hodge(a, sig), b, sig)
        res_adj = _fold(res_adj, lhs - rhs)
        if p < n:
            v = rng.standard_normal(n)
            lhs_f = insert(v, hodge(a, sig))
            rhs_f = hodge(wedge(a, PForm(n, 1, musical(v, sig))), sig)
            res_ins = _fold(res_ins, lhs_f.comps - rhs_f.comps)
    for name, res in (
        ("star_squared_sign", res_sq),
        ("star_adjointness", res_adj),
        ("insertion_identity", res_ins),
    ):
        records.append(
            IntegralRecord.gated(f"{name}[seed={seed};count={n_random}]", res, tol, "n=4")
        )
    return records


def run_poincare_suite(seed: int):
    from .fields import killing_residual
    from .poincare import (
        ad,
        ad_transpose,
        bivector_to_matrix,
        coad,
        invert,
        lie_bracket,
        pairing,
    )
    from .quadrature import momentum_basis

    n_random, tol = 200, 1e-10  # random element pairs drawn; group-law tolerance
    sig = Signature.mostly_minus(4)
    rng = rng_from_seed(seed)

    def rand_iso():
        g = standard_boost(1, float(rng.uniform(-0.8, 0.8)))
        g = compose(g, rotation(1, 2, float(rng.uniform(0, 2 * math.pi))))
        g = compose(g, rotation(2, 3, float(rng.uniform(0, 2 * math.pi))))
        return compose(translation(rng.standard_normal(4)), g)

    def rand_lie():
        return PoinLieElement(rng.standard_normal(4), rng.standard_normal(6))

    res_group = res_hom = res_transpose = res_jacobi = res_anti = 0.0
    for _ in range(n_random):
        g, h = rand_iso(), rand_iso()
        e = compose(invert(g), g)
        res_group = _fold(res_group, e.A - np.eye(4), e.a)
        xi, zeta, chi = rand_lie(), rand_lie(), rand_lie()
        for rep in (ad, coad):
            lhs = rep(compose(g, h), xi, sig).components()
            rhs = rep(g, rep(h, xi, sig), sig).components()
            res_hom = _fold(res_hom, lhs - rhs)
        tr = pairing(zeta, ad(g, xi, sig), sig) - pairing(ad_transpose(g, zeta, sig), xi, sig)
        res_transpose = _fold(res_transpose, tr)
        jac = (
            lie_bracket(xi, lie_bracket(zeta, chi, sig), sig).components()
            + lie_bracket(zeta, lie_bracket(chi, xi, sig), sig).components()
            + lie_bracket(chi, lie_bracket(xi, zeta, sig), sig).components()
        )
        res_jacobi = _fold(res_jacobi, jac)
        EX = bivector_to_matrix(xi.M, sig)
        EZ = bivector_to_matrix(zeta.M, sig)
        pts = rng.standard_normal((4, 4))
        Vxi = fundamental_field(xi, np.zeros(4), sig)
        Vzeta = fundamental_field(zeta, np.zeros(4), sig)
        commutator = Vxi(pts) @ EZ.T - Vzeta(pts) @ EX.T
        bracket_field = fundamental_field(lie_bracket(xi, zeta, sig), np.zeros(4), sig)
        res_anti = _fold(res_anti, -commutator - bracket_field(pts))

    probe = rng.uniform(-1.5, 1.5, (32, 4))
    res_killing = 0.0
    for xi in momentum_basis(4):
        K = VectorField(fundamental_field(xi, np.zeros(4), sig))
        res_killing = _fold(res_killing, killing_residual(K, ETA, probe))
    checks = [
        ("group_axioms", res_group, tol),
        ("adjoint_homomorphism", res_hom, tol),
        ("adjoint_transpose_relation", res_transpose, tol),
        ("jacobi_identity", res_jacobi, 1e-12),
        ("field_antihomomorphism", res_anti, 1e-12),
        ("killing_residual_generators", res_killing, 1e-9),
    ]
    return [
        IntegralRecord.gated(f"{name}[seed={seed};count={n_random}]", res, t, "n=4")
        for name, res, t in checks
    ]


def run_identities_suite(seed: int, h: float = DEFAULT_H, strict: bool = False):
    from .fields import identity_residuals

    pts = rng_from_seed(seed).uniform(-1.5, 1.5, (40, 4))
    r1, r2 = identity_residuals(CONSERVED_BLOB, ROTATION_12, ETA, h, pts)
    records = [
        IntegralRecord.gated("emt_form_derivative_identity", r1, 1e-12, "flat", h=h),
        IntegralRecord.gated("contracted_current_identity", r2, 1e-6, "flat", h=h),
    ]
    if strict:
        _, r2c = identity_residuals(CONSERVED_BLOB, ROTATION_12, ETA, 2 * h, pts)
        ratio, good = _doubling_ratio(r2c, r2)
        records.append(
            IntegralRecord.gated("contracted_current_refinement", ratio, 4.0, "flat",
                                 passed=good, h=h, refinement_ratio=ratio)
        )
    return records


def run_geometric_suite(seed: int, h: float = DEFAULT_H):
    from .checkers import exact_current_factory, geometric_laue_residuals, vector_divergence

    patch = HyperplanePatch.time_slice(SIG, half_widths=6.0, grid=(48,))
    records = []
    for g, label in ((ETA, "flat"), (CURVED_METRIC, "curved")):
        J, _ = exact_current_factory(LAM, g, h=h)
        out = geometric_laue_residuals(J, TIME_TRANSLATION, PHI, patch, g, h=h)
        grid, spread = f"{label}:N=48", abs(out.rB - out.rC)
        records += [
            IntegralRecord.gated(f"exact_integral[{label}]", out.rA, 1e-6, grid, h=h),
            IntegralRecord.gated(f"dual_route_spread[{label}]", spread, 1e-6, grid, h=h),
        ]
    # the h^2-limited channel: closedness of the derived current measured
    # with a mismatched step (same-step evaluation is stencil-exact)
    probe = rng_from_seed(seed).uniform(-1.0, 1.0, (30, 4))
    res = []
    for step in (2 * h, h):
        J, _ = exact_current_factory(LAM, ETA, h=step)
        res.append(float(np.max(np.abs(vector_divergence(J, ETA, step / 2)(probe)))))
    ratio, good = _doubling_ratio(*res)
    records.append(
        IntegralRecord.gated("derived_current_divergence", res[1], 1e-6, "probe",
                             passed=res[1] < 1e-6 and good, h=h, refinement_ratio=ratio)
    )
    return records


def run_conservation_suite(h: float = DEFAULT_H):
    from .checkers import conservation_check, divergence_volume_integral, gauss_residual
    from .quadrature import flux_charge, flux_charge_normal_form, transform_patch

    def time_slice(t, n):
        return HyperplanePatch.time_slice(SIG, t=t, half_widths=6.0, grid=(n,))

    out = conservation_check(CONSERVED_CURRENT, time_slice(0.0, 48), time_slice(0.7, 48), ETA)
    # a current reaching the lateral boundary voids the comparison
    records = [
        IntegralRecord.gated("charge_difference", out.difference, 1e-8, "N=48",
                             passed=out.difference < 1e-8 and out.edge_current <= 1e-10)
    ]
    t0, t1 = 0.0, 0.9
    p1 = time_slice(t0, 32)
    res = conservation_check(SOURCED_CURRENT, p1, time_slice(t1, 32), ETA)
    volume = divergence_volume_integral(SOURCED_CURRENT, p1, t0, t1, ETA, n_t=32, h=h)
    signed = res.charge_2 - res.charge_1
    rel = abs(volume - signed) / abs(signed)
    records.append(IntegralRecord.gated("source_volume_match", rel, 1e-4, "N=32", h=h))
    # the dual-form and normal routes to one charge, on a slice tilted off
    # every coordinate plane so that all four slots of i_J mu pull back
    tilt = compose(standard_boost(1, 0.3), compose(standard_boost(2, 0.2), standard_boost(3, 0.1)))
    tilted = transform_patch(tilt, time_slice(0.0, 48))
    charge = flux_charge(GENERIC_CURRENT, tilted, ETA)
    spread = abs(charge - flux_charge_normal_form(GENERIC_CURRENT, tilted, ETA)) / abs(charge)
    records.append(IntegralRecord.gated("charge_route_spread", spread, 1e-12, "tilted:N=48"))
    # the partial-integration step of Laue's proof for the conserved blob
    gauss = gauss_residual(CONSERVED_BLOB, PHI, time_slice(0.0, 48), h)
    records.append(IntegralRecord.gated("partial_integration_residual", gauss, 1e-8, "N=48", h=h))
    # a charge against its closed form: the rows above compare two routes or
    # two slices, so a fault that scales every charge leaves them at roundoff
    charge = flux_charge(STATIC_CHARGE, time_slice(0.0, 48), ETA)
    error = abs(charge - math.pi**1.5) / math.pi**1.5
    records.append(IntegralRecord.gated("static_charge_error", error, 1e-12, "N=48"))
    return records


def _classical_verdict(rep, tol: float):
    """(law, ok): the largest relative residual of the vector law over the
    velocities, and whether it and the stress integrals relative to P0 both
    lie under ``tol``, the two sides of Laue's equivalence."""
    law = max(e.resid_four_vector for e in rep.entries)
    stress = max(abs(v) for v in rep.stress.values()) / abs(rep.P0)
    return law, law < tol and stress < tol


def _classical_records(rep, grid: str, tol: float) -> list:
    """The ``laue classical`` rows of one report, each labelled ``grid``."""
    rows = [IntegralRecord(f"P{a}", float(rep.P[a]), grid) for a in range(4)]
    for name, value in rep.stress.items():
        rows.append(IntegralRecord.gated(f"stress_{name}", float(value), tol * abs(rep.P0), grid))
    for e in rep.entries:
        tag = f"beta={e.beta:g}"
        for label, P in (
            ("direct", e.P_direct),
            ("predicted", e.P_predicted),
            ("alt_prediction", e.P_alt_prediction),
            ("four_vector", e.P_four_vector),
        ):
            rows += [IntegralRecord(f"P{a}_{label}[{tag}]", float(P[a]), grid) for a in range(4)]
        rows.append(IntegralRecord.gated(
            f"four_vector_residual[{tag}]", e.resid_four_vector, tol, grid))
    _, ok = _classical_verdict(rep, tol)
    rows.append(IntegralRecord.gated("verdict_four_vector", float(ok), tol, grid, passed=ok))
    return rows


def run_laue_command(args, cfg) -> list:
    from .checkers import classical_laue_report, equivariance_report, fake_covariance_check
    from .scenarios import build

    T, spec = build(args.scenario, **cfg.get(f"scenario.{args.scenario}", {}))
    scale = args.grid_n / 48.0
    if args.check == "classical":
        label = f"{spec.name}:{spec.kind}:scale="
        rep = classical_laue_report(T, spec, args.beta, SIG, scale=scale)
        records = _classical_records(rep, f"{label}{scale:g}", args.tol)
        if args.strict:
            fine = classical_laue_report(T, spec, args.beta, SIG, scale=2 * scale)
            law, ok = _classical_verdict(fine, args.tol)
            records.append(
                IntegralRecord.gated("strict_recheck_four_vector", law, args.tol,
                                     f"{label}{2 * scale:g}",
                                     passed=ok == _classical_verdict(rep, args.tol)[1])
            )
        return records
    g_list = seeded_elements(args.seed)
    if args.check == "fake":
        return [
            IntegralRecord.gated(f"fake_covariance[{label}]",
                                 fake_covariance_check(T, spec, g, SIG, scale=scale),
                                 1e-6, spec.name)
            for label, g in g_list
        ]
    entries = equivariance_report(
        T, spec, np.zeros(4), g_list, SIG, scale=scale,
        restricted=spec.conserved, outer=3e4 if spec.kind == "radial" else None,
    )
    return [
        IntegralRecord.gated(f"equivariance_{kind}[{e.label}]", res, 1e-2, spec.name)
        for e in entries
        for kind, res in (("full", e.full_residual), ("restricted", e.restricted_residual))
        if res is not None
    ]


def run_scenario_suite(name: str, params=None, scale: float = 1.0):
    """A scenario on its preferred slice rule, sampled once: P, and for a
    stationary system the nine stress integrals, the weak-field passive mass
    and the mass-integrand identity residual."""
    from .quadrature import patch_moments, stress_integrals
    from .scenarios import _weak_ep, build

    T, spec = build(name, **(params or {}))
    patch = spec.slice_patch(SIG, scale=scale)
    M0 = patch_moments(T, patch)
    P = M0 @ (patch.sig.matrix @ patch.normal)
    grid = f"{spec.kind}:scale={scale:g}"
    records = [IntegralRecord(f"P{a}", float(P[a]), grid) for a in range(4)]
    if spec.stationary:
        stress = stress_integrals(M0, patch)
        passive_mass, residual = _weak_ep(M0, patch)
        records += [IntegralRecord(f"stress_{k}", float(v), grid) for k, v in stress.items()]
        records += [IntegralRecord("passive_mass", float(passive_mass), grid),
                    IntegralRecord("tolman_integrand_residual", residual, grid)]
    return records


# (command, check) -> (flags and [run] keys read beyond COMMON, runner(args, cfg) -> records)
CHECKS = {
    ("verify", "algebra"): (("seed",), lambda args, cfg: run_algebra_suite(args.seed)),
    ("verify", "poincare"): (("seed",), lambda args, cfg: run_poincare_suite(args.seed)),
    ("verify", "identities"): (
        ("seed", "fd_h", "strict"),
        lambda args, cfg: run_identities_suite(args.seed, args.fd_h, args.strict),
    ),
    ("verify", "geometric"): (
        ("seed", "fd_h"), lambda args, cfg: run_geometric_suite(args.seed, args.fd_h)
    ),
    ("verify", "conservation"): (("fd_h",), lambda args, cfg: run_conservation_suite(args.fd_h)),
    ("laue", "classical"): (("scenario", "beta", "tol", "grid_n", "strict"), run_laue_command),
    ("laue", "fake"): (("seed", "scenario", "grid_n"), run_laue_command),
    ("laue", "equivariance"): (("seed", "scenario", "grid_n"), run_laue_command),
    # scenario reads no seed; it accepts --seed because perfbench/workloads.py
    # passes it to every CLI workload
    ("scenario", None): (
        ("seed", "grid_n"),
        lambda args, cfg: run_scenario_suite(
            args.name, cfg.get(f"scenario.{args.name}"), args.grid_n / 48.0),
    ),
}


def _heap_policy() -> None:
    """Fix glibc's heap thresholds for this process (mmap above 32 MiB, trim
    above 64 MiB), so the temporaries a tile frees are reused by the next
    tile instead of being trimmed and faulted in again, whatever order a
    pass frees them in.  A no-op where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _heap_policy()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    flags, runner = CHECKS[args.command, args.check]
    try:
        cfg = load_config(args.config) if args.config else {}
        args = _apply_config(args, cfg, flags)
        records = runner(args, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numeric fault: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERIC
    text = emit(records, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"numeric fault: cannot write output: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
    else:
        sys.stdout.write(text)
    return EXIT_OK if _passed(records) else EXIT_VERDICT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

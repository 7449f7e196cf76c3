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
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .exterior import Signature
from .fields import FormField, MetricField, ScalarField, SymTensorField, VectorField
from .poincare import (
    PoinLieElement,
    compose,
    fundamental_field,
    rotation,
    standard_boost,
    translation,
    wedge_vectors,
)
from .quadrature import HyperplanePatch, IntegralRecord

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

FORMATS = ("csv", "json", "md")
CSV_HEADER = "quantity,component,value,grid_N,h,refinement_ratio,tolerance,verdict"


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return repr(x)
    return str(x)


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in records:
        name, _, comp = r.name.partition("[")
        writer.writerow(
            [
                name,
                comp.rstrip("]"),
                _fmt(float(r.value)),
                r.grid,
                _fmt(r.h),
                _fmt(r.refinement_ratio),
                _fmt(r.tolerance),
                r.verdict,
            ]
        )
    return buf.getvalue()


def records_to_json(records) -> str:
    rows = []
    for r in records:
        name, _, comp = r.name.partition("[")
        rows.append(
            {
                "quantity": name,
                "component": comp.rstrip("]"),
                "value": r.value,
                "grid_N": r.grid,
                "h": None if math.isnan(r.h) else r.h,
                "refinement_ratio": None
                if math.isnan(r.refinement_ratio)
                else r.refinement_ratio,
                "tolerance": None if math.isnan(r.tolerance) else r.tolerance,
                "verdict": r.verdict,
            }
        )
    return json.dumps(rows, indent=2) + "\n"


def records_to_md(records) -> str:
    out = ["| quantity | value | grid | tolerance | verdict |",
           "|---|---|---|---|---|"]
    for r in records:
        tol = "" if math.isnan(r.tolerance) else _fmt(r.tolerance)
        out.append(f"| {r.name} | {_fmt(float(r.value))} | {r.grid} | {tol} | {r.verdict} |")
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
    "fd_h": (dict(type=float, help="fd step"), float, 1e-3),
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
        elif key in ("fd_h", "grid_n") and not (value > 0 and math.isfinite(value)):
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
    points = np.asarray(points, float)
    out = np.zeros(points.shape[:-1] + (4, 4))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = -((1.0 + 0.1 * np.sin(points[..., 1])) ** 2)
    out[..., 2, 2] = -1.0
    out[..., 3, 3] = -1.0
    return out


CURVED_METRIC = MetricField(SIG, _curved_metric, flat=False)  # g_11 = -(1 + 0.1 sin x1)^2


def _lam(points):
    points = np.asarray(points, float)
    x = points[..., 1:]
    b = np.exp(-np.sum(x * x, axis=-1) / 2.0)
    out = np.zeros(points.shape[:-1] + (6,))
    out[..., 5] = b  # purely spatial slot
    out[..., 2] = 0.7 * b  # slot with a time leg: the derived current gets spatial components
    return out


LAM = FormField(4, 2, _lam)  # 2-form potential of the exact currents
TIME_TRANSLATION = VectorField(
    lambda points: np.broadcast_to(np.eye(4)[0], np.shape(points)[:-1] + (4,))
)


def _phi(points):
    points = np.asarray(points, float)
    r2 = np.sum(points[..., 1:] ** 2, axis=-1)
    return np.exp(-r2 / 4.0) * points[..., 1]


PHI = ScalarField(_phi)  # geometric test function exp(-r^2/4) x1


def _conserved_blob(points):
    # Gaussian energy density; spatial stress [delta_ab (r^2 - 2) - x_a x_b]
    # exp(-r^2/2) / 2, whose spatial divergence vanishes identically
    points = np.asarray(points, float)
    x = points[..., 1:]
    r2 = np.sum(x * x, axis=-1)
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
    points = np.asarray(points, float)
    t = points[..., 0]
    x = points[..., 1:]
    r2 = np.sum(x * x, axis=-1)
    out = np.zeros(points.shape[:-1] + (4,))
    out[..., 0] = -np.sin(t) * np.exp(-r2) * (3.0 - 2.0 * r2)
    out[..., 1:] = np.cos(t)[..., None] * np.exp(-r2)[..., None] * x
    return out


def _sourced_current(points):
    points = np.asarray(points, float)
    out = np.zeros(points.shape[:-1] + (4,))
    r2 = np.sum(points[..., 1:] ** 2, axis=-1)
    out[..., 0] = (1.0 + 0.5 * np.sin(points[..., 0])) * np.exp(-r2)
    return out


CONSERVED_CURRENT = VectorField(_conserved_current)
SOURCED_CURRENT = VectorField(_sourced_current)  # div J = 0.5 cos t exp(-r^2)


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


# --- suite runners; each returns (records, ok), ok read from the records ---


def _passed(records) -> bool:
    return all(r.verdict != "fail" for r in records)


def _doubling_ratio(coarse: float, fine: float):
    """Residual ratio at step 2h over step h, and whether it is the ~4x
    drop of an h^2-limited residual."""
    ratio = coarse / fine if fine else float("nan")
    return ratio, 3.0 < ratio < 5.0


def run_algebra_suite(seed: int, n_random: int = 500, tol: float = 1e-12):
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
                        res = max(res, float(np.max(np.abs(lhs.comps - rhs.comps))))
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
        res_sq = max(res_sq, float(np.max(np.abs(twice.comps - sign * a.comps))))
        b = PForm(n, n - p, rng.standard_normal(math.comb(n, n - p)))
        lhs = inner_norm(a, hodge(b, sig), sig)
        rhs = (-1.0) ** (p * (n - p)) * inner_norm(hodge(a, sig), b, sig)
        res_adj = max(res_adj, abs(lhs - rhs))
        if p < n:
            v = rng.standard_normal(n)
            lhs_f = insert(v, hodge(a, sig))
            rhs_f = hodge(wedge(a, PForm(n, 1, musical(v, sig))), sig)
            res_ins = max(res_ins, float(np.max(np.abs(lhs_f.comps - rhs_f.comps))))
    for name, res in (
        ("star_squared_sign", res_sq),
        ("star_adjointness", res_adj),
        ("insertion_identity", res_ins),
    ):
        records.append(
            IntegralRecord.gated(f"{name}[seed={seed};count={n_random}]", res, tol, "n=4")
        )
    return records, _passed(records)


def run_poincare_suite(seed: int, n_random: int = 200, tol: float = 1e-10):
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
        res_group = max(
            res_group,
            float(np.max(np.abs(e.A - np.eye(4)))),
            float(np.max(np.abs(e.a))),
        )
        xi, zeta, chi = rand_lie(), rand_lie(), rand_lie()
        for rep in (ad, coad):
            lhs = rep(compose(g, h), xi, sig).components()
            rhs = rep(g, rep(h, xi, sig), sig).components()
            res_hom = max(res_hom, float(np.max(np.abs(lhs - rhs))))
        res_transpose = max(
            res_transpose,
            abs(
                pairing(zeta, ad(g, xi, sig), sig)
                - pairing(ad_transpose(g, zeta, sig), xi, sig)
            ),
        )
        jac = (
            lie_bracket(xi, lie_bracket(zeta, chi, sig), sig).components()
            + lie_bracket(zeta, lie_bracket(chi, xi, sig), sig).components()
            + lie_bracket(chi, lie_bracket(xi, zeta, sig), sig).components()
        )
        res_jacobi = max(res_jacobi, float(np.max(np.abs(jac))))
        EX = bivector_to_matrix(xi.M, sig)
        EZ = bivector_to_matrix(zeta.M, sig)
        pts = rng.standard_normal((4, 4))
        Vxi = fundamental_field(xi, np.zeros(4), sig)
        Vzeta = fundamental_field(zeta, np.zeros(4), sig)
        commutator = Vxi(pts) @ EZ.T - Vzeta(pts) @ EX.T
        bracket_field = fundamental_field(lie_bracket(xi, zeta, sig), np.zeros(4), sig)
        res_anti = max(res_anti, float(np.max(np.abs(-commutator - bracket_field(pts)))))

    probe = rng.uniform(-1.5, 1.5, (32, 4))
    res_killing = 0.0
    for xi in momentum_basis(4):
        K = VectorField(fundamental_field(xi, np.zeros(4), sig))
        res_killing = max(res_killing, killing_residual(K, ETA, probe))
    checks = [
        ("group_axioms", res_group, tol),
        ("adjoint_homomorphism", res_hom, tol),
        ("adjoint_transpose_relation", res_transpose, tol),
        ("jacobi_identity", res_jacobi, 1e-12),
        ("field_antihomomorphism", res_anti, 1e-12),
        ("killing_residual_generators", res_killing, 1e-9),
    ]
    records = [
        IntegralRecord.gated(f"{name}[seed={seed};count={n_random}]", res, t, "n=4")
        for name, res, t in checks
    ]
    return records, _passed(records)


def run_identities_suite(seed: int, h: float = 1e-3, strict: bool = False):
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
    return records, _passed(records)


def run_geometric_suite(seed: int, h: float = 1e-3):
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
    return records, _passed(records)


def run_conservation_suite(h: float = 1e-3):
    from .checkers import conservation_check, divergence_volume_integral

    def time_slice(t, n):
        return HyperplanePatch.time_slice(SIG, t=t, half_widths=6.0, grid=(n,))

    out = conservation_check(CONSERVED_CURRENT, time_slice(0.0, 48), time_slice(0.7, 48), ETA)
    # a current reaching the lateral boundary voids the comparison
    records = [
        IntegralRecord.gated("charge_difference", out.difference, 1e-8, "N=48",
                             passed=out.difference < 1e-8 and out.support_ok)
    ]
    t0, t1 = 0.0, 0.9
    p1 = time_slice(t0, 32)
    res = conservation_check(SOURCED_CURRENT, p1, time_slice(t1, 32), ETA)
    volume = divergence_volume_integral(SOURCED_CURRENT, p1, t0, t1, ETA, n_t=32, h=h)
    signed = res.charge_2 - res.charge_1
    rel = abs(volume - signed) / abs(signed)
    records.append(IntegralRecord.gated("source_volume_match", rel, 1e-4, "N=32", h=h))
    return records, _passed(records)


def run_laue_command(args, cfg) -> tuple:
    from .checkers import classical_laue_report, equivariance_report, fake_covariance_check
    from .scenarios import build

    T, spec = build(args.scenario, **cfg.get(f"scenario.{args.scenario}", {}))
    scale = args.grid_n / 48.0
    if args.check == "classical":
        rep = classical_laue_report(T, spec, args.beta, SIG, rel_tol=args.tol, scale=scale)
        records = rep.records()
        if args.strict:
            fine = classical_laue_report(T, spec, args.beta, SIG, rel_tol=args.tol, scale=2 * scale)
            records.append(
                IntegralRecord.gated("strict_recheck_four_vector", fine.four_vector_max_rel,
                                     args.tol, fine.grid,
                                     passed=fine.four_vector == rep.four_vector)
            )
        return records, _passed(records)
    g_list = seeded_elements(args.seed)
    if args.check == "fake":
        records = [
            IntegralRecord.gated(f"fake_covariance[{label}]",
                                 fake_covariance_check(T, spec, g, SIG, scale=scale),
                                 1e-6, spec.name)
            for label, g in g_list
        ]
        return records, _passed(records)
    entries = equivariance_report(
        T, spec, np.zeros(4), g_list, SIG, scale=scale,
        restricted=spec.conserved, outer=3e4 if spec.kind == "radial" else None,
    )
    records = [
        IntegralRecord.gated(f"equivariance_{kind}[{e.label}]", res, 1e-2, spec.name)
        for e in entries
        for kind, res in (("full", e.full_residual), ("restricted", e.restricted_residual))
        if res is not None
    ]
    return records, _passed(records)


def run_scenario_command(args, cfg) -> tuple:
    from .scenarios import run_scenario

    result = run_scenario(args.name, cfg.get(f"scenario.{args.name}"), scale=args.grid_n / 48.0)
    records = [
        IntegralRecord(f"P{a}", float(result.P[a]), result.grid) for a in range(4)
    ]
    for name, value in result.stress.items():
        records.append(IntegralRecord(f"stress_{name}", float(value), result.grid))
    for name, value in result.extras.items():
        records.append(IntegralRecord(name, float(value), result.grid))
    return records, _passed(records)


# (command, check) -> (flags and [run] keys read beyond COMMON, runner)
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
    ("scenario", None): (("seed", "grid_n"), run_scenario_command),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    flags, runner = CHECKS[args.command, args.check]
    try:
        cfg = load_config(args.config) if args.config else {}
        args = _apply_config(args, cfg, flags)
        records, ok = runner(args, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FloatingPointError, np.linalg.LinAlgError, RuntimeError, MemoryError) as exc:
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
    return EXIT_OK if ok else EXIT_VERDICT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

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
from .quadrature import IntegralRecord

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laue-lab",
        description="Exterior-algebra, isometry-group, and flux-integral workbench",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="INI config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (Philox)")
    common.add_argument("--format", choices=FORMATS, default=None)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--tol", type=float, default=None, help="tolerance override")
    common.add_argument("--grid-n", type=int, default=None, help="grid scale anchor N")
    common.add_argument("--fd-h", type=float, default=None, help="fd step")
    common.add_argument(
        "--strict", action="store_true",
        help="re-run refinable checks at doubled resolution and require a ~4x drop",
    )

    verify = sub.add_parser("verify", parents=[common], help="run a property suite")
    verify.add_argument(
        "suite",
        choices=["algebra", "poincare", "identities", "geometric", "conservation"],
    )

    laue = sub.add_parser("laue", parents=[common], help="boost/covariance reports")
    laue.add_argument("check", choices=["classical", "fake", "equivariance"])
    laue.add_argument("--scenario", default="gaussian_dust")
    laue.add_argument(
        "--beta", type=float, action="append", default=None, help="repeatable"
    )

    scen = sub.add_parser("scenario", parents=[common], help="scenario numbers")
    scen.add_argument("name")
    return parser


def load_config(path: str) -> dict:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    known = {"seed", "format", "out", "tol", "grid_n", "fd_h", "scenario", "beta"}
    out = {}
    for section in cp.sections():
        if section != "run" and not section.startswith("scenario."):
            raise ValueError(f"unknown config section [{section}]")
        for key, value in cp.items(section):
            if section == "run" and key not in known:
                raise ValueError(f"unknown config key {key!r} in [run]")
            out[f"{section}.{key}"] = value
    return out


def _apply_config(args, cfg: dict):
    mapping = {
        "seed": int,
        "format": str,
        "out": str,
        "tol": float,
        "grid_n": int,
        "fd_h": float,
    }
    for key, conv in mapping.items():
        cfg_val = cfg.get(f"run.{key}")
        if cfg_val is None:
            continue
        if getattr(args, key, None) is None:
            setattr(args, key, conv(cfg_val))
        elif getattr(args, key) != conv(cfg_val):
            print(
                f"note: flag --{key.replace('_', '-')}={getattr(args, key)} "
                f"overrides config value {cfg_val}",
                file=sys.stderr,
            )
    for key in ("fd_h", "grid_n"):
        value = getattr(args, key, None)
        if value is not None and not (value > 0 and math.isfinite(value)):
            flag = "--" + key.replace("_", "-")
            raise ValueError(f"{flag} must be a finite positive number, got {value}")
    if getattr(args, "beta", None) is None and cfg.get("run.beta"):
        args.beta = [float(b) for b in cfg["run.beta"].split(",")]
    for key, default in (("format", "csv"), ("seed", 7), ("fd_h", 1e-3), ("grid_n", 48)):
        if getattr(args, key, None) is None:
            setattr(args, key, default)
    return args


def scenario_params_from_config(cfg: dict, name: str) -> dict:
    prefix = f"scenario.{name}."
    params = {}
    for key, value in cfg.items():
        if key.startswith(prefix):
            params[key[len(prefix):]] = float(value)
    return params


# --- suite runners; each returns (records, ok) ---


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
    worst = 0.0
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
            records.append(
                IntegralRecord(f"duality_property[{label}]", res, label, tolerance=tol,
                               verdict="pass" if res < tol else "fail")
            )
            worst = max(worst, res)
            # volume normalisation
            res = abs(inner_norm(eps, eps, sig) - (-1.0) ** sig.n_minus)
            records.append(
                IntegralRecord(f"volume_square[{label}]", res, label, tolerance=tol,
                               verdict="pass" if res < tol else "fail")
            )
            worst = max(worst, res)
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
            IntegralRecord(f"{name}[seed={seed};count={n_random}]", res,
                           "n=4", tolerance=tol,
                           verdict="pass" if res < tol else "fail")
        )
        worst = max(worst, res)
    return records, worst < tol


def run_poincare_suite(seed: int, n_random: int = 200, tol: float = 1e-10):
    from .fields import MetricField, VectorField, killing_residual
    from .poincare import (
        PoinLieElement,
        ad,
        ad_transpose,
        compose,
        coad,
        fundamental_field,
        invert,
        lie_bracket,
        pairing,
        rotation,
        standard_boost,
        translation,
        wedge_vectors,
    )
    from .quadrature import momentum_basis

    sig = Signature.mostly_minus(4)
    rng = rng_from_seed(seed)
    records = []

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
        from .poincare import bivector_to_matrix

        EX = bivector_to_matrix(xi.M, sig)
        EZ = bivector_to_matrix(zeta.M, sig)
        pts = rng.standard_normal((4, 4))
        Vxi = fundamental_field(xi, np.zeros(4), sig)
        Vzeta = fundamental_field(zeta, np.zeros(4), sig)
        commutator = Vxi(pts) @ EZ.T - Vzeta(pts) @ EX.T
        bracket_field = fundamental_field(lie_bracket(xi, zeta, sig), np.zeros(4), sig)
        res_anti = max(res_anti, float(np.max(np.abs(-commutator - bracket_field(pts)))))

    eta = MetricField.minkowski(4)
    probe = rng.uniform(-1.5, 1.5, (32, 4))
    res_killing = 0.0
    for xi in momentum_basis(4):
        K = VectorField(fundamental_field(xi, np.zeros(4), sig))
        res_killing = max(res_killing, killing_residual(K, eta, probe))
    checks = [
        ("group_axioms", res_group, tol),
        ("adjoint_homomorphism", res_hom, tol),
        ("adjoint_transpose_relation", res_transpose, tol),
        ("jacobi_identity", res_jacobi, 1e-12),
        ("field_antihomomorphism", res_anti, 1e-12),
        ("killing_residual_generators", res_killing, 1e-9),
    ]
    ok = True
    records = []
    for name, res, t in checks:
        good = res < t
        ok = ok and good
        records.append(
            IntegralRecord(f"{name}[seed={seed};count={n_random}]", res, "n=4",
                           tolerance=t, verdict="pass" if good else "fail")
        )
    return records, ok


def run_identities_suite(seed: int, h: float = 1e-3, strict: bool = False):
    from .fields import MetricField, SymTensorField, VectorField, identity_residuals
    from .poincare import PoinLieElement, fundamental_field, wedge_vectors

    sig = Signature.mostly_minus(4)
    eta = MetricField.minkowski(4)
    rng = rng_from_seed(seed)
    pts = rng.uniform(-1.5, 1.5, (40, 4))

    def blob(points):
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

    T = SymTensorField(blob, stationary=True)
    e1, e2 = np.eye(4)[1], np.eye(4)[2]
    K = VectorField(
        fundamental_field(
            PoinLieElement(np.zeros(4), wedge_vectors(e1, e2)), np.zeros(4), sig
        )
    )
    r1, r2 = identity_residuals(T, K, eta, h, pts)
    records = [
        IntegralRecord("emt_form_derivative_identity", r1, "flat", h=h,
                       tolerance=1e-12, verdict="pass" if r1 < 1e-12 else "fail"),
        IntegralRecord("contracted_current_identity", r2, "flat", h=h,
                       tolerance=1e-6, verdict="pass" if r2 < 1e-6 else "fail"),
    ]
    ok = r1 < 1e-12 and r2 < 1e-6
    if strict:
        _, r2c = identity_residuals(T, K, eta, 2 * h, pts)
        ratio = r2c / r2 if r2 else float("nan")
        good = 3.0 < ratio < 5.0
        records.append(
            IntegralRecord("contracted_current_refinement", ratio, "flat", h=h,
                           refinement_ratio=ratio, tolerance=4.0,
                           verdict="pass" if good else "fail")
        )
        ok = ok and good
    return records, ok


def run_geometric_suite(seed: int, h: float = 1e-3):
    from .checkers import exact_current_factory, geometric_laue_residuals, vector_divergence
    from .fields import FormField, MetricField, ScalarField, VectorField
    from .quadrature import HyperplanePatch

    sig = Signature.mostly_minus(4)
    eta = MetricField.minkowski(4)

    def curved_func(points):
        points = np.asarray(points, float)
        out = np.zeros(points.shape[:-1] + (4, 4))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = -((1.0 + 0.1 * np.sin(points[..., 1])) ** 2)
        out[..., 2, 2] = -1.0
        out[..., 3, 3] = -1.0
        return out

    curved = MetricField(sig, curved_func, flat=False)

    def lam_comps(points):
        points = np.asarray(points, float)
        x = points[..., 1:]
        b = np.exp(-np.sum(x * x, axis=-1) / 2.0)
        out = np.zeros(points.shape[:-1] + (6,))
        out[..., 5] = b  # purely spatial slot
        out[..., 2] = 0.7 * b  # slot with a time leg
        return out

    lam = FormField(4, 2, lam_comps, stationary=True)

    def u_func(points):
        points = np.asarray(points, float)
        return np.broadcast_to(np.eye(4)[0], points.shape[:-1] + (4,))

    U = VectorField(u_func, stationary=True)

    def phi_func(points):
        points = np.asarray(points, float)
        r2 = np.sum(points[..., 1:] ** 2, axis=-1)
        return np.exp(-r2 / 4.0) * points[..., 1]

    phi = ScalarField(phi_func, stationary=True)
    patch = HyperplanePatch.time_slice(sig, half_widths=6.0, grid=(48,))
    records = []
    ok = True
    for g, label in ((eta, "flat"), (curved, "curved")):
        J, calJ = exact_current_factory(lam, g, h=h)
        out = geometric_laue_residuals(J, U, phi, patch, g, h=h)
        spread = abs(out.rB - out.rC)
        for name, val, t in (
            (f"exact_integral[{label}]", out.rA, 1e-6),
            (f"dual_route_spread[{label}]", spread, 1e-6),
        ):
            good = val < t
            ok = ok and good
            records.append(
                IntegralRecord(name, val, f"{label}:N=48", h=h, tolerance=t,
                               verdict="pass" if good else "fail")
            )
    # the h^2-limited channel: closedness of the derived current measured
    # with a mismatched step (same-step evaluation is stencil-exact)
    rng = rng_from_seed(seed)
    probe = rng.uniform(-1.0, 1.0, (30, 4))
    res = []
    for step in (2 * h, h):
        J, _ = exact_current_factory(lam, eta, h=step)
        res.append(
            float(np.max(np.abs(vector_divergence(J, eta, step / 2)(probe))))
        )
    ratio = res[0] / res[1] if res[1] else float("nan")
    good = res[1] < 1e-6 and 3.0 < ratio < 5.0
    ok = ok and good
    records.append(
        IntegralRecord("derived_current_divergence", res[1], "probe", h=h,
                       refinement_ratio=ratio, tolerance=1e-6,
                       verdict="pass" if good else "fail")
    )
    return records, ok


def run_conservation_suite(h: float = 1e-3):
    from .checkers import conservation_check, divergence_volume_integral
    from .fields import MetricField, VectorField
    from .quadrature import HyperplanePatch

    sig = Signature.mostly_minus(4)
    eta = MetricField.minkowski(4)

    def conserved(points):
        points = np.asarray(points, float)
        t = points[..., 0]
        x = points[..., 1:]
        r2 = np.sum(x * x, axis=-1)
        out = np.zeros(points.shape[:-1] + (4,))
        out[..., 0] = -np.sin(t) * np.exp(-r2) * (3.0 - 2.0 * r2)
        out[..., 1:] = np.cos(t)[..., None] * np.exp(-r2)[..., None] * x
        return out

    J = VectorField(conserved)
    p1 = HyperplanePatch.time_slice(sig, t=0.0, half_widths=6.0, grid=(48,))
    p2 = HyperplanePatch.time_slice(sig, t=0.7, half_widths=6.0, grid=(48,))
    out = conservation_check(J, p1, p2, eta)
    records = [
        IntegralRecord("charge_difference", out.difference, "N=48",
                       tolerance=1e-8,
                       verdict="pass" if out.difference < 1e-8 else "fail")
    ]
    ok = out.difference < 1e-8 and out.support_ok

    def sourced(points):
        points = np.asarray(points, float)
        out_ = np.zeros(points.shape[:-1] + (4,))
        r2 = np.sum(points[..., 1:] ** 2, axis=-1)
        out_[..., 0] = (1.0 + 0.5 * np.sin(points[..., 0])) * np.exp(-r2)
        return out_

    Js = VectorField(sourced)
    t0, t1 = 0.0, 0.9
    p1 = HyperplanePatch.time_slice(sig, t=t0, half_widths=6.0, grid=(32,))
    p2 = HyperplanePatch.time_slice(sig, t=t1, half_widths=6.0, grid=(32,))
    res = conservation_check(Js, p1, p2, eta)
    volume = divergence_volume_integral(Js, p1, t0, t1, eta, n_t=32, h=h)
    signed = res.charge_2 - res.charge_1
    rel = abs(volume - signed) / abs(signed)
    good = rel < 1e-4
    ok = ok and good
    records.append(
        IntegralRecord("source_volume_match", rel, "N=32", h=h, tolerance=1e-4,
                       verdict="pass" if good else "fail")
    )
    return records, ok


def run_laue_command(args, cfg) -> tuple:
    from .checkers import (
        classical_laue_report,
        equivariance_report,
        fake_covariance_check,
    )
    from .poincare import compose, rotation, standard_boost, translation
    from .scenarios import build

    params = scenario_params_from_config(cfg, args.scenario)
    T, spec = build(args.scenario, **params)
    sig = Signature.mostly_minus(4)
    betas = args.beta or [0.3, 0.6]
    tol = args.tol if args.tol is not None else 1e-3
    scale = args.grid_n / 48.0
    if args.check == "classical":
        rep = classical_laue_report(T, spec, betas, sig, rel_tol=tol, scale=scale)
        records = rep.records()
        ok = rep.four_vector
        if args.strict:
            fine = classical_laue_report(T, spec, betas, sig, rel_tol=tol, scale=2 * scale)
            records.append(
                IntegralRecord(
                    "strict_recheck_four_vector",
                    fine.four_vector_max_rel,
                    fine.grid,
                    tolerance=tol,
                    verdict="pass" if fine.four_vector == rep.four_vector else "fail",
                )
            )
        return records, ok
    rng = rng_from_seed(args.seed)
    g_list = []
    for i in range(5):
        g = compose(
            standard_boost(1, float(rng.uniform(-0.6, 0.6))),
            compose(
                rotation(1, 2, float(rng.uniform(0, 2 * math.pi))),
                translation(np.concatenate([[0.0], rng.uniform(-0.5, 0.5, 3)])),
            ),
        )
        g_list.append((f"g{i}", g))
    if args.check == "fake":
        records = []
        ok = True
        for label, g in g_list:
            res = fake_covariance_check(T, spec, g, sig, scale=scale)
            good = res < 1e-6
            ok = ok and good
            records.append(
                IntegralRecord(f"fake_covariance[{label}]", res, spec.name,
                               tolerance=1e-6, verdict="pass" if good else "fail")
            )
        return records, ok
    if args.check == "equivariance":
        entries = equivariance_report(
            T, spec, np.zeros(4), g_list, sig, scale=scale,
            restricted=spec.conserved, outer=3e4 if spec.kind == "radial" else None,
        )
        records = []
        ok = True
        for e in entries:
            good = e.full_residual < 1e-2
            records.append(
                IntegralRecord(f"equivariance_full[{e.label}]", e.full_residual,
                               spec.name, tolerance=1e-2,
                               verdict="pass" if good else "fail")
            )
            ok = ok and good
            if e.restricted_residual is not None:
                good_r = e.restricted_residual < 1e-2
                ok = ok and good_r
                records.append(
                    IntegralRecord(
                        f"equivariance_restricted[{e.label}]", e.restricted_residual,
                        spec.name, tolerance=1e-2,
                        verdict="pass" if good_r else "fail")
                )
        return records, ok
    raise ValueError(f"unknown check {args.check!r}")


def run_scenario_command(args, cfg) -> tuple:
    from .scenarios import run_scenario

    params = scenario_params_from_config(cfg, args.name)
    scale = args.grid_n / 48.0
    result = run_scenario(args.name, params, Signature.mostly_minus(4), scale)
    records = [
        IntegralRecord(f"P{a}", float(result.P[a]), result.grid) for a in range(4)
    ]
    for name, value in result.stress.items():
        records.append(IntegralRecord(f"stress_{name}", float(value), result.grid))
    for name, value in result.extras.items():
        records.append(IntegralRecord(name, float(value), result.grid))
    return records, True


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        cfg = load_config(args.config) if args.config else {}
        args = _apply_config(args, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "verify":
            runner = {
                "algebra": run_algebra_suite,
                "poincare": run_poincare_suite,
            }.get(args.suite)
            if runner is not None:
                records, ok = runner(args.seed)
            elif args.suite == "identities":
                records, ok = run_identities_suite(args.seed, args.fd_h, args.strict)
            elif args.suite == "geometric":
                records, ok = run_geometric_suite(args.seed, args.fd_h)
            else:
                records, ok = run_conservation_suite(args.fd_h)
        elif args.command == "laue":
            records, ok = run_laue_command(args, cfg)
        elif args.command == "scenario":
            records, ok = run_scenario_command(args, cfg)
        else:  # pragma: no cover - argparse enforces choices
            return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FloatingPointError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
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

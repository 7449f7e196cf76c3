"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here, not calibrated elsewhere.
Where a criterion's inputs are a CLI check's, it reads that check's rows.
"""

import contextlib
import io
import json
import math
import time

import numpy as np

from laue_lab.checkers import fake_covariance_check, geometric_laue_residuals
from laue_lab.cli import (
    CONSERVED_BLOB,
    CURVED_METRIC,
    ETA,
    EXIT_OK,
    EXIT_VERDICT,
    PHI,
    ROTATION_12,
    SIG,
    TIME_TRANSLATION,
    main,
    rng_from_seed,
    run_algebra_suite,
    run_conservation_suite,
    run_geometric_suite,
    run_poincare_suite,
    run_scenario_suite,
)
from laue_lab.fields import SymTensorField, VectorField, identity_residuals
from laue_lab.poincare import compose, rotation, standard_boost, translation
from laue_lab.quadrature import HyperplanePatch
from laue_lab.scenarios import build, virial_check

from field_builders import constant_field


def verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def cli_rows(*argv):
    """Exit code and JSON rows, keyed ``quantity[component]``, of one CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    assert code in (EXIT_OK, EXIT_VERDICT), (argv, code)
    rows = {}
    for row in json.loads(out.getvalue()):
        component = f"[{row['component']}]" if row["component"] else ""
        rows[row["quantity"] + component] = row
    return code, rows


def classical_rows(scenario, *betas):
    """``laue classical`` on the default grid, one ``--beta`` per velocity."""
    beta_flags = [arg for b in betas for arg in ("--beta", str(b))]
    return cli_rows("laue", "classical", "--scenario", scenario, "--grid-n", "48", *beta_flags)


# 1. exterior-algebra identity suite -----------------------------------------


def test_criterion_1_algebra_identities():
    t0 = time.perf_counter()
    records = run_algebra_suite(seed=7)
    elapsed = time.perf_counter() - t0
    worst = max(r.value for r in records)
    ok = all(r.verdict != "fail" for r in records) and worst < 1e-12 and elapsed < 10.0
    verdict(1, ok, f"max residual {worst:.2e} (<1e-12), {elapsed:.1f}s (<10s)")


# 2. isometry-group algebra suite --------------------------------------------


def test_criterion_2_group_algebra():
    t0 = time.perf_counter()
    records = run_poincare_suite(seed=7)
    elapsed = time.perf_counter() - t0
    worst = max(r.value for r in records)
    killing = [r for r in records if r.name.startswith("killing")][0].value
    ok = all(r.verdict != "fail" for r in records) and elapsed < 10.0 and killing < 1e-9
    verdict(2, ok, f"max residual {worst:.2e}, killing {killing:.2e} (<1e-9), "
                   f"{elapsed:.1f}s (<10s)")


# 3. the 4/3 reproduction ----------------------------------------------------


def test_criterion_3_four_thirds():
    t0 = time.perf_counter()
    betas = [0.3, 0.6]
    _, rows = classical_rows("coulomb_shell", *betas)  # q = R = 1, r_out = 1e3
    value = {name: row["value"] for name, row in rows.items()}
    P0 = value["P0"]
    third_resid = abs(value["stress_T11"] - P0 / 3.0) / P0
    worst_p1 = worst_p0 = 0.0
    flagged = 0.0
    for beta in betas:
        gamma = 1.0 / math.sqrt(1.0 - beta**2)
        tag = f"beta={beta:g}"
        P0_direct, P1_direct = value[f"P0_direct[{tag}]"], value[f"P1_direct[{tag}]"]
        worst_p1 = max(worst_p1, abs(P1_direct - (4.0 / 3.0) * beta * gamma * P0) / P0)
        worst_p0 = max(worst_p0, abs(P0_direct - gamma * (1 + beta**2 / 3.0) * P0) / P0)
        # the transcription without the beta^2 factor is reported, not
        # asserted; record how far it sits from the direct integral
        flagged = max(flagged, abs(value[f"P0_alt_prediction[{tag}]"] - P0_direct) / P0)
    elapsed = time.perf_counter() - t0
    ok = third_resid < 1e-3 and worst_p1 < 1e-3 and worst_p0 < 1e-3 and elapsed < 60.0
    verdict(
        3,
        ok,
        f"|S11 - P0/3|/P0 = {third_resid:.2e}, |P1bar - (4/3)bgP0|/P0 = "
        f"{worst_p1:.2e}, |P0bar - g(1+b^2/3)P0|/P0 = {worst_p0:.2e} (all <1e-3); "
        f"energy-row transcription flagged at {flagged:.2e} rel; {elapsed:.0f}s (<60s)",
    )


# 4. boost-covariance equivalence --------------------------------------------


def test_criterion_4_boost_covariance_equivalence():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, holds in (("completed_shell", True), ("gaussian_dust", True),
                        ("coulomb_shell", False), ("uniform_field_box", False)):
        code, rows = classical_rows(name, 0.3, 0.6, 0.9)
        stress = max(abs(r["value"]) for n, r in rows.items() if n.startswith("stress_"))
        stress /= abs(rows["P0"]["value"])
        law = max(r["value"] for n, r in rows.items() if n.startswith("four_vector_residual"))
        # both sides of the equivalence hold or both fail, and the CLI's
        # verdict row and exit code say which
        good = (stress < 1e-3 and law < 1e-3) if holds else (stress > 1e-3 and law > 1e-3)
        said = rows["verdict_four_vector"]["verdict"] == ("pass" if holds else "fail")
        ok = ok and good and said and code == (EXIT_OK if holds else EXIT_VERDICT)
        details.append(f"{name}: stress {stress:.1e}, law {law:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    verdict(4, ok, "; ".join(details) + f"; no scenario splits the equivalence; {elapsed:.0f}s (<120s)")


# 5. change-of-variables control ---------------------------------------------


def test_criterion_5_transform_both_sides_control():
    rng = rng_from_seed(5)
    worst = 0.0
    for name in ("gaussian_dust", "coulomb_shell", "completed_shell",
                 "uniform_field_box", "moving_dust"):
        T, spec = build(name)
        g = compose(
            standard_boost(1, float(rng.uniform(-0.7, 0.7))),
            compose(
                rotation(1, 2, float(rng.uniform(0, 2 * math.pi))),
                translation(rng.standard_normal(4) * 0.4),
            ),
        )
        worst = max(worst, fake_covariance_check(T, spec, g, SIG))
    ok = worst < 1e-6
    verdict(5, ok, f"surface+field transform residual {worst:.2e} (<1e-6) "
                   "on every scenario incl. vector-law violators")


# 6. momentum-map covariance -------------------------------------------------


def test_criterion_6_momentum_map_covariance():
    t0 = time.perf_counter()

    def residuals(scenario, kind, grid_n):
        # the five seeded elements g0..g4, on the radial rule out to r = 3e4
        _, rows = cli_rows("laue", "equivariance", "--scenario", scenario,
                           "--seed", "20240601", "--grid-n", grid_n)
        return [rows[f"equivariance_{kind}[g{i}]"]["value"] for i in range(5)]

    worst_full = max(residuals("coulomb_shell", "full", "48"))
    coarse = residuals("completed_shell", "restricted", "48")
    fine = residuals("completed_shell", "restricted", "96")
    worst_restricted = max(coarse)
    ratios = [c / f for c, f in zip(coarse, fine)]
    elapsed = time.perf_counter() - t0
    # the full check transforms the surface too and is exact by node mapping,
    # so it sits at roundoff with nothing left to refine; the restricted
    # check is the grid-limited one and must show the ~x4 drop
    ok = (
        worst_full < 1e-9
        and worst_restricted < 1e-2
        and all(3.0 < r < 5.0 for r in ratios)
        and elapsed < 180.0
    )
    verdict(
        6,
        ok,
        f"full {worst_full:.1e} (roundoff), restricted {worst_restricted:.1e} "
        f"(<1e-2 at N=48), refinement ratios {[f'{r:.2f}' for r in ratios]} "
        f"in [3,5]; {elapsed:.0f}s (<180s)",
    )


# 7. geometric vanishing-integral theorem ------------------------------------


def test_criterion_7_geometric_version():
    t0 = time.perf_counter()

    def spatial_current(points):
        return -CONSERVED_BLOB(points)[..., 1, :]

    J_flat = VectorField(spatial_current)
    patch = HyperplanePatch.time_slice(SIG, half_widths=6.0, grid=(48,))
    flat = geometric_laue_residuals(J_flat, TIME_TRANSLATION, PHI, patch, ETA, h=1e-3)
    # the curved exact current and the O(h^2) channel (the derived current's
    # closedness defect at a mismatched step) are read from the CLI suite
    rows = {r.name: r for r in run_geometric_suite(7, 1e-3)}
    curved_rA = rows["exact_integral[curved]"].value
    curved_spread = rows["dual_route_spread[curved]"].value
    ratio = rows["derived_current_divergence"].refinement_ratio
    elapsed = time.perf_counter() - t0
    ok = (
        flat.rA < 1e-6
        and abs(flat.rB - flat.rC) < 1e-6
        and curved_rA < 1e-6
        and curved_spread < 1e-6
        and 3.0 < ratio < 5.0
        and elapsed < 60.0
    )
    verdict(
        7,
        ok,
        f"flat rA {flat.rA:.1e}, |rB-rC| {abs(flat.rB - flat.rC):.1e}; curved rA "
        f"{curved_rA:.1e}, |rB-rC| {curved_spread:.1e} "
        f"(<1e-6); closedness refinement ratio {ratio:.2f} in [3,5]; "
        f"{elapsed:.0f}s (<60s)",
    )


# 8. charge conservation between slices --------------------------------------


def test_criterion_8_charge_conservation():
    rows = {r.name: r for r in run_conservation_suite(1e-3)}
    charge = rows["charge_difference"]  # its verdict also needs the current off the lateral edge
    rel = rows["source_volume_match"].value
    ok = charge.verdict == "pass" and charge.value < 1e-8 and rel < 1e-4
    verdict(
        8,
        ok,
        f"conserved-current charge difference {charge.value:.1e} (<1e-8); "
        f"injected source reproduces the volume integral to {rel:.1e} rel (<1e-4)",
    )


# 9. differential identities of the energy-momentum form ----------------------


def test_criterion_9_form_identities():
    rng = rng_from_seed(9)
    pts = rng.uniform(-1.5, 1.5, (40, 4))
    # the blob carries no analytic divergence, so it is measured via fd
    r1_f, r2_f = identity_residuals(CONSERVED_BLOB, ROTATION_12, ETA, 1e-3, pts)
    _, r2_c = identity_residuals(CONSERVED_BLOB, ROTATION_12, ETA, 2e-3, pts)
    ratio_flat = r2_c / r2_f

    g = CURVED_METRIC
    T_c = SymTensorField(lambda p: np.linalg.inv(g(p)))
    K_c = constant_field(np.eye(4)[2])
    pts_c = 0.4 * pts
    r1_curved_f, _ = identity_residuals(T_c, K_c, g, 1e-3, pts_c)
    r1_curved_c, _ = identity_residuals(T_c, K_c, g, 2e-3, pts_c)
    ratio_curved = r1_curved_c / r1_curved_f
    # flat-chart r1 is stencil-exact; the O(h^2) scaling is measured on r2
    # (flat) and on r1 with metric derivatives in play (curved)
    ok = (
        r1_f < 1e-12
        and r2_f < 1e-6
        and 3.0 < ratio_flat < 5.0
        and r1_curved_f < 1e-6
        and 3.0 < ratio_curved < 5.0
    )
    verdict(
        9,
        ok,
        f"flat: r1 {r1_f:.1e} (stencil-exact), r2 {r2_f:.1e} with x{ratio_flat:.2f} "
        f"drop; curved: r1 {r1_curved_f:.1e} with x{ratio_curved:.2f} drop",
    )


# 10. physics extras ----------------------------------------------------------


def test_criterion_10_physics_extras():
    vir = max(
        virial_check(1.0, -1.0, 1.0),
        virial_check(0.5, -0.5, 3.0, 2.0, 5.0),
    )
    full, bare = (
        {r.name: r.value for r in run_scenario_suite(name, {"r_out": 1e4})}
        for name in ("completed_shell", "coulomb_shell")
    )
    res_full = abs(full["passive_mass"] - full["P0"]) / full["P0"]
    res_bare = abs(bare["passive_mass"] - 2.0 * bare["P0"]) / bare["P0"]
    _, spec_box = build("uniform_field_box")
    beta = 0.5
    _, rows = classical_rows("uniform_field_box", beta)
    transverse = np.array([rows[f"P{a}_direct[beta={beta:g}]"]["value"] for a in (2, 3)])
    closed_form = np.array([beta * spec_box.analytic["stress_12"], 0.0])
    tn_res = float(np.max(np.abs(transverse - closed_form)))
    ok = vir < 1e-12 and res_full < 1e-3 and res_bare < 1e-3 and tn_res < 1e-10
    verdict(
        10,
        ok,
        f"virial {vir:.1e} (<1e-12); passive mass: completed {res_full:.1e}, "
        f"bare-shell 2x pattern {res_bare:.1e} (<1e-3); transverse momentum "
        f"closed-form match {tn_res:.1e} (<1e-10)",
    )

"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here, not calibrated elsewhere.
"""

import math
import time

import numpy as np

from laue_lab.checkers import (
    classical_laue_report,
    equivariance_report,
    fake_covariance_check,
    geometric_laue_residuals,
)
from laue_lab.cli import (
    CONSERVED_BLOB,
    CURVED_METRIC,
    ETA,
    PHI,
    ROTATION_12,
    SIG,
    TIME_TRANSLATION,
    rng_from_seed,
    run_algebra_suite,
    run_conservation_suite,
    run_geometric_suite,
    run_poincare_suite,
    seeded_elements,
)
from laue_lab.fields import SymTensorField, VectorField, identity_residuals
from laue_lab.poincare import compose, rotation, standard_boost, translation
from laue_lab.quadrature import HyperplanePatch, four_momentum, laue_integrals
from laue_lab.scenarios import (
    build,
    tolman_weak_ep,
    trouton_noble_demo,
    virial_check,
)

from field_builders import constant_field


def verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# 1. exterior-algebra identity suite -----------------------------------------


def test_criterion_1_algebra_identities():
    t0 = time.perf_counter()
    records, ok = run_algebra_suite(seed=7, n_random=500, tol=1e-12)
    elapsed = time.perf_counter() - t0
    worst = max(r.value for r in records)
    ok = ok and elapsed < 10.0
    verdict(1, ok, f"max residual {worst:.2e} (<1e-12), {elapsed:.1f}s (<10s)")


# 2. isometry-group algebra suite --------------------------------------------


def test_criterion_2_group_algebra():
    t0 = time.perf_counter()
    records, ok = run_poincare_suite(seed=7, n_random=200)
    elapsed = time.perf_counter() - t0
    worst = max(r.value for r in records)
    killing = [r for r in records if r.name.startswith("killing")][0].value
    ok = ok and elapsed < 10.0 and killing < 1e-9
    verdict(2, ok, f"max residual {worst:.2e}, killing {killing:.2e} (<1e-9), "
                   f"{elapsed:.1f}s (<10s)")


# 3. the 4/3 reproduction ----------------------------------------------------


def test_criterion_3_four_thirds():
    t0 = time.perf_counter()
    T, spec = build("coulomb_shell", q=1.0, R=1.0, r_out=1e3)
    patch = spec.slice_patch(SIG)
    P0 = four_momentum(T, patch)[0]
    stress = laue_integrals(T, patch)
    third_resid = abs(stress["T11"] - P0 / 3.0) / P0
    rep = classical_laue_report(T, spec, [0.3, 0.6])
    worst_p1 = worst_p0 = 0.0
    flagged = 0.0
    for e in rep.entries:
        gamma = 1.0 / math.sqrt(1.0 - e.beta**2)
        worst_p1 = max(worst_p1, abs(e.P_direct[1] - (4.0 / 3.0) * e.beta * gamma * P0) / P0)
        worst_p0 = max(worst_p0, abs(e.P_direct[0] - gamma * (1 + e.beta**2 / 3.0) * P0) / P0)
        # the transcription without the beta^2 factor is reported, not
        # asserted; record how far it sits from the direct integral
        flagged = max(flagged, abs(e.P_alt_prediction[0] - e.P_direct[0]) / P0)
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
    betas = [0.3, 0.6, 0.9]
    results = {}
    for name in ("completed_shell", "gaussian_dust", "coulomb_shell", "uniform_field_box"):
        T, spec = build(name)
        rep = classical_laue_report(T, spec, betas)
        results[name] = rep
    ok = True
    details = []
    for name in ("completed_shell", "gaussian_dust"):
        rep = results[name]
        good = rep.stress_max_rel < 1e-3 and rep.four_vector_max_rel < 1e-3
        ok = ok and good and rep.biconditional_consistent
        details.append(f"{name}: stress {rep.stress_max_rel:.1e}, law {rep.four_vector_max_rel:.1e}")
    for name in ("coulomb_shell", "uniform_field_box"):
        rep = results[name]
        good = rep.stress_max_rel > 1e-3 and rep.four_vector_max_rel > 1e-3
        ok = ok and good and rep.biconditional_consistent
        details.append(f"{name}: stress {rep.stress_max_rel:.1e}, law {rep.four_vector_max_rel:.1e}")
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
    g_list = seeded_elements(20240601)
    T, spec = build("coulomb_shell")
    full = equivariance_report(T, spec, np.zeros(4), g_list, SIG, scale=1.0, outer=3e4)
    worst_full = max(e.full_residual for e in full)
    T2, spec2 = build("completed_shell")
    coarse = equivariance_report(
        T2, spec2, np.zeros(4), g_list, SIG, scale=1.0, restricted=True, outer=3e4
    )
    fine = equivariance_report(
        T2, spec2, np.zeros(4), g_list, SIG, scale=2.0, restricted=True, outer=3e4
    )
    worst_restricted = max(e.restricted_residual for e in coarse)
    ratios = [
        c.restricted_residual / f.restricted_residual
        for c, f in zip(coarse, fine)
    ]
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
    rows = {r.name: r for r in run_geometric_suite(7, 1e-3)[0]}
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
    rows = {r.name: r for r in run_conservation_suite(1e-3)[0]}
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
    T_full, spec_full = build("completed_shell", r_out=1e4)
    patch_full = spec_full.slice_patch(SIG)
    P0_full = four_momentum(T_full, patch_full)[0]
    _, mass_full, _ = tolman_weak_ep(T_full, -0.01, patch_full)
    T_bare, spec_bare = build("coulomb_shell", r_out=1e4)
    patch_bare = spec_bare.slice_patch(SIG)
    P0_bare = four_momentum(T_bare, patch_bare)[0]
    _, mass_bare, _ = tolman_weak_ep(T_bare, -0.01, patch_bare)
    res_full = abs(mass_full - P0_full) / P0_full
    res_bare = abs(mass_bare - 2.0 * P0_bare) / P0_bare
    tn = trouton_noble_demo(math.pi / 4, 1.0, (1.0, 1.0, 1.0), 0.5)
    tn_res = float(
        np.max(np.abs(tn["transverse_direct"] - tn["transverse_closed_form"]))
    )
    ok = vir < 1e-12 and res_full < 1e-3 and res_bare < 1e-3 and tn_res < 1e-10
    verdict(
        10,
        ok,
        f"virial {vir:.1e} (<1e-12); passive mass: completed {res_full:.1e}, "
        f"bare-shell 2x pattern {res_bare:.1e} (<1e-3); transverse momentum "
        f"closed-form match {tn_res:.1e} (<1e-10)",
    )

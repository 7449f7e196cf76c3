import math

import numpy as np
import pytest

from laue_lab.checkers import (
    classical_laue_report,
    conservation_check,
    divergence_volume_integral,
    equivariance_report,
    exact_current_factory,
    fake_covariance_check,
    gauss_residual,
    geometric_laue_residuals,
    vector_divergence,
)
from laue_lab.cli import (
    CONSERVED_CURRENT,
    CURVED_METRIC,
    LAM,
    PHI,
    SOURCED_CURRENT,
    _classical_verdict,
    seeded_elements,
)
from laue_lab.exterior import Signature
from laue_lab.fields import (
    FormField,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    dual_form,
    lie_derivative,
)
from laue_lab.poincare import (
    PoincareElement,
    compose,
    rotation,
    standard_boost,
    translation,
)
from laue_lab.quadrature import HyperplanePatch, laue_integrals, transform_patch
from laue_lab.scenarios import build

from field_builders import box_spec, constant_field, make_spatial_bump, with_rule

SIG = Signature.mostly_minus(4)
ETA = MetricField.minkowski(4)


def blob_patch(N=48, L=6.0):
    return HyperplanePatch.time_slice(SIG, half_widths=L, grid=(N,))


def basis_vec(i):
    v = np.zeros(4)
    v[i] = 1.0
    return v


# --- classical boost reports ---


def test_dust_report_is_four_vector():
    T, spec = build("gaussian_dust")
    rep = classical_laue_report(T, spec, [0.6])
    beta, gamma = 0.6, 1.0 / math.sqrt(1 - 0.36)
    e = rep.entries[0]
    P0 = rep.P0
    assert np.allclose(e.P_direct, [gamma * P0, gamma * beta * P0, 0, 0], atol=1e-6 * P0)
    assert _classical_verdict(rep, 1e-3)[1]
    assert max(abs(v) for v in rep.stress.values()) / P0 < 1e-6


def test_bare_shell_four_thirds():
    T, spec = build("coulomb_shell")
    rep = classical_laue_report(T, spec, [0.3, 0.6])
    P0 = rep.P0
    for e in rep.entries:
        gamma = 1.0 / math.sqrt(1 - e.beta**2)
        assert abs(e.P_direct[1] - (4.0 / 3.0) * e.beta * gamma * P0) < 1e-3 * P0
        assert abs(e.P_direct[0] - gamma * (1 + e.beta**2 / 3.0) * P0) < 1e-3 * P0
        # the derived prediction tracks the direct integral...
        assert e.resid_prediction < 1e-3
        # ...and the vector law fails by the extra third
        assert e.resid_four_vector > 0.05
    assert not _classical_verdict(rep, 1e-3)[1]
    assert rep.stress["T11"] == pytest.approx(P0 / 3.0, rel=2e-3)


def test_energy_row_transcription_disagrees_on_shell():
    # the reported variant without the b^2 factor on the stress term does
    # not match direct integration whenever the stress integral survives
    T, spec = build("coulomb_shell")
    rep = classical_laue_report(T, spec, [0.6])
    e = rep.entries[0]
    assert abs(e.P_alt_prediction[0] - e.P_direct[0]) > 0.05 * rep.P0
    assert abs(e.P_predicted[0] - e.P_direct[0]) < 1e-3 * rep.P0


def test_completed_shell_restores_vector_law():
    T, spec = build("completed_shell")
    rep = classical_laue_report(T, spec, [0.3, 0.6, 0.9])
    law, ok = _classical_verdict(rep, 1e-3)
    assert ok and law < 1e-3


def test_tilted_box_fails_transversally():
    T, spec = build("uniform_field_box")
    rep = classical_laue_report(T, spec, [0.5])
    e = rep.entries[0]
    assert abs(e.P_direct[2] - (-0.25)) < 1e-10
    law, ok = _classical_verdict(rep, 1e-3)
    assert not ok and law > 1e-3
    assert max(abs(v) for v in rep.stress.values()) / rep.P0 > 0.5


def test_moving_dust_rejected():
    T, spec = build("moving_dust")
    with pytest.raises(ValueError, match="stationary"):
        classical_laue_report(T, spec, [0.5])


def test_classical_report_on_a_box_spec(conserved_blob):
    rep = classical_laue_report(conserved_blob, box_spec(6.0, 32), [0.4])
    assert _classical_verdict(rep, 1e-3)[1]


# --- change-of-variables control ---


def test_fake_covariance_identity_is_zero():
    T, spec = build("coulomb_shell")
    assert fake_covariance_check(T, spec, translation(np.zeros(4))) == 0.0


def test_fake_covariance_on_vector_law_violator():
    T, spec = build("coulomb_shell")
    g = standard_boost(1, 0.6)
    assert fake_covariance_check(T, spec, g) < 1e-6


def test_fake_covariance_random_elements(conserved_blob):
    rng = np.random.default_rng(11)
    for _ in range(3):
        g = compose(
            standard_boost(1, rng.uniform(-0.7, 0.7)),
            compose(
                rotation(1, 2, rng.uniform(0, 2 * math.pi)),
                translation(rng.standard_normal(4) * 0.3),
            ),
        )
        assert fake_covariance_check(conserved_blob, box_spec(6.0, 24), g) < 1e-10


# --- partial-integration identity on a box ---


def test_gauss_residual_compact_test_function(conserved_blob):
    phi = make_spatial_bump(width=1.5)
    assert gauss_residual(conserved_blob, phi, blob_patch(48)) < 1e-7


def test_gauss_residual_coordinate_function(conserved_blob):
    # phi = x^1: the interior integral is the stress integral, the boundary
    # term dies with the field; both vanish for a conserved compact system
    phi = ScalarField(lambda pts: np.asarray(pts)[..., 1])
    patch = blob_patch(48)
    # floor set by the Gaussian tail truncation at the box edge
    assert gauss_residual(conserved_blob, phi, patch) < 1e-6
    stresses = laue_integrals(conserved_blob, patch)
    assert max(abs(v) for v in stresses.values()) < 1e-5


def test_gauss_residual_detects_nonconservation():
    def func(points):
        points = np.asarray(points, float)
        out = np.zeros(points.shape[:-1] + (4, 4))
        r2 = np.sum(points[..., 1:] ** 2, axis=-1)
        out[..., 1, 1] = points[..., 1] * np.exp(-r2)  # d_1 T^{11} != 0
        return out

    T = SymTensorField(func)
    phi = make_spatial_bump(width=1.5)
    assert gauss_residual(T, phi, blob_patch(48)) > 1e-3


def test_gauss_residual_zero_tensor():
    zero = SymTensorField(lambda pts: np.zeros(np.asarray(pts).shape[:-1] + (4, 4)))
    assert gauss_residual(zero, make_spatial_bump(), blob_patch(16)) == 0.0


# --- geometric vanishing-integral checks ---


def spatial_current_from_blob(blob):
    # contraction with the axis-1 translation: J^b = -T^{1b}, divergence free
    def func(points):
        return -blob(points)[..., 1, :]

    return VectorField(func)


def probe_points(patch):
    """64 rule nodes spread evenly through the patch's node order, as points."""
    rule = patch.rule
    idx = np.linspace(0, rule.size - 1, 64).astype(int)
    return patch.points(np.concatenate([rule.tile(i, i + 1)[0] for i in idx]))


def symmetry_residual(J, U, g, patch, h):
    """max |L_U (dual of J)| on the probe points: U-symmetry of the current."""
    return float(np.max(np.abs(lie_derivative(dual_form(J, g), U, h)(probe_points(patch)))))


def test_geometric_flat_recovery(conserved_blob):
    J = spatial_current_from_blob(conserved_blob)
    U = constant_field(basis_vec(0))
    patch = blob_patch(64)
    # the theorem's hypotheses hold: J is conserved and U-symmetric
    assert np.max(np.abs(vector_divergence(J, ETA, 1e-3)(probe_points(patch)))) < 1e-5
    assert symmetry_residual(J, U, ETA, patch, 1e-3) < 1e-9
    out = geometric_laue_residuals(J, U, PHI, patch, ETA, h=1e-3)
    assert out.rA < 1e-5 and out.rB < 1e-5 and out.rC < 1e-5
    assert abs(out.rB - out.rC) < 1e-12


def test_geometric_residuals_stay_small_under_refinement(conserved_blob):
    # the three routes are discretely exact here, so refinement keeps them
    # at the quadrature floor; the O(h^2) channel lives in the derived
    # current's closedness (tested separately with mismatched steps)
    J = spatial_current_from_blob(conserved_blob)
    U = constant_field(basis_vec(0))
    coarse = geometric_laue_residuals(J, U, PHI, blob_patch(32), ETA, h=2e-3)
    fine = geometric_laue_residuals(J, U, PHI, blob_patch(64), ETA, h=1e-3)
    assert max(coarse.rA, coarse.rB, coarse.rC) < 1e-6
    assert max(fine.rA, fine.rB, fine.rC) < 1e-6


def test_geometric_curved_exact_current():
    g = CURVED_METRIC
    J, calJ = exact_current_factory(LAM, g, h=1e-3)
    U = constant_field(basis_vec(0))
    phi = make_spatial_bump(width=2.0)
    patch = blob_patch(48)
    assert symmetry_residual(J, U, g, patch, 1e-3) < 1e-10
    out = geometric_laue_residuals(J, U, phi, patch, g, h=1e-3)
    assert out.rA < 1e-6
    assert abs(out.rB - out.rC) < 1e-6


def test_geometric_constant_test_function(conserved_blob):
    J = spatial_current_from_blob(conserved_blob)
    U = constant_field(basis_vec(0))
    phi = ScalarField(lambda pts: np.full(np.asarray(pts).shape[:-1], 3.0))
    out = geometric_laue_residuals(J, U, phi, blob_patch(24), ETA)
    assert out.rA < 1e-12 and out.rB < 1e-12 and out.rC < 1e-12


def test_geometric_rejects_non_unit_normal_metric():
    def func(points):
        points = np.asarray(points, float)
        out = np.broadcast_to(np.diag([4.0, -1.0, -1.0, -1.0]), points.shape[:-1] + (4, 4))
        return out

    g_bad = MetricField(SIG, func)
    J = constant_field(basis_vec(0))
    with pytest.raises(ValueError, match="unit"):
        geometric_laue_residuals(J, J, make_spatial_bump(), blob_patch(8), g_bad)


# --- exact currents ---


def test_exact_current_zero_potential():
    zero = FormField(4, 2, lambda pts: np.zeros(np.asarray(pts).shape[:-1] + (6,)))
    J, calJ = exact_current_factory(zero, ETA)
    pts = np.random.default_rng(3).standard_normal((10, 4))
    assert np.max(np.abs(J(pts))) == 0.0


def test_exact_current_divergence_stencil_exact():
    # measuring the divergence with the same step as the factory cancels
    # the difference quotients exactly
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (30, 4))
    J, _ = exact_current_factory(LAM, ETA, h=1e-3)
    assert np.max(np.abs(vector_divergence(J, ETA, 1e-3)(pts))) < 1e-15


def test_exact_current_divergence_converges():
    # a mismatched step exposes the O(h^2) closedness defect; halving the
    # pair of steps quarters it
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (30, 4))
    res = []
    for h in (2e-3, 1e-3):
        J, _ = exact_current_factory(LAM, ETA, h=h)
        res.append(np.max(np.abs(vector_divergence(J, ETA, h / 2)(pts))))
    assert res[1] < 1e-6
    assert 2.5 < res[0] / res[1] < 6.0


def test_exact_current_time_symmetry():
    J, calJ = exact_current_factory(LAM, ETA)
    from laue_lab.fields import lie_derivative

    U = constant_field(basis_vec(0))
    pts = np.random.default_rng(6).uniform(-1, 1, (20, 4))
    assert np.max(np.abs(lie_derivative(calJ, U)(pts))) < 1e-10


def test_exact_current_round_trip():
    # the dual of J_flat reproduces the exterior derivative of the potential
    g = CURVED_METRIC
    J, calJ = exact_current_factory(LAM, g, h=1e-3)
    from laue_lab.exterior import hodge_comps

    pts = np.random.default_rng(7).uniform(-1, 1, (20, 4))
    gv = g(pts)
    ginv = np.linalg.inv(gv)
    eps = np.sqrt(np.abs(np.linalg.det(gv)))
    j_low = np.einsum("...ab,...b->...a", gv, J(pts))
    recon = hodge_comps(j_low, 4, 1, ginv, eps)
    assert np.max(np.abs(recon - calJ(pts))) < 1e-12


# --- momentum-map covariance ---


def test_full_equivariance_on_nonconserved_shell():
    T, spec = build("coulomb_shell")
    entries = equivariance_report(T, spec, np.zeros(4), seeded_elements(20240601)[:2], scale=0.5)
    for e in entries:
        assert e.full_residual < 1e-9


def test_full_equivariance_identity():
    T, spec = build("gaussian_dust")
    entries = equivariance_report(T, spec, np.zeros(4), [("e", translation(np.zeros(4)))])
    assert entries[0].full_residual < 1e-14


def test_restricted_equivariance_translation_shift():
    T, spec = build("completed_shell", r_out=3e4)
    d = 0.4
    g = translation(d * basis_vec(1))
    entries = equivariance_report(
        T, spec, np.zeros(4), [("shift", g)], scale=1.0, restricted=True
    )
    e = entries[0]
    assert e.restricted_residual is not None
    assert e.restricted_residual < 1e-2
    assert e.full_residual < 1e-9


def test_restricted_equivariance_requires_conserved():
    T, spec = build("coulomb_shell")
    with pytest.raises(ValueError, match="conserved"):
        equivariance_report(
            T, spec, np.zeros(4), seeded_elements(20240601)[:1], restricted=True
        )


def test_equivariance_rejects_non_isometry():
    from laue_lab.poincare import PoincareElement

    T, spec = build("gaussian_dust")
    bad = PoincareElement(np.zeros(4), 2.0 * np.eye(4))
    with pytest.raises(ValueError, match="isometry"):
        equivariance_report(T, spec, np.zeros(4), [("bad", bad)])


# --- charge conservation between slices ---


def static_compact_current():
    def func(points):
        points = np.asarray(points, float)
        out = np.zeros(points.shape[:-1] + (4,))
        r2 = np.sum(points[..., 1:] ** 2, axis=-1)
        out[..., 0] = np.exp(-r2)
        return out

    return VectorField(func)


def test_conservation_static_current():
    J = static_compact_current()
    p1 = HyperplanePatch.time_slice(SIG, t=0.0, half_widths=6.0, grid=(40,))
    p2 = HyperplanePatch.time_slice(SIG, t=1.3, half_widths=6.0, grid=(40,))
    out = conservation_check(J, p1, p2, ETA)
    assert out.edge_current <= 1e-10
    assert out.difference < 1e-14


def test_conservation_time_dependent_current():
    p1 = HyperplanePatch.time_slice(SIG, t=0.0, half_widths=6.0, grid=(48,))
    p2 = HyperplanePatch.time_slice(SIG, t=0.7, half_widths=6.0, grid=(48,))
    out = conservation_check(CONSERVED_CURRENT, p1, p2, ETA)
    assert out.edge_current <= 1e-10
    assert out.difference < 1e-8


def test_conservation_source_matches_volume_integral():
    # genuine source: J^0 = f(t) rho(x), spatial components zero
    J = SOURCED_CURRENT
    t0, t1 = 0.0, 0.9
    p1 = HyperplanePatch.time_slice(SIG, t=t0, half_widths=6.0, grid=(32,))
    p2 = HyperplanePatch.time_slice(SIG, t=t1, half_widths=6.0, grid=(32,))
    out = conservation_check(J, p1, p2, ETA)
    volume = divergence_volume_integral(J, p1, t0, t1, ETA, n_t=32)
    signed = out.charge_2 - out.charge_1
    assert volume == pytest.approx(signed, rel=1e-4)
    assert abs(signed) > 1e-2  # the source is really there


@pytest.mark.parametrize("n_t", [0, 1, 3, -2])
def test_divergence_volume_integral_needs_even_interval_count(n_t):
    p1 = HyperplanePatch.time_slice(SIG, t=0.0, half_widths=1.0, grid=(4,))
    with pytest.raises(ValueError, match="Simpson"):
        divergence_volume_integral(static_compact_current(), p1, 0.0, 1.0, ETA, n_t=n_t)


@pytest.mark.parametrize("rule", ["with_rule", "mapped"])
@pytest.mark.parametrize("check", ["gauss_residual", "conservation_check"])
def test_box_only_checks_reject_other_rules(check, rule, conserved_blob):
    # an explicit or a mapped rule has no box faces or edge cells, so a
    # boundary sum or a support verdict on it would read a boundary it lacks
    box = HyperplanePatch.time_slice(SIG, t=0.0, half_widths=1.0, grid=(16,))
    other = {
        "with_rule": lambda: with_rule(box, *box.nodes_weights()),
        "mapped": lambda: build("gaussian_dust")[1].adapted_slice_patch(
            standard_boost(1, 0.3), SIG, scale=0.25),
    }[rule]()
    calls = {
        "gauss_residual": [lambda: gauss_residual(conserved_blob, make_spatial_bump(), other)],
        "conservation_check": [
            lambda: conservation_check(static_compact_current(), other, box, ETA),
            lambda: conservation_check(static_compact_current(), box, other, ETA),
        ],
    }[check]
    for call in calls:
        with pytest.raises(ValueError, match="default box rule"):
            call()


@pytest.mark.parametrize(
    "g",
    [rotation(1, 2, 0.7), standard_boost(1, 0.5),
     PoincareElement(np.zeros(4), np.diag([-1.0, 1.0, 1.0, 1.0]))],
    ids=["rotation", "boost", "time_reversal"],
)
def test_gauss_residual_rejects_a_tilted_box(g):
    # the faces sit on the rule's tangent axes but the integrands read the
    # chart's spatial slots, so on a moved box the two sides measure different
    # things: for a constant T and a linear phi, where the identity holds
    # exactly, an unchecked residual came out 28, 5.0 and 1.0e2 on these
    # patches against 1.5e-12 on the box
    T = SymTensorField(lambda p: np.broadcast_to(np.add.outer(np.arange(4.0), np.arange(4.0)),
                                                 p.shape[:-1] + (4, 4)))
    phi = ScalarField(lambda p: p[..., 1] + p[..., 2] / 2)
    box = HyperplanePatch.time_slice(SIG, half_widths=1.0, grid=(8,))
    assert gauss_residual(T, phi, box) < 1e-10
    with pytest.raises(ValueError, match="time slice in the chart's own frame"):
        gauss_residual(T, phi, transform_patch(g, box))


def test_conservation_void_when_support_leaks():
    J = static_compact_current()
    p1 = HyperplanePatch.time_slice(SIG, t=0.0, half_widths=1.0, grid=(16,))
    p2 = HyperplanePatch.time_slice(SIG, t=0.5, half_widths=1.0, grid=(16,))
    out = conservation_check(J, p1, p2, ETA)
    assert out.edge_current > 1e-10

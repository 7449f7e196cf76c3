import math
import os
import threading

import numpy as np
import pytest

from laue_lab.exterior import (
    PForm,
    Signature,
    hodge_comps,
    insert,
    multi_indices,
    volume_form,
)
from laue_lab.checkers import classical_laue_report, gauss_residual
from laue_lab.fields import (
    FormField,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    _shift,
    active_transform,
    boost_emt_analytic,
)
from laue_lab.poincare import (
    _matvec,
    bivector_to_matrix,
    coad,
    compose,
    invert,
    pairing,
    rotation,
    standard_boost,
    translation,
)
from laue_lab import quadrature
from laue_lab.quadrature import (
    BLOCK,
    LAUE_NAMES,
    TILE,
    HyperplanePatch,
    ProductRule,
    _flux_moments,
    _measure_factor,
    _pair_tree,
    flux_charge,
    flux_charge_normal_form,
    four_momentum,
    integrate_form,
    integrate_scalar_density,
    laue_integrals,
    map_rule_affine,
    momentum_basis,
    momentum_map,
    pairwise_sum,
    patch_moments,
    spherical_rule,
    transform_patch,
)
from laue_lab.scenarios import _EDGE_NUDGE, SCENARIO_NAMES, build

from field_builders import box_spec, make_static_dust, with_rule

SIG = Signature.mostly_minus(4)
ETA = MetricField.minkowski(4)
RNG = np.random.default_rng(777)


def unit_cube_slice(N=16, L=0.5):
    return HyperplanePatch.time_slice(SIG, half_widths=L, grid=(N,))


def const_vector(v):
    v = np.asarray(v, float)
    return VectorField(
        lambda pts: np.broadcast_to(v, np.asarray(pts).shape[:-1] + v.shape)
    )


# --- patch construction ---


def test_time_slice_patch_valid():
    p = unit_cube_slice()
    assert p.normal_square() == pytest.approx(1.0)
    assert p.frame_phase() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "half_widths, grid",
    [([1.0, 0.0, 1.0], (4, 4, 4)), ([1.0, -0.5, 1.0], (4, 4, 4)),
     ([1.0, math.inf, 1.0], (4, 4, 4)), ([1.0, math.nan, 1.0], (4, 4, 4)),
     ([1.0] * 3, (4, 0, 4)), ([1.0] * 3, (4, 4))],
    ids=["zero_half_width", "negative_half_width", "inf_half_width", "nan_half_width",
         "zero_cells", "grid_length"],
)
def test_box_rule_refuses_a_bad_box(half_widths, grid):
    with pytest.raises(ValueError, match="half widths must be positive"):
        ProductRule.box(half_widths, grid)
    with pytest.raises(ValueError, match="half widths must be positive"):
        HyperplanePatch.time_slice(SIG, half_widths=half_widths, grid=grid)


def test_null_normal_rejected():
    null = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)
    frame = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                      [1.0, -1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="null"):
        HyperplanePatch(np.zeros(4), frame, null, SIG, ProductRule.box(np.ones(3), (4, 4, 4)))


def test_non_orthogonal_frame_rejected():
    frame = np.eye(4)[1:].copy()
    frame[0, 0] = 0.3  # no longer orthogonal to e0
    with pytest.raises(ValueError):
        HyperplanePatch(
            np.zeros(4), frame, np.eye(4)[0], SIG, ProductRule.box(np.ones(3), (4, 4, 4))
        )


# --- induced measure ---


def _on_frame(mu, patch):
    """The 3-form ``mu`` evaluated on the patch's tangent frame."""
    F = patch.tangent_frame
    return sum(c * np.linalg.det(F[:, list(I)]) for c, I in zip(mu.comps, multi_indices(4, 3)))


def test_time_slice_measure_is_spatial_volume():
    patch = unit_cube_slice()
    expected = _on_frame(PForm.basis(4, (1, 2, 3)), patch)
    assert expected == pytest.approx(1.0)
    assert _measure_factor(patch) == pytest.approx(expected)


def test_spacelike_normal_measure_sign():
    # patch with normal e1 (a "timelike patch"): the rule is -(insert n eps)
    frame = np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    )
    patch = HyperplanePatch(
        np.zeros(4), frame, np.eye(4)[1], SIG, ProductRule.box(np.ones(3), (4, 4, 4))
    )
    oracle = -1.0 * insert(np.eye(4)[1], volume_form(4))
    assert _measure_factor(patch) == pytest.approx(_on_frame(oracle, patch))


def test_boosted_patch_preserves_volume():
    # integral of the constant density 1 over the image equals the original
    patch = unit_cube_slice(N=8)
    g = standard_boost(1, 0.6)
    image = transform_patch(g, patch)
    one = lambda pts: np.ones(np.asarray(pts).shape[:-1])
    v0 = integrate_scalar_density(one, patch, ETA)
    v1 = integrate_scalar_density(one, image, ETA)
    assert v1 == pytest.approx(v0, abs=1e-12)


# --- integrate_form ---


def test_constant_density_over_box():
    patch = HyperplanePatch.time_slice(SIG, half_widths=(0.5, 1.0, 2.0), grid=(3, 4, 5))
    c = 2.7

    def omega(points):
        out = np.zeros(np.asarray(points).shape[:-1] + (4,))
        out[..., list(multi_indices(4, 3)).index((1, 2, 3))] = c
        return out

    got = integrate_form(omega, patch)
    assert got == pytest.approx(c * 1.0 * 2.0 * 4.0, rel=1e-12)


def test_gaussian_density_matches_error_function_oracle():
    sigma = 0.7
    patch = HyperplanePatch.time_slice(SIG, half_widths=6 * sigma, grid=(64,))

    def f(points):
        r2 = np.sum(np.asarray(points)[..., 1:] ** 2, axis=-1)
        return np.exp(-r2 / sigma**2)

    got = integrate_scalar_density(f, patch, ETA)
    exact = (math.sqrt(math.pi) * sigma * math.erf(6.0)) ** 3
    assert got == pytest.approx(exact, rel=1e-6)


def test_odd_integrand_sums_to_zero():
    patch = unit_cube_slice(N=10)

    def f(points):
        points = np.asarray(points)
        return points[..., 1] * np.exp(-np.sum(points[..., 1:] ** 2, axis=-1))

    assert abs(integrate_scalar_density(f, patch, ETA)) < 1e-14


def test_non_finite_sample_aborts():
    patch = unit_cube_slice(N=4)

    def bad(points):
        out = np.ones(np.asarray(points).shape[:-1])
        out[0] = np.nan
        return out

    with pytest.raises(FloatingPointError):
        integrate_scalar_density(bad, patch, ETA)


def test_midpoint_refinement_ratio():
    # smooth non-periodic integrand: error scales like N^-2
    def f(points):
        points = np.asarray(points)
        return np.cos(points[..., 1]) * np.cos(points[..., 2]) * np.cos(points[..., 3])

    exact = (2.0 * math.sin(1.0)) ** 3
    errs = []
    for N in (8, 16):
        patch = HyperplanePatch.time_slice(SIG, half_widths=1.0, grid=(N,))
        errs.append(abs(integrate_scalar_density(f, patch, ETA) - exact))
    assert 3.0 < errs[0] / errs[1] < 5.0


# --- flux charges ---


def test_time_current_flux_is_volume():
    patch = unit_cube_slice(N=6)
    q = flux_charge(const_vector([1.0, 0.0, 0.0, 0.0]), patch, ETA)
    assert q == pytest.approx(1.0, rel=1e-12)


def test_tangential_current_flux_vanishes():
    patch = unit_cube_slice(N=6)
    q = flux_charge(const_vector([0.0, 1.0, 0.0, 0.0]), patch, ETA)
    assert abs(q) < 1e-14


def test_gaussian_charge_matches_oracle():
    rho0, sigma = 1.3, 0.5
    patch = HyperplanePatch.time_slice(SIG, half_widths=8 * sigma, grid=(64,))

    def j(points):
        points = np.asarray(points)
        out = np.zeros(points.shape[:-1] + (4,))
        out[..., 0] = rho0 * np.exp(-np.sum(points[..., 1:] ** 2, axis=-1) / sigma**2)
        return out

    q = flux_charge(VectorField(j), patch, ETA)
    assert q == pytest.approx(rho0 * math.pi**1.5 * sigma**3, rel=1e-6)


def test_flat_metric_dual_matches_general_path():
    # the flat shortcut against the per-point inv/det path fed the same eta
    def eta_func(pts):
        return np.broadcast_to(SIG.matrix, np.asarray(pts).shape[:-1] + (4, 4))

    general = MetricField(SIG, eta_func)
    assert ETA.flat and not general.flat
    pts = RNG.standard_normal((7, 4))
    ginv_flat, eps_flat = SIG.matrix, ETA.eps_top(pts)
    gv = general(pts)
    ginv_gen, eps_gen = np.linalg.inv(gv), np.sqrt(np.abs(np.linalg.det(gv)))
    for p in (1, 3):
        comps = RNG.standard_normal((7, math.comb(4, p)))
        np.testing.assert_allclose(
            hodge_comps(comps, 4, p, ginv_flat, eps_flat),
            hodge_comps(comps, 4, p, ginv_gen, eps_gen),
            rtol=1e-15, atol=0.0,
        )
    J = VectorField(
        lambda pts: np.exp(-np.sum(np.asarray(pts) ** 2, axis=-1))[..., None]
        * np.arange(1.0, 5.0)
    )
    for patch in (
        unit_cube_slice(N=8),
        transform_patch(standard_boost(1, 0.5), unit_cube_slice(N=8)),
    ):
        assert flux_charge(J, patch, ETA) == pytest.approx(
            flux_charge(J, patch, general), rel=1e-14
        )


def test_flux_code_paths_agree():
    rng = np.random.default_rng(4)

    def j(points):
        points = np.asarray(points)
        base = np.exp(-np.sum(points[..., 1:] ** 2, axis=-1))
        out = np.stack([base * (k + 1) for k in range(4)], axis=-1)
        out[..., 2] *= np.sin(points[..., 1])
        return out

    J = VectorField(j)
    for patch in (
        unit_cube_slice(N=12),
        transform_patch(standard_boost(1, 0.5), unit_cube_slice(N=12)),
    ):
        a = flux_charge(J, patch, ETA)
        b = flux_charge_normal_form(J, patch, ETA)
        assert a == pytest.approx(b, abs=1e-10)


# --- four momentum and stress integrals ---


def test_four_momentum_of_gaussian_dust():
    rho0, sigma = 2.0, 0.6
    dust = make_static_dust(rho0, sigma)
    patch = HyperplanePatch.time_slice(SIG, half_widths=8 * sigma, grid=(64,))
    P = four_momentum(dust, patch)
    assert P[0] == pytest.approx(rho0 * math.pi**1.5 * sigma**3, rel=1e-6)
    assert np.max(np.abs(P[1:])) < 1e-12


def test_four_momentum_of_zero_tensor():
    zero = SymTensorField(lambda pts: np.zeros(np.asarray(pts).shape[:-1] + (4, 4)))
    P = four_momentum(zero, unit_cube_slice())
    assert np.allclose(P, 0.0)


def test_four_momentum_equals_row_current_fluxes():
    from laue_lab.cli import CONSERVED_BLOB as T

    patch = HyperplanePatch.time_slice(SIG, half_widths=6.0, grid=(48,))
    P = four_momentum(T, patch)
    for a in range(4):
        row = VectorField(lambda pts, a=a: T(pts)[..., a, :])
        assert flux_charge(row, patch, ETA) == pytest.approx(P[a], abs=1e-10)


def test_four_momentum_reads_only_the_flux():
    # a field that yields its normal flux but no components integrates to the
    # plain field's P, on a time slice and on a boosted one
    dust = make_static_dust(1.0, 0.7)

    def no_components(points):
        raise AssertionError("four_momentum sampled the components")

    flux_only = SymTensorField(no_components, flux_func=dust.flux)
    patch = HyperplanePatch.time_slice(SIG, half_widths=4.0, grid=(24,))
    for p in (patch, transform_patch(standard_boost(1, 0.4), patch)):
        P = four_momentum(flux_only, p)
        assert P[0] > 0.5 and np.array_equal(P, four_momentum(dust, p))


def test_laue_integrals_gaussian_dust():
    dust = make_static_dust()
    patch = HyperplanePatch.time_slice(SIG, half_widths=8.0, grid=(48,))
    out = laue_integrals(dust, patch)
    assert set(out) == set(LAUE_NAMES)
    assert max(abs(v) for v in out.values()) < 1e-12


def test_laue_integrals_need_time_slice():
    patch = transform_patch(standard_boost(1, 0.5), unit_cube_slice())
    with pytest.raises(ValueError):
        laue_integrals(make_static_dust(), patch)


# --- patch transforms ---


def test_translation_shifts_patch():
    patch = unit_cube_slice()
    d = np.array([0.0, 0.3, -0.2, 0.1])
    image = transform_patch(translation(d), patch)
    assert np.allclose(image.origin, patch.origin + d)
    assert np.allclose(image.tangent_frame, patch.tangent_frame)


def test_boost_tilts_normal():
    g = standard_boost(1, 0.6)
    image = transform_patch(g, unit_cube_slice())
    assert np.allclose(image.normal, g.A @ np.eye(4)[0])
    assert image.normal_square() == pytest.approx(1.0, abs=1e-12)


def test_transform_round_trip():
    g = compose(standard_boost(1, 0.4), rotation(1, 3, 0.8))
    patch = unit_cube_slice()
    back = transform_patch(invert(g), transform_patch(g, patch))
    assert np.max(np.abs(back.origin - patch.origin)) < 1e-12
    assert np.max(np.abs(back.tangent_frame - patch.tangent_frame)) < 1e-12
    assert np.max(np.abs(back.normal - patch.normal)) < 1e-12


def test_change_of_variables_exact_on_nodes():
    # integral over the image equals the integral of the pulled-back form,
    # to roundoff, because image nodes are exactly node images
    g = compose(standard_boost(1, 0.5), translation(np.array([0.1, 0.2, 0.0, -0.3])))
    patch = unit_cube_slice(N=6)
    direction = np.array([0.7, -1.1, 0.4, 2.2])

    def omega_func(points):
        points = np.asarray(points)
        base = np.exp(-np.sum(points[..., :] ** 2, axis=-1))
        return base[..., None] * direction

    # the pullback along x -> A x + a: omega(A x + a) times the 3x3 minors of A
    idxs = multi_indices(4, 3)
    D = np.array([[np.linalg.det(g.A[np.ix_(J, I)]) for I in idxs] for J in idxs])
    pulled_back = FormField(4, 3, lambda points: omega_func(g.apply(points)) @ D)
    lhs = integrate_form(FormField(4, 3, omega_func), transform_patch(g, patch))
    rhs = integrate_form(pulled_back, patch)
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_transform_patch_rejects_non_isometry():
    from laue_lab.poincare import PoincareElement

    scaling = PoincareElement(np.zeros(4), 2.0 * np.eye(4))
    with pytest.raises(ValueError):
        transform_patch(scaling, unit_cube_slice())


# --- momentum map ---


def test_momentum_map_centered_dust():
    dust = make_static_dust(1.0, 0.6)
    patch = HyperplanePatch.time_slice(SIG, half_widths=6.0, grid=(48,))
    mv = momentum_map(dust, patch, np.zeros(4))
    P0 = math.pi**1.5 * 0.6**3
    assert mv.P[0] == pytest.approx(P0, rel=1e-6)
    assert np.max(np.abs(mv.P[1:])) < 1e-12
    assert np.max(np.abs(mv.M)) < 1e-10


def test_momentum_map_translation_sector_matches_four_momentum():
    from laue_lab.cli import CONSERVED_BLOB as T

    patch = HyperplanePatch.time_slice(SIG, half_widths=6.0, grid=(32,))
    mv = momentum_map(T, patch, np.zeros(4))
    assert np.allclose(mv.P, four_momentum(T, patch), atol=1e-12)


def test_momentum_map_shifted_dust_matches_coadjoint_of_centered():
    d = 0.4
    sigma = 0.5
    dust = make_static_dust(1.0, sigma)

    def shifted(points):
        points = np.asarray(points, float).copy()
        points[..., 1] -= d
        return dust(points)

    dust_shifted = SymTensorField(shifted)
    patch = HyperplanePatch.time_slice(SIG, half_widths=6.0, grid=(64,))
    mv_shifted = momentum_map(dust_shifted, patch, np.zeros(4))
    mv_centered = momentum_map(dust, patch, np.zeros(4))
    shift = np.array([0.0, d, 0.0, 0.0])
    predicted = coad(translation(shift), mv_centered, SIG)
    assert np.max(np.abs(mv_shifted.components() - predicted.components())) < 1e-6


def test_momentum_map_zero_tensor():
    zero = SymTensorField(lambda pts: np.zeros(np.asarray(pts).shape[:-1] + (4, 4)))
    mv = momentum_map(zero, unit_cube_slice(), np.zeros(4))
    assert np.allclose(mv.components(), 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("convention", ["mostly_minus", "mostly_plus"])
def test_momentum_map_is_the_pairing_resolution_of_the_generator_fluxes(n, convention):
    # the oracle: the flux of each basis generator's current, solved against
    # the Gram matrix of the pairing; array_equal holds -0.0 equal to 0.0
    sig = getattr(Signature, convention)(n)
    eta = sig.matrix
    rng = np.random.default_rng(n)
    S = rng.normal(size=(n, n))
    S += S.T

    def bump(points):
        x = np.asarray(points, float)
        return np.exp(-np.sum(x * x, axis=-1))[..., None, None] * (S + x[..., :, None] * x[..., None, :])

    T = SymTensorField(bump)
    g = compose(translation(rng.normal(scale=0.3, size=n)), standard_boost(1, 0.3, n))
    patch = transform_patch(g, HyperplanePatch.time_slice(sig, half_widths=2.0, grid=(6,)))
    origin = rng.normal(size=n)
    mv = momentum_map(T, patch, origin)

    basis = momentum_basis(n)
    F0, F1 = _flux_moments(T, patch, eta @ patch.normal, origin)
    fluxes = np.array([eta @ xi.P @ F0 + np.sum(eta @ bivector_to_matrix(xi.M, sig) * F1) for xi in basis])
    gram = np.array([[pairing(x, y, sig) for y in basis] for x in basis])
    assert np.max(np.abs(fluxes)) > 0.1
    assert np.array_equal(mv.components(), np.linalg.solve(gram, fluxes))


# --- spherical rules ---


def test_spherical_rule_inverse_quartic_tail():
    nodes, weights = spherical_rule([(1.0, 1e3, 160, "log")], 8, 8)
    vals = 1.0 / np.sum(nodes**2, axis=-1) ** 2
    got = pairwise_sum(vals * weights)
    exact = 4.0 * math.pi * (1.0 - 1e-3)
    assert got == pytest.approx(exact, rel=1e-6)


def test_spherical_rule_gaussian():
    sigma = 1.0
    nodes, weights = spherical_rule([(1e-6, 8.0, 200, "linear")], 4, 4)
    vals = np.exp(-np.sum(nodes**2, axis=-1) / sigma**2)
    got = pairwise_sum(vals * weights)
    assert got == pytest.approx(math.pi**1.5 * sigma**3, rel=1e-8)


def test_spherical_rule_angular_second_moment():
    # direction-squared weight: each Cartesian second moment is 1/3 of the
    # radial integral; phi-midpoint is trig-exact, u-midpoint is O(N^-2)
    nodes, weights = spherical_rule([(1.0, 2.0, 40, "linear")], 64, 16)
    r2 = np.sum(nodes**2, axis=-1)
    radial = pairwise_sum(weights / r2**2)
    for k in range(3):
        moment = pairwise_sum(nodes[:, k] ** 2 / r2**3 * weights)
        assert moment == pytest.approx(radial / 3.0, rel=1e-3)


def test_spherical_rule_radial_weights_are_simpson():
    nodes, weights = spherical_rule([(1.0, 2.0, 4, "linear")], 1, 1)
    r = np.linspace(1.0, 2.0, 5)
    expected = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) * 0.25 / 3.0 * np.ones(5) * r**2
    assert np.array_equal(weights, expected * (2.0 * (2.0 * math.pi)))
    assert np.array_equal(np.linalg.norm(nodes, axis=-1), r)


@pytest.mark.parametrize("n_r", [0, 3, -2])
def test_spherical_rule_needs_even_interval_count(n_r):
    with pytest.raises(ValueError, match="Simpson"):
        spherical_rule([(1.0, 2.0, n_r, "linear")], 4, 4)


def test_map_rule_affine_preserves_integrals():
    nodes, weights = spherical_rule([(1e-6, 5.0, 100, "linear")], 16, 16)
    S = np.diag([2.0, 1.0, 0.5])
    shift = np.array([0.1, -0.2, 0.3])
    mapped, mw = map_rule_affine(nodes, weights, S, shift)
    # integral of f(S x + shift) d^3x equals integral of f(u) d^3u / |det S|
    vals = np.exp(-np.sum((mapped @ S.T + shift) ** 2, axis=-1))
    got = pairwise_sum(vals * mw)
    assert got == pytest.approx(math.pi**1.5 / abs(np.linalg.det(S)), rel=1e-6)


def test_pairwise_sum_matches_numpy():
    x = RNG.standard_normal(10_000)
    assert pairwise_sum(x) == pytest.approx(float(np.sum(x)), abs=1e-10)


def test_custom_rule_patch_momentum():
    # radial rule mounted on a time slice reproduces the box result
    dust = make_static_dust(1.0, 0.7)
    nodes, weights = spherical_rule([(1e-9, 7.0, 160, "linear")], 32, 32)
    patch = with_rule(HyperplanePatch.time_slice(SIG, half_widths=7.0, grid=(8,)), nodes, weights)
    P = four_momentum(dust, patch)
    assert P[0] == pytest.approx(math.pi**1.5 * 0.7**3, rel=1e-7)


def tile_count(patch):
    """Tiles in one pass over the patch; each tiled test needs several,
    the last of them partial."""
    m = len(patch.nodes_weights()[1])
    assert m > TILE and m % TILE, f"{m} nodes must span several {TILE}-node tiles, the last partial"
    return -(-m // TILE)


def test_tiles_run_on_the_main_thread(monkeypatch):
    # neither a pool setting nor four usable CPUs starts a thread: every
    # tile is sampled, one at a time, on the calling thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setenv("LAUE_LAB_THREADS", "4")
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    on_main = []

    def f(points):
        on_main.append(threading.current_thread() is threading.main_thread())
        return np.cos(np.asarray(points)[..., 1])

    patch = HyperplanePatch.time_slice(SIG, half_widths=1.0, grid=(47,))
    integrate_scalar_density(f, patch, ETA)
    assert on_main == [True] * tile_count(patch)
    assert started == []


# --- the streamed sample-and-reduce pass ---


def recursive_pairwise_sum(values):
    """The recursive form of the fixed-order tree, kept as the reference."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        return 0.0
    block = 128
    if values.size <= block:
        return float(np.add.reduce(values))
    partials = [
        recursive_pairwise_sum(values[i : i + block]) for i in range(0, values.size, block)
    ]
    return reference_pair_tree(partials)


def reference_pair_tree(partials):
    """The tree over block sums, one numpy pair sum at a time."""
    arr = np.array(partials, dtype=float)
    while arr.size > 1:
        half = arr.size // 2
        head = arr[: 2 * half].reshape(half, 2).sum(axis=1)
        arr = np.concatenate([head, arr[2 * half :]])
    return float(arr[0])


@pytest.mark.parametrize("m", [0, 1, 127, 128, 129, 65_541, 131_077, 2 * TILE + 5])
def test_pairwise_sum_keeps_the_recursive_tree(m):
    rng = np.random.default_rng(m)
    cols = rng.standard_normal((m, 3)) * np.exp(rng.uniform(-20.0, 20.0, (m, 3)))
    ref = [recursive_pairwise_sum(cols[:, j]) for j in range(3)]
    assert [pairwise_sum(cols[:, j]) for j in range(3)] == ref  # bitwise
    got = pairwise_sum(cols)
    assert got.shape == (3,)
    assert list(got) == ref  # column input, bitwise


def signed_zero_data(kind, shape, rng):
    """Wide-range values, blocks of -0.0, or a random mix of +0.0 and -0.0."""
    if kind == "wide":
        return rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
    if kind == "minus_zero":
        return np.full(shape, -0.0)
    return rng.choice([0.0, -0.0], shape)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


ZERO_KINDS = ["wide", "minus_zero", "mixed_zeros"]


@pytest.mark.parametrize("cols", [1, 3, 20])
@pytest.mark.parametrize("kind", ZERO_KINDS)
def test_pair_tree_keeps_signed_zeros(kind, cols):
    # == cannot tell -0.0 from 0.0; the bytes can
    rng = np.random.default_rng(cols)
    for count in [*range(1, 141), 1023, 4097]:
        partials = signed_zero_data(kind, (cols, count), rng)
        ref = [reference_pair_tree(row) for row in partials]
        assert bits(_pair_tree(partials)) == bits(ref), count


@pytest.mark.parametrize("cols", [1, 3, 20])
@pytest.mark.parametrize("kind", ZERO_KINDS)
def test_pairwise_sum_keeps_signed_zeros(kind, cols):
    rng = np.random.default_rng(cols)
    # block counts 1-140, 1023 and 4097, the last block partial for odd counts
    for count in [*range(1, 141), 1023] + ([4097] if cols < 20 else []):
        m = count * BLOCK - (count % 2) * 37
        values = signed_zero_data(kind, (m, cols), rng)
        ref = [recursive_pairwise_sum(values[:, j]) for j in range(cols)]
        assert bits(pairwise_sum(values)) == bits(ref), count
        assert bits(pairwise_sum(values[:, 0])) == bits(ref[0]), count


def multi_tile_patch():
    # a boosted, shifted 47^3 box: 103,823 nodes in several tiles, the last
    # partial, and a measure factor and frame that are not exactly the
    # coordinate ones
    g = compose(standard_boost(1, 0.3), translation([0.1, 0.2, -0.1, 0.05]))
    return transform_patch(g, HyperplanePatch.time_slice(SIG, half_widths=2.0, grid=(47,)))


def test_patch_moments_bitwise_equal_to_whole_array_tree():
    dust = make_static_dust(1.0, 0.7)
    calls = []

    def T(points):
        calls.append(len(points))
        return dust(points)

    T = SymTensorField(T)
    patch = multi_tile_patch()
    origin = np.array([0.0, 0.3, -0.2, 0.1])
    n_low = SIG.matrix @ patch.normal
    M0 = patch_moments(T, patch)
    F0, F1 = _flux_moments(T, patch, n_low, origin)
    assert len(calls) == 2 * tile_count(patch)  # one call per tile in each of two passes

    nodes, weights = patch.nodes_weights()
    pts = patch.points(nodes)
    Tv = dust(pts)
    w = weights * patch.frame_phase()  # timelike normal
    wj = np.einsum("mab,b->am", Tv, n_low).T * w[:, None]  # the per-node flux, weighted
    M0_ref = [[recursive_pairwise_sum(Tv[:, a, b] * w) for b in range(4)] for a in range(4)]
    F0_ref = [recursive_pairwise_sum(wj[:, a]) for a in range(4)]
    F1_ref = [
        [recursive_pairwise_sum(wj[:, a] * (pts[:, c] - origin[c])) for c in range(4)]
        for a in range(4)
    ]
    assert np.array_equal(M0, np.array(M0_ref))
    assert np.array_equal(F0, np.array(F0_ref))
    assert np.array_equal(F1, np.array(F1_ref))


def whole_moment_reference(T, patch):
    """The 16 sums w T^{ab} of the whole rule, each by the recursive tree."""
    nodes, weights = patch.nodes_weights()
    Tv = T(patch.points(nodes))
    w = weights * _measure_factor(patch)
    return np.array([[recursive_pairwise_sum(Tv[:, a, b] * w) for b in range(4)] for a in range(4)])


def symmetric_moment_case(case):
    if case == "dust_multi_tile":
        return make_static_dust(1.0, 0.7), multi_tile_patch()
    T, spec = build(case)
    return T, spec.slice_patch(SIG, scale=0.25)


@pytest.mark.parametrize("case", [*SCENARIO_NAMES, "dust_multi_tile"])
def test_patch_moments_reduce_only_the_upper_triangle(monkeypatch, case):
    # a symmetric T has n(n+1)/2 = 10 independent rows; only those are
    # weighted and summed, and the mirror is bitwise the 16-entry reference
    T, patch = symmetric_moment_case(case)
    columns = []

    def recording_sum(values):
        columns.append(np.shape(values)[1])
        return pairwise_sum(values)

    monkeypatch.setattr(quadrature, "pairwise_sum", recording_sum)
    M0 = patch_moments(SymTensorField(T), patch)
    m = len(patch.nodes_weights()[1])
    assert columns == [10] * -(-m // TILE)
    assert bits(M0) == bits(M0.T)
    assert np.array_equal(M0, whole_moment_reference(T, patch))


def test_tile_is_a_whole_subtree_of_the_pairwise_tree():
    blocks = TILE // BLOCK
    assert TILE % BLOCK == 0 and blocks & (blocks - 1) == 0  # a power of two


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# a scale-0.4 shell has 361 directions a radius and a scale-2 one 9,216 > TILE,
# so tiles of 128 and of TILE start inside a radius and larger ones span radii
@pytest.mark.parametrize("tile, scale", [(128, 0.4), (1024, 0.4), (8192, 2.0), (65536, 2.0)],
                         ids=["128", "1024", "8192", "65536"])
def test_reduce_patch_bitwise_at_any_tile_size(monkeypatch, tile, scale):
    # reference at the module's own tile size; each tile size must give the
    # same bits, since a power-of-two tile is a subtree of the same tree
    dust = make_static_dust(1.0, 0.7)
    reads = []

    def source(points):
        reads.append(len(points))
        return dust(points)

    box = multi_tile_patch()
    assert len(box.nodes_weights()[1]) % BLOCK
    shell, spec = build("completed_shell")
    g = compose(rotation(1, 2, 0.7), compose(standard_boost(3, -0.4), translation([0.2, -0.1, 0.3, 0.5])))
    shell_patch = spec.slice_patch(SIG, scale=0.4)
    shell_g, image = active_transform(g, shell), transform_patch(g, shell_patch)
    dust_g, box_g = active_transform(g, SymTensorField(source)), transform_patch(g, box)
    origin = np.array([0.1, -0.3, 0.2, 0.4])
    streamed = spec.slice_patch(SIG, scale=scale)
    adapted = spec.adapted_slice_patch(g, SIG, scale=scale)

    # the tiles of the streamed rules are the whole rules, bit for bit
    segments = [(1e-9, 1.0 - _EDGE_NUDGE, 2 * round(12 * scale), "linear"),
                (1.0 + _EDGE_NUDGE, 1e3, 2 * round(48 * scale), "log")]
    whole = spherical_rule(segments, round(48 * scale), round(48 * scale))
    ginv = invert(g)
    whole_g = map_rule_affine(*whole, ginv.A[1:, 1:], ginv.apply(np.zeros(4))[1:])
    for patch, ref in ((streamed, whole), (adapted, whole_g)):
        tiles = [patch.rule.tile(lo, lo + tile) for lo in range(0, patch.rule.size, tile)]
        assert len(tiles) > 1
        for k in (0, 1):  # nodes, weights
            assert same_bits(np.concatenate([t[k] for t in tiles]), ref[k])

    def moments():
        # the shell's samples are component-major views, not C-ordered
        # arrays; the transformed dust reads its components as four fluxes
        return (patch_moments(dust, box), patch_moments(shell, shell_patch), patch_moments(dust_g, box_g),
                patch_moments(shell, streamed), patch_moments(shell, adapted))

    refs, mv_ref = moments(), momentum_map(shell_g, image, origin)
    monkeypatch.setattr(quadrature, "TILE", tile)
    reads.clear()
    for M0, M0_ref in zip(moments(), refs):
        assert np.array_equal(M0, M0_ref)
    m = len(box_g.nodes_weights()[1])
    assert len(reads) == 4 * -(-m // tile) and sum(reads) == 4 * m  # four source fluxes per tile
    mv = momentum_map(shell_g, image, origin)
    assert np.array_equal(mv.components(), mv_ref.components())


@pytest.mark.parametrize("kind", ["box", "shell", "adapted", "with_rule"])
def test_tiles_are_component_major(kind):
    # each coordinate is one contiguous row of a (dim, m) block, handed out
    # as its (m, dim) transpose: the per-node maps and the field closures
    # run along contiguous node rows
    _, spec = build("completed_shell")
    g = compose(rotation(1, 2, 0.7), standard_boost(3, -0.4))
    m = 2 * TILE + 5
    patch = {
        "box": multi_tile_patch,
        "shell": lambda: spec.slice_patch(SIG, scale=0.4),
        "adapted": lambda: spec.adapted_slice_patch(g, SIG, scale=0.4),
        "with_rule": lambda: with_rule(HyperplanePatch.time_slice(SIG),
                                       RNG.uniform(-1.0, 1.0, (m, 3)), np.full(m, 1.0 / m)),
    }[kind]()
    assert patch.rule.tile(5, TILE + 5)[0].strides[0] == 8  # nodes are born so
    seen = []

    def f(points):
        seen.append(points)
        return np.ones(len(points))

    integrate_scalar_density(f, patch, ETA)
    assert len(seen) > 1 and all(pts.strides[0] == 8 for pts in seen)
    seen.clear()  # and the analytic boost hands its source the same layout
    source = SymTensorField(lambda pts: f(pts)[..., None, None] * np.eye(4))
    patch_moments(boost_emt_analytic(source, 0.3), patch)
    assert len(seen) > 1 and all(pts.strides[0] == 8 for pts in seen)
    for pts in (seen[0], np.ascontiguousarray(seen[0])):  # either layout in
        assert _matvec(pts, g.A).strides[0] == 8
        assert _shift(pts, 1, 1e-3).strides == pts.strides


def test_samples_stay_within_one_tile():
    dust = make_static_dust(1.0, 0.7)
    sizes = []

    def T(points):
        sizes.append(len(points))
        return dust(points)

    patch = multi_tile_patch()
    m = len(patch.nodes_weights()[1])
    patch_moments(SymTensorField(T), patch)
    assert m > TILE and sum(sizes) == m and max(sizes) <= TILE


def test_momentum_map_fluxes_match_moment_route():
    # the reference contracts the whole moments M0^{ab} and M1^{abc} with the
    # normal after the reduction, the route the per-node flux contraction replaced
    dust = make_static_dust(1.0, 0.7)
    g = compose(rotation(1, 2, 0.7), compose(standard_boost(3, -0.4), translation([0.2, -0.1, 0.3, 0.5])))
    T_g = active_transform(g, SymTensorField(dust))
    image = transform_patch(g, HyperplanePatch.time_slice(SIG, half_widths=2.0, grid=(24,)))
    origin = np.array([0.1, -0.3, 0.2, 0.4])
    mv = momentum_map(T_g, image, origin)

    nodes, weights = image.nodes_weights()
    pts = image.points(nodes)
    wT = T_g(pts) * (weights * image.frame_phase())[:, None, None]
    M0 = pairwise_sum(wT.reshape(-1, 16)).reshape(4, 4)
    M1 = pairwise_sum((wT[..., None] * (pts - origin)[:, None, None, :]).reshape(-1, 64))
    n_low = SIG.matrix @ image.normal
    F0 = M0 @ n_low
    F1 = np.einsum("abc,b->ac", M1.reshape(4, 4, 4), n_low)
    ref = np.array([
        SIG.matrix @ xi.P @ F0 + np.sum((SIG.matrix @ bivector_to_matrix(xi.M, SIG)) * F1)
        for xi in momentum_basis(4)
    ])
    assert np.max(np.abs(ref)) > 0.1
    fluxes = np.array([pairing(mv, xi, SIG) for xi in momentum_basis(4)])
    assert np.max(np.abs(fluxes - ref)) <= 1e-14 * np.max(np.abs(ref))


def nan_at_one_node(a=slice(None), b=slice(None)):
    """Static dust with NaN in its components [a, b] at one node in the
    second tile.  The node is matched to within 1e-9, so that the source
    field of a transformed patch, sampled at g^-1 of the image nodes, still
    sees it."""
    patch = HyperplanePatch.time_slice(SIG, half_widths=2.0, grid=(48,))
    bad = patch.points(patch.nodes_weights()[0])[100_000]
    dust = make_static_dust(1.0, 0.7)

    def func(points):
        out = dust(points)
        out[np.all(np.abs(points - bad) < 1e-9, axis=-1), a, b] = np.nan
        return out

    return SymTensorField(func), patch


def nan_off_slice():
    """Static dust that is NaN only where |t| > 0.5: every slice integral at
    t = 0 is finite, and only the stationarity probe of the boost report
    samples the NaN."""
    dust = make_static_dust(1.0, 0.4)

    def func(points):
        out = dust(points)
        out[np.abs(points[..., 0]) > 0.5] = np.nan
        return out

    return SymTensorField(func)


def nan_shell_node():
    """completed_shell on its own rule with one node's coordinates NaN, in the
    second tile: the closure computes NaN from the coordinate itself."""
    T, spec = build("completed_shell")
    patch = spec.slice_patch(SIG)
    nodes, weights = patch.nodes_weights()
    nodes = nodes.copy()
    nodes[100_000] = np.nan
    return T, with_rule(patch, nodes, weights)


NAN_G = compose(rotation(1, 2, 0.7), compose(standard_boost(3, -0.4), translation([0.2, -0.1, 0.3, 0.5])))


@pytest.mark.parametrize(
    "integral",
    [
        lambda T, patch: four_momentum(T, patch),
        lambda T, patch: laue_integrals(T, patch),
        lambda T, patch: momentum_map(T, patch, np.zeros(4)),
        lambda T, patch: momentum_map(
            active_transform(NAN_G, T), transform_patch(NAN_G, patch), np.zeros(4)
        ),
        lambda T, patch: integrate_form(FormField(4, 3, lambda p: T(p)[..., 0, :]), patch),
        lambda T, patch: integrate_scalar_density(lambda p: T(p)[..., 0, 0], patch, ETA),
        lambda T, patch: four_momentum(*nan_shell_node()),
        lambda T, patch: gauss_residual(T, ScalarField(lambda p: np.sin(p[..., 1])), patch),
        lambda T, patch: classical_laue_report(nan_off_slice(), box_spec(1.0, 16), [0.3]),
    ],
    ids=["four_momentum", "laue_integrals", "momentum_map", "transformed_momentum_map",
         "integrate_form", "integrate_scalar_density", "shell_nan_coordinate",
         "gauss_residual", "classical_laue_report_stationarity"],
)
def test_non_finite_sample_raises_everywhere(integral):
    T, patch = nan_at_one_node()
    with pytest.raises(FloatingPointError, match="non-finite sample"):
        integral(T, patch)


@pytest.mark.parametrize("a, b", [(0, 0), (0, 1), (1, 2), (2, 3), (3, 3)])
def test_transformed_flux_raises_on_any_non_finite_component(a, b):
    # the transformed field never forms its 16 components: the source's flux is
    # taken against the pulled-back normal, and a NaN in any one source
    # component must still surface
    T, patch = nan_at_one_node(a, b)
    with pytest.raises(FloatingPointError, match="non-finite sample"):
        momentum_map(active_transform(NAN_G, T), transform_patch(NAN_G, patch), np.zeros(4))


@pytest.mark.parametrize("where", ["T", "phi"])
def test_gauss_residual_non_finite_face_sample_raises(where):
    # the NaN sits on the face x^1 = +half_width, which only the boundary sums sample
    patch = HyperplanePatch.time_slice(SIG, half_widths=1.0, grid=(12,))
    dust = make_static_dust(1.0, 0.4)

    def on_face(values, points):
        values = np.array(values, float)
        values[points[..., 1] == 1.0] = np.nan
        return values

    T = SymTensorField(lambda p: on_face(dust(p), p) if where == "T" else dust(p))
    phi = ScalarField(lambda p: on_face(np.cos(p[..., 2]), p) if where == "phi" else np.cos(p[..., 2]))
    with pytest.raises(FloatingPointError, match="non-finite sample"):
        gauss_residual(T, phi, patch)

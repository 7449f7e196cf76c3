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
    active_transform,
)
from laue_lab.poincare import (
    bivector_to_matrix,
    coad,
    compose,
    invert,
    rotation,
    standard_boost,
    translation,
)
from laue_lab.quadrature import (
    LAUE_NAMES,
    TILE,
    HyperplanePatch,
    _flux_moments,
    _thread_count,
    flux_charge,
    flux_charge_normal_form,
    four_momentum,
    induced_measure,
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
from laue_lab.scenarios import tolman_weak_ep

from field_builders import make_static_dust

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


def test_null_normal_rejected():
    null = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)
    frame = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                      [1.0, -1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="null"):
        HyperplanePatch(np.zeros(4), frame, null, np.ones(3), (4, 4, 4), SIG)


def test_non_orthogonal_frame_rejected():
    frame = np.eye(4)[1:].copy()
    frame[0, 0] = 0.3  # no longer orthogonal to e0
    with pytest.raises(ValueError):
        HyperplanePatch(np.zeros(4), frame, np.eye(4)[0], np.ones(3), (4, 4, 4), SIG)


# --- induced measure ---


def test_time_slice_measure_is_spatial_volume():
    mu = induced_measure(unit_cube_slice())
    expected = PForm.basis(4, (1, 2, 3))
    assert np.allclose(mu.comps, expected.comps)


def test_spacelike_normal_measure_sign():
    # patch with normal e1 (a "timelike patch"): the rule is -(insert n eps)
    frame = np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    )
    patch = HyperplanePatch(
        np.zeros(4), frame, np.eye(4)[1], np.ones(3), (4, 4, 4), SIG
    )
    mu = induced_measure(patch)
    oracle = -1.0 * insert(np.eye(4)[1], volume_form(4))
    assert np.allclose(mu.comps, oracle.comps)


def test_boosted_patch_preserves_volume():
    # integral of the constant density 1 over the image equals the original
    patch = unit_cube_slice(N=8)
    g = standard_boost(1, 0.6)
    image = transform_patch(g, patch)
    one = lambda pts: np.ones(np.asarray(pts).shape[:-1])
    v0 = integrate_scalar_density(one, patch)
    v1 = integrate_scalar_density(one, image)
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

    got = integrate_scalar_density(f, patch)
    exact = (math.sqrt(math.pi) * sigma * math.erf(6.0)) ** 3
    assert got == pytest.approx(exact, rel=1e-6)


def test_odd_integrand_sums_to_zero():
    patch = unit_cube_slice(N=10)

    def f(points):
        points = np.asarray(points)
        return points[..., 1] * np.exp(-np.sum(points[..., 1:] ** 2, axis=-1))

    assert abs(integrate_scalar_density(f, patch)) < 1e-14


def test_non_finite_sample_aborts():
    patch = unit_cube_slice(N=4)

    def bad(points):
        out = np.ones(np.asarray(points).shape[:-1])
        out[0] = np.nan
        return out

    with pytest.raises(FloatingPointError):
        integrate_scalar_density(bad, patch)


def test_midpoint_refinement_ratio():
    # smooth non-periodic integrand: error scales like N^-2
    def f(points):
        points = np.asarray(points)
        return np.cos(points[..., 1]) * np.cos(points[..., 2]) * np.cos(points[..., 3])

    exact = (2.0 * math.sin(1.0)) ** 3
    errs = []
    for N in (8, 16):
        patch = HyperplanePatch.time_slice(SIG, half_widths=1.0, grid=(N,))
        errs.append(abs(integrate_scalar_density(f, patch) - exact))
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
    from field_builders import make_conserved_blob

    T = make_conserved_blob()
    patch = HyperplanePatch.time_slice(SIG, half_widths=6.0, grid=(48,))
    P = four_momentum(T, patch)
    for a in range(4):
        row = VectorField(lambda pts, a=a: T(pts)[..., a, :])
        assert flux_charge(row, patch, ETA) == pytest.approx(P[a], abs=1e-10)


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

    omega = FormField(4, 3, omega_func)
    image = transform_patch(g, patch)
    lhs = integrate_form(omega, image)
    rhs = integrate_form(active_transform(invert(g), omega), patch)
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
    assert mv.lie.P[0] == pytest.approx(P0, rel=1e-6)
    assert np.max(np.abs(mv.lie.P[1:])) < 1e-12
    assert np.max(np.abs(mv.lie.M)) < 1e-10


def test_momentum_map_translation_sector_matches_four_momentum():
    from field_builders import make_conserved_blob

    T = make_conserved_blob()
    patch = HyperplanePatch.time_slice(SIG, half_widths=6.0, grid=(32,))
    mv = momentum_map(T, patch, np.zeros(4))
    assert np.allclose(mv.lie.P, four_momentum(T, patch), atol=1e-12)


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
    predicted = coad(translation(shift), mv_centered.lie, SIG)
    assert np.max(np.abs(mv_shifted.lie.components() - predicted.components())) < 1e-6


def test_momentum_map_zero_tensor():
    zero = SymTensorField(lambda pts: np.zeros(np.asarray(pts).shape[:-1] + (4, 4)))
    mv = momentum_map(zero, unit_cube_slice(), np.zeros(4))
    assert np.allclose(mv.components(), 0.0)
    assert np.allclose(mv.fluxes, 0.0)


def test_momentum_map_pairs_generators_once_per_signature(monkeypatch):
    from laue_lab import quadrature

    calls = []
    pairing = quadrature.pairing
    monkeypatch.setattr(quadrature, "pairing", lambda *args: calls.append(1) or pairing(*args))
    dust = make_static_dust(1.0, 0.6)
    first = momentum_map(dust, unit_cube_slice(), np.zeros(4))
    made = len(calls)  # the 10 x 10 Gram matrix, unless an earlier call built it
    second = momentum_map(dust, unit_cube_slice(), np.zeros(4))
    assert made in (0, 100) and len(calls) == made
    assert np.array_equal(first.components(), second.components())


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
    patch = HyperplanePatch.time_slice(SIG, half_widths=7.0, grid=(8,)).with_rule(
        nodes, weights
    )
    P = four_momentum(dust, patch)
    assert P[0] == pytest.approx(math.pi**1.5 * 0.7**3, rel=1e-7)


@pytest.fixture
def two_cpus(monkeypatch):
    """At least two CPUs as seen by the thread clamp, so the pool runs on any host."""
    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(2, cpus))


def test_thread_count_is_clamped(monkeypatch):
    for raw, want in [("1000000", os.cpu_count() or 1), ("0", 1), ("-3", 1), ("two", 1)]:
        monkeypatch.setenv("LAUE_LAB_THREADS", raw)
        assert _thread_count() == want


def test_determinism_across_thread_env(monkeypatch, two_cpus):
    on_main = []

    def f(points):
        on_main.append(threading.current_thread() is threading.main_thread())
        points = np.asarray(points)
        return np.cos(points[..., 1] * 3.0) + points[..., 2] ** 2

    # 48^3 = 110,592 nodes are two 65,536-node tiles, so the pool runs
    patch = HyperplanePatch.time_slice(SIG, half_widths=1.0, grid=(48,))
    monkeypatch.setenv("LAUE_LAB_THREADS", "1")
    v1 = integrate_scalar_density(f, patch)
    monkeypatch.setenv("LAUE_LAB_THREADS", "4")
    v4 = integrate_scalar_density(f, patch)
    assert on_main == [True, True, False, False]  # two tiles, pooled under 4
    assert v1 == v4  # bitwise equal


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
    arr = np.array(partials)
    while arr.size > 1:
        half = arr.size // 2
        head = arr[: 2 * half].reshape(half, 2).sum(axis=1)
        arr = np.concatenate([head, arr[2 * half :]])
    return float(arr[0])


@pytest.mark.parametrize("m", [0, 1, 127, 128, 129, 65_541, 2 * TILE + 5])
def test_pairwise_sum_keeps_the_recursive_tree(m):
    rng = np.random.default_rng(m)
    cols = rng.standard_normal((m, 3)) * np.exp(rng.uniform(-20.0, 20.0, (m, 3)))
    ref = [recursive_pairwise_sum(cols[:, j]) for j in range(3)]
    assert [pairwise_sum(cols[:, j]) for j in range(3)] == ref  # bitwise
    got = pairwise_sum(cols)
    assert got.shape == (3,)
    assert list(got) == ref  # column input, bitwise


def two_tile_patch():
    # a boosted, shifted 48^3 box: 110,592 nodes in two tiles, and a measure
    # factor and frame that are not exactly the coordinate ones
    g = compose(standard_boost(1, 0.3), translation([0.1, 0.2, -0.1, 0.05]))
    return transform_patch(g, HyperplanePatch.time_slice(SIG, half_widths=2.0, grid=(48,)))


def test_patch_moments_bitwise_across_threads_and_whole_array(monkeypatch, two_cpus):
    dust = make_static_dust(1.0, 0.7)
    on_main = []

    def T(points):
        on_main.append(threading.current_thread() is threading.main_thread())
        return dust(points)

    T = SymTensorField(T)
    patch = two_tile_patch()
    origin = np.array([0.0, 0.3, -0.2, 0.1])
    n_low = SIG.matrix @ patch.normal
    monkeypatch.setenv("LAUE_LAB_THREADS", "1")
    M0_1 = patch_moments(T, patch)
    F0_1, F1_1 = _flux_moments(T, patch, n_low, origin)
    monkeypatch.setenv("LAUE_LAB_THREADS", "2")
    M0_2 = patch_moments(T, patch)
    F0_2, F1_2 = _flux_moments(T, patch, n_low, origin)
    assert on_main == [True] * 4 + [False] * 4  # two tiles per pass, pooled under 2
    assert np.array_equal(M0_1, M0_2)
    assert np.array_equal(F0_1, F0_2) and np.array_equal(F1_1, F1_2)

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
    assert np.array_equal(M0_1, np.array(M0_ref))
    assert np.array_equal(F0_1, np.array(F0_ref))
    assert np.array_equal(F1_1, np.array(F1_ref))


def test_transformed_moments_bitwise_across_threads(monkeypatch, two_cpus):
    dust = make_static_dust(1.0, 0.7)
    seen = []

    def T(points):
        seen.append(threading.current_thread())
        return dust(points)

    g = compose(rotation(1, 2, 0.7), compose(standard_boost(3, -0.4), translation([0.2, -0.1, 0.3, 0.5])))
    T_g = active_transform(g, SymTensorField(T))
    image = transform_patch(g, two_tile_patch())
    origin = np.array([0.1, -0.3, 0.2, 0.4])
    n_low = SIG.matrix @ image.normal
    monkeypatch.setenv("LAUE_LAB_THREADS", "1")
    M0_1 = patch_moments(T_g, image)
    F0_1, F1_1 = _flux_moments(T_g, image, n_low, origin)
    monkeypatch.setenv("LAUE_LAB_THREADS", "2")
    M0_2 = patch_moments(T_g, image)
    F0_2, F1_2 = _flux_moments(T_g, image, n_low, origin)
    main = threading.main_thread()
    assert [t is main for t in seen] == [True] * 4 + [False] * 4  # pooled under 2
    assert np.array_equal(M0_1, M0_2)
    assert np.array_equal(F0_1, F0_2) and np.array_equal(F1_1, F1_2)


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
    assert np.max(np.abs(mv.fluxes - ref)) <= 1e-14 * np.max(np.abs(ref))


def nan_at_one_node(a=slice(None), b=slice(None)):
    """Static dust with NaN in its components [a, b] at one node in the
    second tile.  The node is matched to within 1e-9, so that the source
    field of a transformed patch, sampled at g^-1 of the image nodes, still
    sees it."""
    patch = HyperplanePatch.time_slice(SIG, half_widths=2.0, grid=(48,))
    bad = patch.points()[100_000]
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
        lambda T, patch: tolman_weak_ep(T, -1.0, patch),
        lambda T, patch: integrate_form(FormField(4, 3, lambda p: T(p)[..., 0, :]), patch),
        lambda T, patch: integrate_scalar_density(lambda p: T(p)[..., 0, 0], patch),
        lambda T, patch: gauss_residual(T, ScalarField(lambda p: np.sin(p[..., 1])), patch),
        lambda T, patch: classical_laue_report(
            nan_off_slice(), HyperplanePatch.time_slice(SIG, half_widths=1.0, grid=(16,)), [0.3]
        ),
    ],
    ids=["four_momentum", "laue_integrals", "momentum_map", "transformed_momentum_map",
         "tolman_weak_ep", "integrate_form", "integrate_scalar_density", "gauss_residual",
         "classical_laue_report_stationarity"],
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

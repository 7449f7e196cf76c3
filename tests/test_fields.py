import math

import numpy as np
import pytest

from laue_lab.cli import CURVED_METRIC, seeded_elements
from laue_lab.exterior import Signature, multi_indices
from laue_lab.fields import (
    FormField,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    active_transform,
    boost_emt_analytic,
    christoffels,
    contract_coform,
    current_from_killing,
    divergence,
    dual_form,
    emt_to_form,
    exterior_derivative,
    fd_partial,
    identity_residuals,
    killing_residual,
    lie_derivative,
    stationarity_residual,
    symmetry_residual,
)
from laue_lab.poincare import (
    AffineChartMap,
    PoinLieElement,
    bivector_to_matrix,
    chart_transition,
    compose,
    fundamental_field,
    rotation,
    standard_boost,
    translation,
    wedge_vectors,
)
from laue_lab.quadrature import HyperplanePatch, map_rule_affine, transform_patch

from field_builders import constant_field, make_spatial_bump, make_tilted_metric

SIG = Signature.mostly_minus(4)
RNG = np.random.default_rng(1234)


def basis_vec(i, n=4):
    v = np.zeros(n)
    v[i] = 1.0
    return v


# --- fd_partial ---


def test_fd_partial_constant_is_zero():
    f = ScalarField(lambda pts: np.full(np.asarray(pts).shape[:-1], 3.5))
    pts = RNG.standard_normal((10, 4))
    assert np.allclose(fd_partial(f, 1)(pts), 0.0)


def test_fd_partial_linear_coordinate():
    f = ScalarField(lambda pts: np.asarray(pts)[..., 1])
    pts = RNG.standard_normal((10, 4))
    assert np.allclose(fd_partial(f, 1)(pts), 1.0, atol=1e-10)


def test_fd_partial_sine_taylor_bound():
    f = ScalarField(lambda pts: np.sin(np.asarray(pts)[..., 1]))
    h = 1e-3
    got = fd_partial(f, 1, h)(np.zeros((1, 4)))[0]
    assert abs(got - 1.0) < h * h


def test_fd_partial_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_partial(ScalarField(lambda p: p[..., 0]), 0, 0.0)


# --- exterior derivative ---


def test_exterior_derivative_of_exact_form_is_small():
    # d(d phi) = O(h^2)
    phi = make_spatial_bump()
    one_form = FormField(4, 1, lambda pts: phi.gradient(pts, 1e-4))
    dd = exterior_derivative(one_form, 1e-3)
    pts = RNG.uniform(-1, 1, (30, 4))
    assert np.max(np.abs(dd(pts))) < 1e-5


def test_exterior_derivative_convergence_rate():
    # fd-d of an analytically exact one-form: the closedness residual is the
    # O(h^2) truncation term, so halving h divides it by about four
    def grad_comps(points):
        # gradient of sin(x1 + 0.5 x2); the mixed third derivatives differ,
        # so the fd-closedness defect does not cancel
        points = np.asarray(points, float)
        u = points[..., 1] + 0.5 * points[..., 2]
        out = np.zeros(points.shape[:-1] + (4,))
        out[..., 1] = np.cos(u)
        out[..., 2] = 0.5 * np.cos(u)
        return out

    omega = FormField(4, 1, grad_comps)
    pts = RNG.uniform(-1, 1, (20, 4))
    coarse = np.max(np.abs(exterior_derivative(omega, 2e-2)(pts)))
    fine = np.max(np.abs(exterior_derivative(omega, 1e-2)(pts)))
    assert coarse < 1e-3
    assert 2.5 < coarse / fine < 6.0


# --- divergence ---


def test_divergence_of_static_dust_vanishes(static_dust, eta4):
    pts = RNG.uniform(-1, 1, (25, 4))
    div = divergence(static_dust, eta4, 1e-3)
    assert np.max(np.abs(div(pts))) < 1e-8


def test_divergence_of_linear_stress(eta4):
    def func(points):
        points = np.asarray(points, float)
        out = np.zeros(points.shape[:-1] + (4, 4))
        out[..., 1, 1] = points[..., 1]
        return out

    T = SymTensorField(func)
    div = divergence(T, eta4, 1e-3)
    got = div(np.zeros((1, 4)))[0]
    assert np.allclose(got, basis_vec(1), atol=1e-9)


def test_divergence_of_conserved_blob(conserved_blob, eta4):
    # measured through finite differences, not the analytic hook
    T = SymTensorField(conserved_blob.func)
    pts = RNG.uniform(-1.5, 1.5, (25, 4))
    r_h = np.max(np.abs(divergence(T, eta4, 2e-3)(pts)))
    r_h2 = np.max(np.abs(divergence(T, eta4, 1e-3)(pts)))
    assert r_h < 1e-4
    assert 2.5 < r_h / r_h2 < 6.0


def test_divergence_uses_analytic_hook(conserved_blob, eta4):
    pts = RNG.uniform(-1, 1, (10, 4))
    assert np.allclose(divergence(conserved_blob, eta4)(pts), 0.0)


def test_divergence_curved_metric_of_metric_itself():
    # nabla g = 0, so T = g^{-1}-like inverse metric is divergence free
    g = CURVED_METRIC

    def func(points):
        return np.linalg.inv(g(points))

    T = SymTensorField(func)
    pts = RNG.uniform(-0.5, 0.5, (20, 4))
    div = divergence(T, g, 1e-3)
    assert np.max(np.abs(div(pts))) < 1e-7


# --- Lie derivatives and Killing residuals ---


def test_lie_derivative_metric_translation(eta4):
    V = constant_field(basis_vec(1))
    out = lie_derivative(eta4, V)(RNG.standard_normal((10, 4)))
    assert np.max(np.abs(out)) < 1e-12


def test_lie_derivative_metric_boost_generator(eta4):
    xi = PoinLieElement(np.zeros(4), wedge_vectors(basis_vec(0), basis_vec(1)))
    V = VectorField(fundamental_field(xi, np.zeros(4), SIG))
    out = lie_derivative(eta4, V)(RNG.standard_normal((10, 4)))
    assert np.max(np.abs(out)) < 1e-9


def test_lie_derivative_metric_scaling_field(eta4):
    V = VectorField(lambda pts: np.asarray(pts, float))
    pts = RNG.standard_normal((10, 4))
    out = lie_derivative(eta4, V)(pts)
    assert np.max(np.abs(out - 2.0 * SIG.matrix)) < 1e-9


def test_lie_derivative_form_cartan_on_exact_form():
    # L_V d(phi) = d(V(phi)) for V = e0 and stationary phi gives zero
    phi = make_spatial_bump()
    omega = FormField(4, 1, lambda pts: phi.gradient(pts, 1e-4))
    V = constant_field(basis_vec(0))
    out = lie_derivative(omega, V, 1e-3)(RNG.uniform(-1, 1, (15, 4)))
    assert np.max(np.abs(out)) < 1e-7


def test_killing_residual_all_ten_generators(eta4, sample_points4):
    gens = [PoinLieElement(basis_vec(i), np.zeros(6)) for i in range(4)]
    for a, b in multi_indices(4, 2):
        gens.append(
            PoinLieElement(np.zeros(4), wedge_vectors(basis_vec(a), basis_vec(b)))
        )
    assert len(gens) == 10
    for xi in gens:
        K = VectorField(fundamental_field(xi, np.zeros(4), SIG))
        assert killing_residual(K, eta4, sample_points4) < 1e-9


def test_killing_residual_scaling_field(eta4, sample_points4):
    V = VectorField(lambda pts: np.asarray(pts, float))
    res = killing_residual(V, eta4, sample_points4)
    assert res == pytest.approx(2.0, abs=1e-8)


def test_killing_residual_rotation_on_curved_metric(sample_points4):
    g = CURVED_METRIC
    xi = PoinLieElement(np.zeros(4), wedge_vectors(basis_vec(1), basis_vec(2)))
    K = VectorField(fundamental_field(xi, np.zeros(4), SIG))
    assert killing_residual(K, g, sample_points4) > 1e-3
    # while a pure translation along x2 stays Killing for this metric
    K2 = constant_field(basis_vec(2))
    assert killing_residual(K2, g, sample_points4) < 1e-9


# --- active transforms ---


def test_active_transform_identity(static_dust):
    from laue_lab.poincare import identity

    T2 = active_transform(identity(4), static_dust)
    pts = RNG.standard_normal((10, 4))
    assert np.allclose(T2(pts), static_dust(pts))


def test_active_transform_composition(static_dust):
    g = standard_boost(1, 0.4)
    h = compose(rotation(1, 2, 0.3), translation(np.array([0.1, -0.2, 0.5, 0.0])))
    lhs = active_transform(compose(g, h), static_dust)
    rhs = active_transform(g, active_transform(h, static_dust))
    pts = RNG.standard_normal((10, 4))
    assert np.allclose(lhs(pts), rhs(pts), atol=1e-12)


def full_symmetric_field():
    """A stationary field whose sixteen components are all nonzero."""
    S = np.random.default_rng(42).standard_normal((4, 4))
    S = S + S.T

    def func(points):
        points = np.asarray(points, float)
        bump = np.exp(-0.5 * np.sum(points[..., 1:] ** 2, axis=-1))[..., None, None]
        return bump * (S + np.einsum("...a,...b->...ab", points, points))

    return SymTensorField(func)


FLUX_N_LOW = SIG.matrix @ np.array([1.25, 0.75, 0.0, 0.0])  # a boosted unit normal, lowered


def test_default_flux_is_component_einsum():
    T = full_symmetric_field()
    pts = RNG.standard_normal((3, 50, 4))
    ref = np.einsum("...ab,b->...a", T(pts), FLUX_N_LOW)
    assert np.array_equal(T.flux(pts, FLUX_N_LOW), ref)


@pytest.mark.parametrize("label", ["g0", "g1", "g2", "g3", "g4", "g1 after g3"])
def test_transformed_flux_matches_component_einsum(label):
    # the contract-first flux A T(g^-1 x) (A^T n) against the 16 pushed components
    elements = dict(seeded_elements(7))
    T = full_symmetric_field()
    if label == "g1 after g3":
        T_g = active_transform(elements["g1"], active_transform(elements["g3"], T))
    else:
        T_g = active_transform(elements[label], T)
    pts = RNG.standard_normal((3, 50, 4))
    ref = np.einsum("...ab,b->...a", T_g(pts), FLUX_N_LOW)
    got = T_g.flux(pts, FLUX_N_LOW)
    assert got.shape == ref.shape and np.max(np.abs(ref)) > 0.1
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_boosted_static_dust_energy_density(static_dust):
    beta = 0.6
    gamma = 1.0 / math.sqrt(1 - beta**2)
    g = standard_boost(1, beta)
    T2 = active_transform(g, static_dust)
    pts = RNG.standard_normal((10, 4))
    under = pts @ np.linalg.inv(g.A).T
    expected = gamma**2 * static_dust(under)[..., 0, 0]
    assert np.allclose(T2(pts)[..., 0, 0], expected, atol=1e-12)


def test_active_transform_form_field_pullback():
    # transforming a constant one-form multiplies by the inverse linear part
    comps = RNG.standard_normal(4)
    omega = FormField(4, 1, lambda pts: np.broadcast_to(comps, np.asarray(pts).shape[:-1] + (4,)))
    g = standard_boost(1, 0.5)
    got = active_transform(g, omega)(np.zeros((1, 4)))[0]
    expected = np.linalg.inv(g.A).T @ comps
    assert np.allclose(got, expected)


def test_dust_equivariance_contract():
    # building T from transformed ingredients equals transforming T;
    # for rho u (x) u this holds for any invertible linear map
    rng = np.random.default_rng(5)

    def make_T(rho_func, u):
        def func(points):
            points = np.asarray(points, float)
            r = rho_func(points)
            return r[..., None, None] * np.outer(u, u)

        return SymTensorField(func)

    u = np.array([1.2, 0.3, -0.1, 0.2])
    rho = lambda pts: np.exp(-np.sum(np.asarray(pts)[..., 1:] ** 2, axis=-1))
    T = make_T(rho, u)
    pts = rng.standard_normal((12, 4))
    for g in (
        standard_boost(1, 0.7),
        compose(standard_boost(2, 0.3), rotation(1, 3, 1.1)),
    ):
        rho_t = lambda p, g=g: rho(np.asarray(p) @ np.linalg.inv(g.A).T - 0.0)
        T_built = make_T(lambda p, g=g: rho(p @ np.linalg.inv(g.A).T), g.A @ u)
        T_pushed = active_transform(g, T)
        assert np.allclose(T_built(pts), T_pushed(pts), atol=1e-12)
    # weaker covariance: arbitrary invertible linear map
    from laue_lab.poincare import PoincareElement

    L = PoincareElement(np.zeros(4), np.eye(4) + 0.2 * rng.standard_normal((4, 4)))
    T_built = make_T(lambda p: rho(p @ np.linalg.inv(L.A).T), L.A @ u)
    T_pushed = active_transform(L, T)
    assert np.allclose(T_built(pts), T_pushed(pts), atol=1e-12)


def random_poincare_element(rng):
    """Boost, rotation and translation with random non-trivial parameters."""
    return compose(
        compose(standard_boost(int(rng.integers(1, 4)), rng.uniform(-0.8, 0.8)),
                rotation(1, 3, rng.uniform(0.0, 2 * math.pi))),
        translation(rng.uniform(-1.0, 1.0, 4)),
    )


def probe(shape):
    """Smooth field with generic values of the given component shape."""
    R = np.random.default_rng(len(shape)).standard_normal((4, int(np.prod(shape, dtype=int))))

    def func(points):
        points = np.asarray(points, float)
        return np.sin(points @ R + 0.3).reshape(points.shape[:-1] + shape)

    return func


def assert_rel_close(got, ref, rtol=1e-14):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_per_node_maps_match_matrix_product_formulas(seed):
    # reference: the per-node formulas as matrix products and 3-operand einsums
    rng = np.random.default_rng(seed)
    g = random_poincare_element(rng)
    A = g.A
    Ainv = np.linalg.inv(A)
    a_inv = -Ainv @ g.a
    pts = rng.standard_normal((3, 50, 4)) * 2.0
    under = pts @ Ainv.T + a_inv
    assert_rel_close(g.apply(pts), pts @ A.T + g.a)
    assert_rel_close(chart_transition(AffineChartMap(g.a, A), pts), pts @ A.T + g.a)
    xi = PoinLieElement(rng.standard_normal(4), rng.standard_normal(6))
    origin = rng.standard_normal(4)
    E = bivector_to_matrix(xi.M, SIG)
    assert_rel_close(fundamental_field(xi, origin, SIG)(pts), xi.P + (pts - origin) @ E.T)

    scalar = probe(())
    got = active_transform(g, ScalarField(scalar))(pts)
    assert_rel_close(got, scalar(under))
    vec = probe((4,))
    got = active_transform(g, VectorField(vec))(pts)
    assert_rel_close(got, vec(under) @ A.T)
    ten = probe((4, 4))
    got = active_transform(g, SymTensorField(ten))(pts)
    assert_rel_close(got, np.einsum("ac,...cd,bd->...ab", A, ten(under), A))
    for p in range(4):
        comps = probe((math.comb(4, p),))
        idxs = multi_indices(4, p)
        D = np.array([[np.linalg.det(Ainv[np.ix_(J, I)]) for I in idxs] for J in idxs])
        got = active_transform(g, FormField(4, p, comps))(pts)
        assert_rel_close(got, comps(under) if p == 0 else comps(under) @ D)
    met = probe((4, 4))
    got = active_transform(g, MetricField(SIG, met))(pts)
    assert_rel_close(got, np.einsum("ca,...cd,db->...ab", Ainv, met(under), Ainv))

    S = Ainv[1:, 1:]
    shift = rng.standard_normal(3)
    nodes = rng.standard_normal((200, 3))
    weights = rng.uniform(0.5, 1.0, 200)
    mapped, w = map_rule_affine(nodes, weights, S, shift)
    assert_rel_close(mapped, (nodes - shift) @ np.linalg.inv(S).T)
    assert np.array_equal(w, weights * abs(np.linalg.det(np.linalg.inv(S))))
    patch = transform_patch(g, HyperplanePatch.time_slice(SIG, grid=(5,)))
    nodes, _ = patch.nodes_weights()
    assert_rel_close(patch.points(nodes), patch.origin + nodes @ patch.tangent_frame)


# --- analytic boost law ---


def test_boost_analytic_beta_zero_is_identity(conserved_blob):
    T2 = boost_emt_analytic(conserved_blob, 0.0)
    pts = RNG.standard_normal((10, 4))
    assert np.allclose(T2(pts), conserved_blob(pts))


def test_boost_analytic_energy_flux_from_pure_density(static_dust):
    beta = 0.5
    gamma = 1.0 / math.sqrt(1 - beta**2)
    T2 = boost_emt_analytic(static_dust, beta)
    pts = RNG.standard_normal((10, 4))
    under = pts.copy()
    under[:, 0] = gamma * (pts[:, 0] - beta * pts[:, 1])
    under[:, 1] = gamma * (pts[:, 1] - beta * pts[:, 0])
    expected = gamma**2 * beta * static_dust(under)[..., 0, 0]
    assert np.allclose(T2(pts)[..., 0, 1], expected, atol=1e-12)


def test_boost_analytic_matches_active_transform(conserved_blob):
    for beta in (0.3, -0.6, 0.85):
        lhs = boost_emt_analytic(conserved_blob, beta)
        rhs = active_transform(standard_boost(1, beta), conserved_blob)
        pts = RNG.standard_normal((40, 4))
        assert np.max(np.abs(lhs(pts) - rhs(pts))) < 1e-10


def test_boost_analytic_rejects_superluminal(static_dust):
    with pytest.raises(ValueError):
        boost_emt_analytic(static_dust, 1.0)


# --- energy-momentum form ---


def test_emt_to_form_dust_row(static_dust, eta4):
    calT = emt_to_form(static_dust, eta4)
    pts = RNG.standard_normal((10, 4))
    rho = static_dust(pts)[..., 0, 0]
    got = calT(pts)
    # time row is rho * theta1^theta2^theta3, spatial rows vanish
    idx123 = list(multi_indices(4, 3)).index((1, 2, 3))
    assert np.allclose(got[..., 0, idx123], rho)
    got_zeroed = got.copy()
    got_zeroed[..., 0, idx123] = 0.0
    assert np.max(np.abs(got_zeroed)) < 1e-12


def test_emt_to_form_zero_tensor(eta4):
    zero = SymTensorField(
        lambda pts: np.zeros(np.asarray(pts).shape[:-1] + (4, 4))
    )
    calT = emt_to_form(zero, eta4)
    assert np.max(np.abs(calT(RNG.standard_normal((5, 4))))) == 0.0


def test_emt_form_round_trip(conserved_blob, eta4):
    # un-dualising the second slot and raising both indices recovers T
    from laue_lab.exterior import hodge_comps

    calT = emt_to_form(conserved_blob, eta4)
    pts = RNG.standard_normal((15, 4))
    vals = calT(pts)
    eta = SIG.matrix
    recovered = np.empty(pts.shape[:-1] + (4, 4))
    for a in range(4):
        one_form = hodge_comps(vals[..., a, :], 4, 3, eta, 1.0)
        recovered[..., a, :] = one_form
    T_low = np.einsum("ac,...cd,bd->...ab", eta, conserved_blob(pts), eta)
    assert np.allclose(recovered, T_low, atol=1e-12)


def test_contract_coform_matches_current(conserved_blob, eta4):
    K = constant_field(basis_vec(1))
    calT = emt_to_form(conserved_blob, eta4)
    tk = contract_coform(calT, K)
    J, calJ = current_from_killing(conserved_blob, K, eta4)
    pts = RNG.standard_normal((15, 4))
    assert np.allclose(tk(pts), calJ(pts), atol=1e-12)


def test_vector_duals_match_hodge_route_on_nondiagonal_metric(conserved_blob):
    # star(V_flat) = i_V mu_g: the insertion route against lowering by g,
    # raising by g^-1 and scaling by sqrt|det g|, inverse and det taken here
    from laue_lab.checkers import exact_current_factory
    from laue_lab.exterior import hodge_comps

    g = make_tilted_metric()
    pts = RNG.uniform(-1.5, 1.5, (25, 4))
    gv = g(pts)
    ginv, eps = np.linalg.inv(gv), np.sqrt(np.abs(np.linalg.det(gv)))

    def reference(v):
        return hodge_comps(np.einsum("...ab,...b->...a", gv, v), 4, 1, ginv, eps)

    V = VectorField(
        lambda p: np.stack([np.cos(p[..., 0]), p[..., 1], p[..., 2] ** 2, -p[..., 3]], -1)
    )
    assert_rel_close(dual_form(V, g)(pts), reference(V(pts)), rtol=1e-13)
    Tv = conserved_blob(pts)
    T_mixed = np.einsum("...ac,...cb->...ab", gv, Tv)  # first index lowered
    ref_rows = np.stack([reference(T_mixed[..., a, :]) for a in range(4)], axis=-2)
    assert_rel_close(emt_to_form(conserved_blob, g)(pts), ref_rows, rtol=1e-13)
    lam = FormField(4, 2, lambda p: np.stack(
        [np.exp(-np.sum(p[..., 1:] ** 2, axis=-1)) * (k + 1) for k in range(6)], -1))
    J, calJ = exact_current_factory(lam, g)
    assert_rel_close(dual_form(J, g)(pts), calJ(pts), rtol=1e-13)


def test_current_from_killing_dust(static_dust, eta4):
    J, calJ = current_from_killing(static_dust, constant_field(basis_vec(0)), eta4)
    pts = RNG.standard_normal((10, 4))
    rho = static_dust(pts)[..., 0, 0]
    expected = np.zeros(pts.shape[:-1] + (4,))
    expected[..., 0] = rho
    assert np.allclose(J(pts), expected)
    J1, _ = current_from_killing(static_dust, constant_field(basis_vec(1)), eta4)
    assert np.max(np.abs(J1(pts))) < 1e-14


# --- differential identities ---


def test_identity_residuals_flat_conserved_killing(conserved_blob, eta4, sample_points4):
    # rotation generator: non-constant Killing field contracting stress
    # components the blob actually carries
    xi = PoinLieElement(np.zeros(4), wedge_vectors(basis_vec(1), basis_vec(2)))
    K = VectorField(fundamental_field(xi, np.zeros(4), SIG))
    T = SymTensorField(conserved_blob.func)  # measure via fd
    r1, r2 = identity_residuals(T, K, eta4, 1e-3, sample_points4)
    # in a flat chart the first identity is stencil-exact (the fd divergence
    # and the fd exterior derivative share difference quotients)
    assert r1 < 1e-12
    assert r2 < 1e-6
    _, r2c = identity_residuals(T, K, eta4, 2e-3, sample_points4)
    assert 2.5 < r2c / r2 < 6.0


def test_identity_residuals_zero_tensor(eta4, sample_points4):
    zero = SymTensorField(lambda pts: np.zeros(np.asarray(pts).shape[:-1] + (4, 4)))
    K = constant_field(basis_vec(0))
    r1, r2 = identity_residuals(zero, K, eta4, 1e-3, sample_points4)
    assert r1 == 0.0 and r2 == 0.0


def test_identity_residuals_trace_term_matters(conserved_blob, eta4, sample_points4):
    # scaling field: nabla_a K_b = eta_ab, so the correction term equals the
    # eta-trace of T; dropping it leaves a residual of that size
    K = VectorField(lambda pts: np.asarray(pts, float))
    T = conserved_blob
    r1, r2 = identity_residuals(T, K, eta4, 1e-3, sample_points4)
    assert r2 < 1e-6
    pts = np.asarray(sample_points4, float)
    trace = np.einsum("ab,...ab->...", SIG.matrix, T(pts))
    from laue_lab.fields import exterior_derivative as dext

    calT = emt_to_form(T, eta4)
    tk = contract_coform(calT, K)
    lhs = dext(tk, 1e-3)(pts)[..., 0]
    # without the trace term the residual reproduces |trace| pointwise
    assert np.max(np.abs(lhs - trace)) < 1e-6
    assert np.max(np.abs(trace)) > 0.1


def test_identity_residuals_curved_metric(sample_points4):
    # T = inverse metric is covariantly conserved for any metric
    g = CURVED_METRIC
    T = SymTensorField(lambda pts: np.linalg.inv(g(pts)))
    K = constant_field(basis_vec(2))  # Killing for this metric
    pts = 0.4 * np.asarray(sample_points4)
    r1, r2 = identity_residuals(T, K, g, 1e-3, pts)
    assert r1 < 1e-6 and r2 < 1e-6
    # with metric derivatives in play the first identity shows its O(h^2)
    r1c, _ = identity_residuals(T, K, g, 2e-3, pts)
    assert 2.5 < r1c / r1 < 6.0


# --- metadata checks ---


def test_stationarity_residual(static_dust, sample_points4):
    assert stationarity_residual(static_dust, 1e-3, sample_points4) < 1e-8

    def moving(points):
        points = np.asarray(points, float)
        out = np.zeros(points.shape[:-1] + (4, 4))
        out[..., 0, 0] = np.exp(-((points[..., 1] - 0.3 * points[..., 0]) ** 2))
        return out

    T = SymTensorField(moving)
    assert stationarity_residual(T, 1e-3, sample_points4) > 1e-3


def test_symmetry_residual(conserved_blob, sample_points4):
    assert symmetry_residual(conserved_blob, sample_points4) == 0.0


def test_christoffels_flat_are_zero(eta4):
    G = christoffels(eta4)(RNG.standard_normal((5, 4)))
    assert np.max(np.abs(G)) == 0.0


def test_custom_metric_is_not_flat_by_default(sample_points4):
    curved = CURVED_METRIC
    g = MetricField(SIG, curved.func)
    assert MetricField(SIG).flat and not g.flat
    gamma = christoffels(g)(sample_points4)
    assert np.any(gamma != 0.0)
    assert np.array_equal(gamma, christoffels(curved)(sample_points4))


def test_christoffels_curved_match_analytic():
    # g_11 = -f(x1)^2 gives Gamma^1_11 = f'/f, all else zero
    g = CURVED_METRIC
    pts = np.zeros((7, 4))
    pts[:, 1] = np.linspace(-1, 1, 7)
    G = christoffels(g, 1e-4)(pts)
    f = 1.0 + 0.1 * np.sin(pts[:, 1])
    fp = 0.1 * np.cos(pts[:, 1])
    assert np.allclose(G[:, 1, 1, 1], fp / f, atol=1e-7)
    mask = np.ones((4, 4, 4), dtype=bool)
    mask[1, 1, 1] = False
    assert np.max(np.abs(G[:, mask])) < 1e-7


def test_lie_derivative_zero_form_is_directional_derivative():
    # degree-0 field: L_V reduces to V(f)
    def comps(points):
        points = np.asarray(points, float)
        return (points[..., 1] ** 2 + np.sin(points[..., 2]))[..., None]

    f = FormField(4, 0, comps)
    V = VectorField(
        lambda pts: np.broadcast_to(
            np.array([0.0, 2.0, 1.0, 0.0]), np.asarray(pts).shape[:-1] + (4,)
        )
    )
    pts = RNG.uniform(-1, 1, (20, 4))
    got = lie_derivative(f, V, 1e-4)(pts)[..., 0]
    expected = 2.0 * 2.0 * pts[:, 1] + np.cos(pts[:, 2])
    assert np.allclose(got, expected, atol=1e-7)

import math

import numpy as np
import pytest

from laue_lab import fields
from laue_lab.cli import CURVED_METRIC, LAM, PHI, ROTATION_12, TIME_TRANSLATION, seeded_elements
from laue_lab.exterior import (
    Signature,
    _insert_table,
    _wedge_table,
    insert_comps,
    minor_det,
    multi_indices,
    wedge_comps,
)
from laue_lab.fields import (
    FormField,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    _central,
    active_transform,
    boost_emt_analytic,
    christoffels,
    contract_coform,
    divergence,
    dual_form,
    emt_to_form,
    exterior_derivative,
    identity_residuals,
    killing_residual,
    lie_derivative,
    stationarity_residual,
)
from laue_lab.poincare import (
    PoinLieElement,
    bivector_to_matrix,
    compose,
    fundamental_field,
    rotation,
    standard_boost,
    translation,
    wedge_vectors,
)
from laue_lab.quadrature import TILE, HyperplanePatch, map_rule_affine, transform_patch

from field_builders import constant_field, make_spatial_bump, make_tilted_metric

SIG = Signature.mostly_minus(4)
RNG = np.random.default_rng(1234)


def basis_vec(i, n=4):
    v = np.zeros(n)
    v[i] = 1.0
    return v


# --- the central-difference stencil ---


def test_gradient_sine_taylor_bound():
    f = ScalarField(lambda pts: np.sin(np.asarray(pts)[..., 1]))
    h = 1e-3
    got = f.gradient(np.zeros((1, 4)), h)[0]
    assert abs(got[1] - 1.0) < h * h
    assert np.all(got[[0, 2, 3]] == 0.0)


@pytest.mark.parametrize(
    "field, comps",
    [
        (ScalarField(lambda pts: np.sin(pts[..., 1])), ()),
        (VectorField(lambda pts: np.sin(pts)), (4,)),
        (FormField(4, 2, lambda pts: np.sin(pts[..., :1] + np.arange(6.0))), (6,)),
    ],
)
def test_central_keeps_component_shape(field, comps):
    # the stencil returns the field's own components at every point
    pts = np.random.default_rng(5).standard_normal((3, 7, 4))
    got = _central(field, pts, 1, 1e-3)
    assert got.shape == (3, 7) + comps
    assert np.all(np.isfinite(got))


@pytest.fixture
def oracle_fd_stack(monkeypatch):
    # every _fd_stack call is checked against the np.stack of its n central
    # differences: bitwise the same bytes, in the tile layout: on a tile or
    # rows of points the node axis runs fastest, so each (direction,
    # component) slot is one contiguous node row, whatever the points' layout
    axes = []
    written = fields._fd_stack

    def checked(f, points, h, axis):
        got = written(f, points, h, axis)
        want = np.stack([_central(f, points, d, h) for d in range(points.shape[-1])], axis)
        assert got.shape == want.shape
        if points.ndim > 1:
            assert got.strides[1 if axis == 0 else 0] == got.itemsize
        assert got.tobytes() == want.tobytes()
        axes.append(axis)
        return got

    monkeypatch.setattr(fields, "_fd_stack", checked)
    return axes


def _fd_points(layout):
    # a component-major tile, node-major (C-order) points or a single point
    nodes = np.random.default_rng(8).uniform(-1.5, 1.5, (37, 4))
    return {"tile": np.ascontiguousarray(nodes.T).T, "rows": nodes, "point": nodes[0]}[layout]


@pytest.mark.parametrize("layout", ["tile", "rows", "point"])
@pytest.mark.parametrize(
    "call, axes",
    [
        (lambda pts: PHI.gradient(pts), {-1}),
        (lambda pts: exterior_derivative(LAM)(pts), {0}),
        (lambda pts: lie_derivative(CURVED_METRIC, ROTATION_12)(pts), {-3, -1}),
        (lambda pts: christoffels(CURVED_METRIC)(pts), {-3}),
        (lambda pts: lie_derivative(lie_derivative(LAM, ROTATION_12), TIME_TRANSLATION)(pts),
         {0}),
    ],
    ids=["gradient", "exterior_derivative", "lie_metric", "christoffels", "nested_lie_form"],
)
def test_fd_stack_is_bitwise_the_stacked_stencil(oracle_fd_stack, call, axes, layout):
    assert np.all(np.isfinite(call(_fd_points(layout))))
    assert set(oracle_fd_stack) == axes


def test_fd_stack_refuses_a_step_that_does_not_move():
    pts = _fd_points("tile")
    pts[3, 2] = 1e20  # 1e20 + 1e-3 == 1e20
    with pytest.raises(FloatingPointError, match="does not move coordinate 2"):
        fields._fd_stack(PHI, pts, 1e-3, -1)


def _signed_sum(shape, table, a, b):
    # the node-major oracle: a C-order block and out[..., r] += sign * a * b
    out = np.zeros(shape)
    for out_rank, a_rank, b_rank, sign in table:
        out[..., out_rank] += sign * a[..., a_rank] * b[..., b_rank]
    return out


def _node_major_d(omega, points, h=1e-3):
    n, p = omega.n, omega.p
    rank_p = {idx: k for k, idx in enumerate(multi_indices(n, p))}
    partials = [np.ascontiguousarray(_central(omega, points, d, h)) for d in range(n)]
    out = np.zeros(partials[0].shape[:-1] + (math.comb(n, p + 1),))
    for out_rank, idx in enumerate(multi_indices(n, p + 1)):
        for k, axis in enumerate(idx):
            out[..., out_rank] += (-1) ** k * partials[axis][..., rank_p[idx[:k] + idx[k + 1:]]]
    return out


@pytest.mark.parametrize("layout", ["tile", "rows", "point"])
def test_form_kernels_are_component_major(layout):
    # form-valued samples come out in the tile layout, node axes fastest, with
    # the bytes of the node-major kernels on C-order copies of their inputs
    pts = _fd_points(layout)
    rng = np.random.default_rng(9)
    lead = pts.shape[:-1]

    def sample(*comps):  # component-major on a tile, C order otherwise
        x = rng.standard_normal(lead + comps)
        return np.asfortranarray(x) if layout == "tile" else x

    v, one, two, three = sample(4), sample(4), sample(6), sample(4)
    mixed, eps = sample(4, 4), np.abs(rng.standard_normal(lead)) + 0.5
    c = np.ascontiguousarray
    ones = np.ones(lead + (1,))
    cases = [
        (insert_comps(v, three, 4, 3),
         _signed_sum(lead + (6,), _insert_table(4, 3), c(v), c(three))),
        (wedge_comps(one, 1, two, 2, 4),
         _signed_sum(lead + (4,), _wedge_table(4, 1, 2), c(one), c(two))),
        (exterior_derivative(LAM)(pts), _node_major_d(LAM, c(pts))),
        (fields._volume_insert(v, eps),
         _signed_sum(lead + (4,), _insert_table(4, 4), c(v), ones) * eps[..., None]),
        (fields._volume_insert(mixed, eps),
         _signed_sum(lead + (4, 4), _insert_table(4, 4), c(mixed), ones[..., None, :])
         * eps[..., None, None]),
        (fields._volume_insert(v, 1.0), _signed_sum(lead + (4,), _insert_table(4, 4), c(v), ones)),
    ]
    for got, want in cases:
        assert got.flags.f_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# --- exterior derivative ---


@pytest.mark.parametrize("n", range(2, 7))
def test_exterior_derivative_table_is_the_wedge_table(n):
    # d omega = sum_c dx^c ^ d_c omega: the 1-form slot of the wedge table is
    # the axis of the partial c, and its shuffle sign is (-1)^k for c at
    # position k of the output multi-index
    for p in range(n):
        rank_p = {idx: k for k, idx in enumerate(multi_indices(n, p))}
        table = [
            (out_rank, axis, rank_p[idx[:k] + idx[k + 1:]], (-1) ** k)
            for out_rank, idx in enumerate(multi_indices(n, p + 1))
            for k, axis in enumerate(idx)
        ]
        assert list(_wedge_table(n, 1, p)) == table


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


def test_exterior_derivative_of_a_covector_valued_form_is_row_by_row(conserved_blob):
    # one stencil pass over all value slots of calT (..., 4, 4) is bitwise
    # the exterior derivative of each row (..., 4) taken on its own
    calT = emt_to_form(conserved_blob, CURVED_METRIC)
    pts = RNG.uniform(-1, 1, (40, 4))
    batched = exterior_derivative(FormField(4, 3, calT), 1e-3)(pts)
    assert batched.shape == (40, 4, 1) and np.max(np.abs(batched)) > 0.0
    for a in range(4):
        row = FormField(4, 3, lambda p: calT(p)[..., a, :])
        assert np.array_equal(batched[..., a, :], exterior_derivative(row, 1e-3)(pts))


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
    pts = RNG.uniform(-1.5, 1.5, (25, 4))
    r_h = np.max(np.abs(divergence(conserved_blob, eta4, 2e-3)(pts)))
    r_h2 = np.max(np.abs(divergence(conserved_blob, eta4, 1e-3)(pts)))
    assert r_h < 1e-4
    assert 2.5 < r_h / r_h2 < 6.0


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


def test_killing_residual_non_finite_raises(eta4, sample_points4):
    # max(0.0, nan) is 0.0, so a NaN residual must raise, never read as a pass
    def func(points):
        out = np.asarray(points, float).copy()
        out[3, 2] = np.nan
        return out

    with pytest.raises(FloatingPointError, match="non-finite"):
        killing_residual(VectorField(func), eta4, sample_points4)


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
    T2 = active_transform(translation(np.zeros(4)), static_dust)
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
    # the contract-first flux against the pushed components A T(g^-1 x) A^T
    # contracted with n, written out inline
    elements = dict(seeded_elements(7))
    T = full_symmetric_field()
    if label == "g1 after g3":
        T_g = active_transform(elements["g1"], active_transform(elements["g3"], T))
        g = compose(elements["g1"], elements["g3"])
    else:
        T_g = active_transform(elements[label], T)
        g = elements[label]
    pts = RNG.standard_normal((3, 50, 4))
    under = (pts - g.a) @ np.linalg.inv(g.A).T
    ref = np.einsum("ac,...cd,bd,b->...a", g.A, T(under), g.A, FLUX_N_LOW)
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
    xi = PoinLieElement(rng.standard_normal(4), rng.standard_normal(6))
    origin = rng.standard_normal(4)
    E = bivector_to_matrix(xi.M, SIG)
    assert_rel_close(fundamental_field(xi, origin, SIG)(pts), xi.P + (pts - origin) @ E.T)

    ten = probe((4, 4))
    got = active_transform(g, SymTensorField(ten))(pts)
    assert_rel_close(got, np.einsum("ac,...cd,bd->...ab", A, ten(under), A))

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


@pytest.mark.parametrize(
    "call, exc",
    [
        (lambda g, pts: active_transform(g, ScalarField(probe(()))), TypeError),
        (lambda g, pts: active_transform(g, VectorField(probe((4,)))), TypeError),
        (lambda g, pts: active_transform(g, FormField(4, 2, probe((6,)))), TypeError),
        (lambda g, pts: active_transform(g, MetricField(SIG, probe((4, 4)))), TypeError),
        (lambda g, pts: lie_derivative(FormField(4, 0, probe((1,))), VectorField(probe((4,))))(pts),
         ValueError),
    ],
    ids=["scalar", "vector", "form", "metric", "lie_derivative_zero_form"],
)
def test_narrowed_contracts_raise(call, exc):
    # active_transform pushes forward only a (2,0) field, and a Lie
    # derivative of a form needs degree p >= 1
    g = random_poincare_element(np.random.default_rng(0))
    with pytest.raises(exc):
        call(g, RNG.standard_normal((5, 4)))


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
    # the blob has T^{0i} = 0; a Gaussian times a fixed symmetric matrix has
    # every T^{ab} nonzero, so the time-space cross terms are checked too
    M = np.random.default_rng(21).standard_normal((4, 4))
    M = M + M.T
    full = SymTensorField(lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1))[..., None, None] * M)
    for T in (conserved_blob, full):
        for beta in (0.3, -0.6, 0.85):
            lhs = boost_emt_analytic(T, beta)
            rhs = active_transform(standard_boost(1, beta), T)
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
    eta = SIG.matrix
    # J^b = K_a T^{ab}, its dual taken by the vector route
    J = VectorField(lambda p: np.einsum("ac,...c,...ab->...b", eta, K(p), conserved_blob(p)))
    pts = RNG.standard_normal((15, 4))
    assert np.allclose(tk(pts), dual_form(J, eta4)(pts), atol=1e-12)


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


# --- differential identities ---


def test_identity_residuals_flat_conserved_killing(conserved_blob, eta4, sample_points4):
    # rotation generator: non-constant Killing field contracting stress
    # components the blob actually carries
    xi = PoinLieElement(np.zeros(4), wedge_vectors(basis_vec(1), basis_vec(2)))
    K = VectorField(fundamental_field(xi, np.zeros(4), SIG))
    T = conserved_blob
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


def test_identity_residuals_non_finite_raises(conserved_blob, eta4, sample_points4):
    # max(0.0, nan) is 0.0, so a NaN residual must raise, never read as a pass
    def func(points):
        out = conserved_blob(points)
        out[..., 1, 2] = np.nan
        return out

    K = constant_field(basis_vec(0))
    with pytest.raises(FloatingPointError, match="non-finite"):
        identity_residuals(SymTensorField(func), K, eta4, 1e-3, sample_points4)


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
    Tv = conserved_blob(sample_points4)
    assert np.max(np.abs(Tv - np.swapaxes(Tv, -1, -2))) == 0.0


def test_christoffels_flat_are_zero(eta4):
    G = christoffels(eta4)(RNG.standard_normal((5, 4)))
    assert np.max(np.abs(G)) == 0.0


def test_custom_metric_is_not_flat_by_default(sample_points4):
    curved = CURVED_METRIC
    g = MetricField(SIG, curved.func)
    assert MetricField(SIG).flat and not g.flat
    with pytest.raises(TypeError):  # derived from func, never asserted by a caller
        MetricField(SIG, curved.func, flat=True)
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


# --- sqrt|det g| by the memoised Laplace expansion ---


def _plain_minor_det(m, rows, cols):
    # the first-row expansion without a memo: every sub-minor recomputed
    if len(rows) == 1:
        return m[..., rows[0], cols[0]]
    out = 0.0
    for k, c in enumerate(cols):
        term = m[..., rows[0], c] * _plain_minor_det(m, rows[1:], cols[:k] + cols[k + 1 :])
        out = out + term if k % 2 == 0 else out - term
    return out


def _random_metrics(n, m, seed):
    # dense symmetric, non-degenerate: diag(+-(1 + u)) plus a symmetric 0.3 x N(0, 1)
    rng = np.random.default_rng(seed)
    a = 0.3 * rng.standard_normal((m, n, n))
    diag = np.array(Signature.mostly_minus(n).diag) * (1.0 + rng.uniform(0, 1, (m, n)))
    return a + np.swapaxes(a, -1, -2) + diag[..., None] * np.eye(n)


@pytest.mark.parametrize("m", [1, TILE, TILE + 37])
def test_eps_top_is_bitwise_lapack_on_curved_metric(m):
    # CURVED_METRIC is diagonal with entries 1, -f^2, -1, -1: every product
    # order gives the same bits, so the expansion must equal LAPACK exactly
    pts = np.random.default_rng(m).uniform(-3, 3, (m, 4))
    want = np.sqrt(np.abs(np.linalg.det(CURVED_METRIC(pts))))
    got = CURVED_METRIC.eps_top(pts)
    assert got.shape == (m,) and np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_eps_top_matches_lapack_on_dense_metrics(n):
    gv = _random_metrics(n, 257, seed=n)
    g = MetricField(Signature.mostly_minus(n), lambda pts: gv)
    want = np.sqrt(np.abs(np.linalg.det(gv)))
    got = g.eps_top(np.zeros((257, n)))
    assert np.max(np.abs(got - want) / want) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_memoised_minor_det_is_bitwise_the_plain_recursion(n):
    gv = _random_metrics(n, 64, seed=10 + n)
    axes = tuple(range(n))
    assert np.array_equal(minor_det(gv, axes, axes), _plain_minor_det(gv, axes, axes))
    for p in range(1, n):  # the off-diagonal minors raise_comps takes
        for A in multi_indices(n, p):
            for J in multi_indices(n, p):
                assert np.array_equal(minor_det(gv, A, J), _plain_minor_det(gv, A, J))

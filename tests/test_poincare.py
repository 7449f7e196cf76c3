import math
import os
import subprocess
import sys

import numpy as np
import pytest

from laue_lab.exterior import Signature, multi_indices
from laue_lab.poincare import (
    PoincareElement,
    PoinLieElement,
    ad,
    ad_transpose,
    bivector_to_matrix,
    coad,
    compose,
    fundamental_field,
    identity,
    invert,
    is_isometry,
    lie_bracket,
    matrix_to_bivector,
    pairing,
    poincare_exp,
    rebase_element,
    rebase_lie,
    rotation,
    standard_boost,
    translation,
    wedge_vectors,
)

SIG = Signature.mostly_minus(4)
RNG = np.random.default_rng(424242)


def basis_vec(i, n=4):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def random_isometry(rng, with_translation=True):
    g = standard_boost(1, rng.uniform(-0.8, 0.8))
    g = compose(g, rotation(1, 2, rng.uniform(0, 2 * math.pi)))
    g = compose(g, rotation(2, 3, rng.uniform(0, 2 * math.pi)))
    g = compose(g, standard_boost(3, rng.uniform(-0.5, 0.5)))
    if with_translation:
        g = compose(translation(rng.standard_normal(4)), g)
    return g


def random_lie(rng):
    return PoinLieElement(rng.standard_normal(4), rng.standard_normal(6))


# --- oracle: the wedge endomorphism written out directly ---


def oracle_wedge_endo(x, y, diag):
    # (x ^ y) v = x eta(y, v) - y eta(x, v)
    eta = np.diag(np.asarray(diag, float))
    return np.outer(x, eta @ y) - np.outer(y, eta @ x)


# --- group structure ---


def test_compose_semidirect_law():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g, h = random_isometry(rng), random_isometry(rng)
        gh = compose(g, h)
        assert np.allclose(gh.a, g.a + g.A @ h.a)
        assert np.allclose(gh.A, g.A @ h.A)


def test_invert_identity():
    e = identity(4)
    ei = invert(e)
    assert np.allclose(ei.a, 0.0) and np.allclose(ei.A, np.eye(4))


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_isometry(rng)
        for e in (compose(invert(g), g), compose(g, invert(g))):
            assert np.max(np.abs(e.a)) < 1e-12
            assert np.max(np.abs(e.A - np.eye(4))) < 1e-12


def test_associativity():
    rng = np.random.default_rng(3)
    g, h, k = (random_isometry(rng) for _ in range(3))
    lhs = compose(compose(g, h), k)
    rhs = compose(g, compose(h, k))
    assert np.max(np.abs(lhs.a - rhs.a)) < 1e-12
    assert np.max(np.abs(lhs.A - rhs.A)) < 1e-12


def test_translations_compose_additively():
    a, b = RNG.standard_normal(4), RNG.standard_normal(4)
    t = compose(translation(a), translation(b))
    assert np.allclose(t.a, a + b) and np.allclose(t.A, np.eye(4))


def test_is_isometry():
    assert is_isometry(standard_boost(1, 0.6), SIG, 1e-10)
    scaling = PoincareElement(np.zeros(4), np.diag([2.0, 1.0, 1.0, 1.0]))
    assert not is_isometry(scaling, SIG, 1e-10)


def test_singular_linear_part_rejected():
    with pytest.raises(ValueError):
        PoincareElement(np.zeros(4), np.zeros((4, 4)))


# --- generators ---


def test_standard_boost_matrix():
    beta = 0.6
    gamma = 1.0 / math.sqrt(1 - beta**2)
    expected = np.array(
        [
            [gamma, beta * gamma, 0.0, 0.0],
            [beta * gamma, gamma, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.allclose(standard_boost(1, beta).A, expected)


def test_zero_boost_is_identity():
    assert np.allclose(standard_boost(1, 0.0).A, np.eye(4))


def test_opposite_boosts_cancel():
    g = compose(standard_boost(1, 0.77), standard_boost(1, -0.77))
    assert np.max(np.abs(g.A - np.eye(4))) < 1e-12


def test_rotation_orthogonal_spatial_block():
    r = rotation(1, 2, 0.7)
    assert is_isometry(r, SIG, 1e-12)
    assert np.allclose(r.A[1:, 1:] @ r.A[1:, 1:].T, np.eye(3))
    assert r.A[0, 0] == 1.0


def test_boost_rejects_superluminal():
    with pytest.raises(ValueError):
        standard_boost(1, 1.0)


# --- charts: passive vs active ---


def test_active_translation_moves_origin():
    a = RNG.standard_normal(4)
    assert np.allclose(translation(a).apply(np.zeros(4)), a)


def test_chart_change_round_trip_non_isometric():
    # a passive change of affine chart is a PoincareElement with any
    # non-singular linear part, not only an isometry
    B = PoincareElement(RNG.standard_normal(4), np.eye(4) + 0.1 * RNG.standard_normal((4, 4)))
    assert not is_isometry(B, SIG)
    x = RNG.standard_normal((7, 4))
    assert np.allclose(invert(B).apply(B.apply(x)), x, atol=1e-12)
    assert np.allclose(B.apply(x), x @ B.A.T + B.a, atol=1e-12)


def test_active_boost_of_spatial_point():
    beta = 0.6
    gamma = 1.0 / math.sqrt(1 - beta**2)
    x = np.array([0.0, 2.0, -1.0, 3.0])
    got = standard_boost(1, beta).apply(x)
    # oracle: straight matrix application
    assert np.allclose(got, standard_boost(1, beta).A @ x)
    assert np.allclose(got, [gamma * beta * 2.0, gamma * 2.0, -1.0, 3.0])


# --- Lie algebra ---


def test_bivector_matrix_round_trip():
    M = RNG.standard_normal(6)
    E = bivector_to_matrix(M, SIG)
    eta = SIG.matrix
    assert np.max(np.abs(E.T @ eta + eta @ E)) < 1e-12
    assert np.allclose(matrix_to_bivector(E, SIG), M)


def test_wedge_endomorphism_matches_oracle():
    x, y = RNG.standard_normal(4), RNG.standard_normal(4)
    E = bivector_to_matrix(wedge_vectors(x, y), SIG)
    assert np.allclose(E, oracle_wedge_endo(x, y, SIG.diag))


def test_bracket_of_translations_vanishes():
    xi = PoinLieElement(RNG.standard_normal(4), np.zeros(6))
    zeta = PoinLieElement(RNG.standard_normal(4), np.zeros(6))
    out = lie_bracket(xi, zeta, SIG)
    assert np.allclose(out.components(), 0.0)


def test_bracket_boost_with_time_translation():
    # [(0, e0^e1), (e0, 0)] = ((e0^e1) e0, 0) = (-e1, 0)
    xi = PoinLieElement(np.zeros(4), wedge_vectors(basis_vec(0), basis_vec(1)))
    zeta = PoinLieElement(basis_vec(0), np.zeros(6))
    out = lie_bracket(xi, zeta, SIG)
    expected = oracle_wedge_endo(basis_vec(0), basis_vec(1), SIG.diag) @ basis_vec(0)
    assert np.allclose(out.P, expected)
    assert np.allclose(out.P, -basis_vec(1))
    assert np.allclose(out.M, 0.0)


def test_jacobi_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, y, z = (random_lie(rng) for _ in range(3))
        total = (
            lie_bracket(x, lie_bracket(y, z, SIG), SIG).components()
            + lie_bracket(y, lie_bracket(z, x, SIG), SIG).components()
            + lie_bracket(z, lie_bracket(x, y, SIG), SIG).components()
        )
        assert np.max(np.abs(total)) < 1e-12


def test_bracket_antisymmetry():
    x, y = random_lie(RNG), random_lie(RNG)
    assert np.allclose(
        lie_bracket(x, y, SIG).components(), -lie_bracket(y, x, SIG).components()
    )


# --- pairing ---


def test_pairing_timelike_translation():
    xi = PoinLieElement(basis_vec(0), np.zeros(6))
    assert pairing(xi, xi, SIG) == pytest.approx(1.0)


def test_pairing_pure_wedges_formula():
    rng = np.random.default_rng(6)
    eta = SIG.matrix
    for _ in range(10):
        u, v, w, z = (rng.standard_normal(4) for _ in range(4))
        xi = PoinLieElement(np.zeros(4), wedge_vectors(u, v))
        zeta = PoinLieElement(np.zeros(4), wedge_vectors(w, z))
        expected = (u @ eta @ w) * (v @ eta @ z) - (u @ eta @ z) * (v @ eta @ w)
        assert pairing(xi, zeta, SIG) == pytest.approx(expected, abs=1e-12)


def test_pairing_spatial_rotation_generator():
    xi = PoinLieElement(np.zeros(4), wedge_vectors(basis_vec(1), basis_vec(2)))
    assert pairing(xi, xi, SIG) == pytest.approx(1.0)


def test_pairing_nondegenerate_on_generator_basis():
    basis = [PoinLieElement(basis_vec(i), np.zeros(6)) for i in range(4)]
    for a, b in multi_indices(4, 2):
        basis.append(PoinLieElement(np.zeros(4), wedge_vectors(basis_vec(a), basis_vec(b))))
    gram = np.array([[pairing(x, y, SIG) for y in basis] for x in basis])
    assert abs(np.linalg.det(gram)) > 0.5
    assert np.allclose(gram, gram.T)


# --- adjoint and co-adjoint ---


def test_ad_identity_fixes_everything():
    xi = random_lie(RNG)
    out = ad(identity(4), xi, SIG)
    assert np.allclose(out.components(), xi.components())


def test_coad_pure_translation_formula():
    # coad((a, I), (P, M)) = (P, M - a ^ P)
    rng = np.random.default_rng(7)
    a, xi = rng.standard_normal(4), random_lie(rng)
    out = coad(translation(a), xi, SIG)
    assert np.allclose(out.P, xi.P)
    assert np.allclose(out.M, xi.M - wedge_vectors(a, xi.P))


def test_ad_and_coad_are_homomorphisms():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g, h = random_isometry(rng), random_isometry(rng)
        xi = random_lie(rng)
        for rep in (ad, coad):
            lhs = rep(compose(g, h), xi, SIG).components()
            rhs = rep(g, rep(h, xi, SIG), SIG).components()
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_ad_transpose_relation():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = random_isometry(rng)
        xi, zeta = random_lie(rng), random_lie(rng)
        lhs = pairing(zeta, ad(g, xi, SIG), SIG)
        rhs = pairing(ad_transpose(g, zeta, SIG), xi, SIG)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_coad_is_inverse_transpose_of_ad():
    rng = np.random.default_rng(10)
    g = random_isometry(rng)
    xi, zeta = random_lie(rng), random_lie(rng)
    lhs = pairing(coad(g, zeta, SIG), ad(g, xi, SIG), SIG)
    assert lhs == pytest.approx(pairing(zeta, xi, SIG), abs=1e-10)


def test_ad_rejects_non_isometry():
    scaling = PoincareElement(np.zeros(4), 2.0 * np.eye(4))
    with pytest.raises(ValueError):
        ad(scaling, random_lie(RNG), SIG)


def test_ad_matches_conjugation_derivative():
    # d/ds|_0 g exp(s xi) g^{-1} computed by central differences in the group
    rng = np.random.default_rng(11)
    g = random_isometry(rng)
    xi = random_lie(rng)
    s = 1e-5
    plus = compose(compose(g, poincare_exp(_scale(xi, s), SIG)), invert(g))
    minus = compose(compose(g, poincare_exp(_scale(xi, -s), SIG)), invert(g))
    dA = (plus.A - minus.A) / (2 * s)
    da = (plus.a - minus.a) / (2 * s)
    out = ad(g, xi, SIG)
    assert np.allclose(bivector_to_matrix(out.M, SIG), dA, atol=1e-6)
    assert np.allclose(out.P, da, atol=1e-6)


def _scale(xi, s):
    return PoinLieElement(s * xi.P, s * xi.M)


# --- fundamental fields ---


def test_translation_generator_gives_constant_field():
    P = RNG.standard_normal(4)
    field = fundamental_field(PoinLieElement(P, np.zeros(6)), np.zeros(4), SIG)
    pts = RNG.standard_normal((5, 4))
    assert np.allclose(field(pts), np.broadcast_to(P, (5, 4)))


def test_boost_generator_field_value():
    xi = PoinLieElement(np.zeros(4), wedge_vectors(basis_vec(0), basis_vec(1)))
    field = fundamental_field(xi, np.zeros(4), SIG)
    assert np.allclose(field(basis_vec(0)), -basis_vec(1))


def test_fundamental_field_linear_in_xi():
    o = RNG.standard_normal(4)
    xi, zeta = random_lie(RNG), random_lie(RNG)
    both = PoinLieElement(xi.P + zeta.P, xi.M + zeta.M)
    pts = RNG.standard_normal((6, 4))
    assert np.allclose(
        fundamental_field(both, o, SIG)(pts),
        fundamental_field(xi, o, SIG)(pts) + fundamental_field(zeta, o, SIG)(pts),
    )


def test_fields_antihomomorphism():
    # -[V_xi, V_zeta] = V_[xi, zeta]; affine fields admit the closed-form
    # commutator [V, W](x) = E_W V(x) - E_V W(x).
    rng = np.random.default_rng(12)
    o = rng.standard_normal(4)
    for _ in range(10):
        xi, zeta = random_lie(rng), random_lie(rng)
        EX = bivector_to_matrix(xi.M, SIG)
        EY = bivector_to_matrix(zeta.M, SIG)
        Vxi = fundamental_field(xi, o, SIG)
        Vzeta = fundamental_field(zeta, o, SIG)
        pts = rng.standard_normal((8, 4))
        commutator = Vxi(pts) @ EY.T - Vzeta(pts) @ EX.T
        bracket_field = fundamental_field(lie_bracket(xi, zeta, SIG), o, SIG)
        assert np.max(np.abs(-commutator - bracket_field(pts))) < 1e-12


def test_pushforward_of_fundamental_field():
    # A V_xi(g^{-1} x) = V_{Ad_g xi}(x) for the origin-preserving action
    rng = np.random.default_rng(13)
    g = random_isometry(rng, with_translation=True)
    xi = random_lie(rng)
    o = np.zeros(4)
    pts = rng.standard_normal((6, 4))
    V = fundamental_field(xi, o, SIG)
    pushed = V(invert(g).apply(pts)) @ g.A.T
    W = fundamental_field(ad(g, xi, SIG), o, SIG)
    assert np.allclose(pushed, W(pts), atol=1e-10)


# --- exponential and origin shifts ---


def test_exp_of_zero_is_identity():
    g = poincare_exp(PoinLieElement.zero(4), SIG)
    assert np.allclose(g.A, np.eye(4)) and np.allclose(g.a, 0.0)


def test_exp_of_translation_sector():
    P = RNG.standard_normal(4)
    g = poincare_exp(PoinLieElement(P, np.zeros(6)), SIG)
    assert np.allclose(g.a, P) and np.allclose(g.A, np.eye(4))


def test_exp_produces_isometries():
    rng = np.random.default_rng(14)
    for _ in range(10):
        g = poincare_exp(random_lie(rng), SIG)
        assert is_isometry(g, SIG, 1e-10)


def test_exp_one_parameter_property():
    xi = random_lie(np.random.default_rng(15))
    s, t = 0.3, 0.45
    lhs = poincare_exp(_scale(xi, s + t), SIG)
    rhs = compose(poincare_exp(_scale(xi, s), SIG), poincare_exp(_scale(xi, t), SIG))
    assert np.max(np.abs(lhs.A - rhs.A)) < 1e-12
    assert np.max(np.abs(lhs.a - rhs.a)) < 1e-12


def test_exp_boost_generator_reproduces_standard_boost():
    # exp(phi e0^e1 generator) is the rapidity-phi boost along axis 1
    phi = 0.83
    beta = math.tanh(phi)
    xi = PoinLieElement(np.zeros(4), phi * wedge_vectors(basis_vec(1), basis_vec(0)))
    g = poincare_exp(xi, SIG)
    ref = standard_boost(1, beta)
    assert np.allclose(g.A, ref.A, atol=1e-12)


def _assert_exp_matches(g, A_ref, a_ref):
    got = np.column_stack([g.A, g.a])
    ref = np.column_stack([A_ref, a_ref])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_exp_large_rapidity_boost_closed_form():
    # rapidity 4 gives a 1-norm of 4, so the series runs on a squared-down matrix
    phi = 4.0
    xi = PoinLieElement(np.zeros(4), phi * wedge_vectors(basis_vec(1), basis_vec(0)))
    A = np.eye(4)
    A[0, 0] = A[1, 1] = math.cosh(phi)
    A[0, 1] = A[1, 0] = math.sinh(phi)
    _assert_exp_matches(poincare_exp(xi, SIG), A, np.zeros(4))


def test_exp_null_rotation_closed_form():
    # N = (e0 + e1) ^ e2 with a null leg has N^3 = 0, so the series terminates:
    # A = I + N + N^2/2 and a = (I + N/2 + N^2/6) P
    M = 2.5 * wedge_vectors(basis_vec(0) + basis_vec(1), basis_vec(2))
    P = np.array([0.3, -0.2, 0.5, 0.1])
    N = bivector_to_matrix(M, SIG)
    assert np.max(np.abs(N @ N)) > 1.0 and np.max(np.abs(N @ N @ N)) == 0.0
    A = np.eye(4) + N + N @ N / 2
    a = P + N @ P / 2 + N @ N @ P / 6
    _assert_exp_matches(poincare_exp(PoinLieElement(P, M), SIG), A, a)


def test_exp_screw_motion_closed_form():
    # a rotation in the (1, 2) plane and a translation along its axis commute
    theta, d = 2.0, 0.7
    xi = PoinLieElement(d * basis_vec(3), theta * wedge_vectors(basis_vec(1), basis_vec(2)))
    _assert_exp_matches(poincare_exp(xi, SIG), rotation(1, 2, theta).A, d * basis_vec(3))


def test_exp_does_not_import_scipy():
    import laue_lab

    code = (
        "import sys\n"
        "import numpy as np\n"
        "import laue_lab\n"
        "xi = laue_lab.PoinLieElement(np.ones(4), np.ones(6))\n"
        "laue_lab.poincare_exp(xi, laue_lab.Signature.mostly_minus(4))\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(laue_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_rebase_element_consistency():
    # the same affine map expressed about a shifted origin sends the same
    # points to the same points
    rng = np.random.default_rng(16)
    g = random_isometry(rng)
    d = rng.standard_normal(4)
    g2 = rebase_element(g, d)
    x = rng.standard_normal(4)
    # coordinates about o' differ by -d
    assert np.allclose(g2.apply(x - d), g.apply(x) - d, atol=1e-12)


def test_rebase_lie_preserves_field():
    rng = np.random.default_rng(17)
    xi = random_lie(rng)
    d = rng.standard_normal(4)
    o = rng.standard_normal(4)
    pts = rng.standard_normal((5, 4))
    V = fundamental_field(xi, o, SIG)
    W = fundamental_field(rebase_lie(xi, d, SIG), o + d, SIG)
    assert np.allclose(V(pts), W(pts), atol=1e-12)

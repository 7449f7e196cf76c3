import math
import os
import subprocess
import sys

import numpy as np
import pytest

from laue_lab.cli import seeded_elements
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
    invert,
    is_isometry,
    lie_bracket,
    matrix_to_bivector,
    pairing,
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
    e = translation(np.zeros(4))
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
    out = ad(translation(np.zeros(4)), xi, SIG)
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
    # A V_xi(g^{-1} x) = V_{Ad_g xi}(x) for the origin-preserving action, on a
    # random isometry and on the five elements the CLI checks draw
    rng = np.random.default_rng(13)
    elements = [random_isometry(rng, with_translation=True)]
    elements += [g for _, g in seeded_elements(7)]
    o = np.zeros(4)
    for g in elements:
        xi = random_lie(rng)
        pts = rng.standard_normal((6, 4))
        V = fundamental_field(xi, o, SIG)
        pushed = V(invert(g).apply(pts)) @ g.A.T
        W = fundamental_field(ad(g, xi, SIG), o, SIG)
        assert np.allclose(pushed, W(pts), atol=1e-10)


def test_laue_lab_does_not_import_scipy():
    # the package and the group-algebra suite run on numpy alone
    import laue_lab

    code = (
        "import contextlib, io, sys\n"
        "import laue_lab\n"
        "from laue_lab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', 'poincare']) == 0\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(laue_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr

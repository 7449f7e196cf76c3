import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laue_lab.exterior import (
    PForm,
    Signature,
    hodge,
    hodge_comps,
    inner_norm,
    insert,
    insert_comps,
    multi_indices,
    musical,
    perm_sign,
    raise_comps,
    volume_form,
    wedge,
    wedge_comps,
)

RNG = np.random.default_rng(20240711)


# --- independent brute-force oracles (dense arrays, direct permutation sums) ---


def oracle_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def oracle_alt(t):
    p = t.ndim
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(p)):
        out += oracle_sign(perm) * np.transpose(t, perm)
    return out / math.factorial(p)


def alt(t):
    """Antisymmetrisation (1/p!) sum_sigma sign(sigma) * permuted tensor: the
    1/p! prefactor makes it a projection, the convention under which ``wedge``
    carries its (p+q)!/(p!q!) factor.

    Idempotent; a tensor of rank p > n antisymmetrises to zero.
    """
    t = np.asarray(t, dtype=float)
    p = t.ndim
    if p <= 1:
        return t.copy()
    n = t.shape[0]
    if any(s != n for s in t.shape):
        raise ValueError(f"expected cubical shape (n,)*p, got {t.shape}")
    if p > n:
        return np.zeros_like(t)
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(p)):
        out += perm_sign(perm) * np.transpose(t, perm)
    return out / math.factorial(p)


def to_dense(form):
    """A PForm expanded to the full antisymmetric array of shape (n,) * p."""
    t = np.zeros((form.n,) * form.p)
    for k, idx in enumerate(multi_indices(form.n, form.p)):
        for perm in itertools.permutations(idx):
            t[perm] = perm_sign(perm) * form.comps[k]
    return t


def from_dense(t):
    """The PForm of the increasing-index components of a totally
    antisymmetric tensor."""
    t = np.asarray(t, dtype=float)
    p = t.ndim
    n = t.shape[0] if p else 0
    return PForm(n, p, np.array([t[idx] for idx in multi_indices(n, p)]))


def oracle_wedge_dense(a_dense, b_dense):
    p, q = a_dense.ndim, b_dense.ndim
    factor = math.factorial(p + q) / (math.factorial(p) * math.factorial(q))
    return factor * oracle_alt(np.tensordot(a_dense, b_dense, axes=0))


def oracle_epsilon(n):
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = oracle_sign(perm)
    return eps


def oracle_inner(a_dense, b_dense, diag):
    # (1/p!) a_{i...} b^{i...} via the full dense contraction
    p = a_dense.ndim
    b_up = b_dense.copy()
    for axis in range(p):
        shape = [1] * p
        shape[axis] = len(diag)
        b_up = b_up * np.asarray(diag, float).reshape(shape)
    return float(np.sum(a_dense * b_up) / math.factorial(p))


def oracle_hodge(a, sig):
    # (star a)_B = (1/p!) a^{A} eps_{A B}, first p slots contracted
    n, p = a.n, a.p
    eps = oracle_epsilon(n)
    a_dense = to_dense(a)
    a_up = a_dense.copy()
    for axis in range(p):
        shape = [1] * p
        shape[axis] = n
        a_up = a_up * np.asarray(sig.diag, float).reshape(shape)
    dual = (
        np.tensordot(a_up, eps, axes=(tuple(range(p)), tuple(range(p))))
        / math.factorial(p)
        if p
        else a.comps[0] * eps
    )
    return from_dense(dual) if n - p > 0 else PForm(n, n - p, np.array([float(dual)]))


def random_form(n, p, rng=RNG):
    return PForm(n, p, rng.standard_normal(math.comb(n, p)))


# --- alt ---


def test_alt_two_index_antisymmetrisation():
    n = 4
    t = np.zeros((n, n))
    t[1, 2] = 1.0  # theta1 (x) theta2
    expected = np.zeros((n, n))
    expected[1, 2] = 0.5
    expected[2, 1] = -0.5
    assert np.allclose(alt(t), expected)


def test_alt_repeated_factor_vanishes():
    n = 4
    t = np.zeros((n, n))
    t[1, 1] = 1.0
    assert np.allclose(alt(t), 0.0)


@pytest.mark.parametrize("n,p", [(3, 2), (4, 3), (5, 2)])
def test_alt_is_projection_and_matches_oracle(n, p):
    t = RNG.standard_normal((n,) * p)
    a = alt(t)
    assert np.allclose(alt(a), a, atol=1e-13)
    assert np.allclose(a, oracle_alt(t), atol=1e-13)
    # image is totally antisymmetric
    for axes in itertools.permutations(range(p)):
        assert np.allclose(np.transpose(a, axes), oracle_sign(axes) * a, atol=1e-13)


def test_alt_above_top_degree_is_zero():
    t = RNG.standard_normal((2, 2, 2))
    assert np.allclose(alt(t), 0.0)


# --- wedge ---


def test_wedge_of_two_basis_covectors():
    n = 4
    w = wedge(PForm.basis(n, (1,)), PForm.basis(n, (2,)))
    expected = np.zeros(math.comb(n, 2))
    expected[list(multi_indices(n, 2)).index((1, 2))] = 1.0
    assert np.allclose(w.comps, expected)


def test_wedge_two_two_forms_give_volume():
    n = 4
    w = wedge(PForm.basis(n, (0, 1)), PForm.basis(n, (2, 3)))
    assert w.p == 4
    assert np.allclose(w.comps, volume_form(n).comps)


@pytest.mark.parametrize("n,p,q", [(3, 1, 1), (4, 1, 2), (4, 2, 2), (5, 2, 3), (6, 1, 3)])
def test_wedge_matches_dense_oracle(n, p, q):
    a, b = random_form(n, p), random_form(n, q)
    w = wedge(a, b)
    dense = oracle_wedge_dense(to_dense(a), to_dense(b))
    assert np.allclose(to_dense(w), dense, atol=1e-12)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(11, 10**6))
@settings(max_examples=40, deadline=None)
def test_wedge_graded_commutativity(p, q, seed):
    n = 4
    rng = np.random.default_rng(seed)
    a, b = random_form(n, p, rng), random_form(n, q, rng)
    lhs = wedge(a, b)
    rhs = wedge(b, a)
    assert np.allclose(lhs.comps, (-1.0) ** (p * q) * rhs.comps, atol=1e-12)


def test_wedge_associativity():
    n = 5
    a, b, c = random_form(n, 1), random_form(n, 2), random_form(n, 1)
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert np.allclose(lhs.comps, rhs.comps, atol=1e-12)


def test_wedge_degree_overflow_returns_zero_top_form():
    n = 3
    w = wedge(random_form(n, 2), random_form(n, 2))
    assert w.p == n
    assert np.allclose(w.comps, 0.0)


def test_wedge_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        wedge(random_form(3, 1), random_form(4, 1))


# --- inner product and musical maps ---


def test_inner_norm_volume_squared():
    for n in range(2, 7):
        for sig in (Signature.mostly_minus(n), Signature.mostly_plus(n)):
            eps = volume_form(n)
            assert inner_norm(eps, eps, sig) == pytest.approx((-1.0) ** sig.n_minus)


def test_inner_norm_timelike_basis_covector():
    sig = Signature.mostly_minus(4)
    t0 = PForm.basis(4, (0,))
    assert inner_norm(t0, t0, sig) == pytest.approx(1.0)


def test_inner_norm_spatial_two_form():
    sig = Signature.mostly_minus(4)
    f = PForm.basis(4, (1, 2))
    expected = oracle_inner(to_dense(f), to_dense(f), sig.diag)
    assert expected == pytest.approx(1.0)
    assert inner_norm(f, f, sig) == pytest.approx(expected)


@pytest.mark.parametrize("n,p", [(4, 1), (4, 2), (5, 3), (6, 2)])
def test_inner_norm_matches_dense_oracle(n, p):
    sig = Signature.mostly_minus(n)
    a, b = random_form(n, p), random_form(n, p)
    assert inner_norm(a, b, sig) == pytest.approx(
        oracle_inner(to_dense(a), to_dense(b), sig.diag), abs=1e-12
    )


def test_musical_lowering_signs():
    sig = Signature.mostly_minus(4)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    assert np.allclose(musical(e0, sig), [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(musical(e1, sig), [0.0, -1.0, 0.0, 0.0])


@given(st.integers(11, 10**6))
@settings(max_examples=25, deadline=None)
def test_musical_round_trip(seed):
    sig = Signature.mostly_minus(4)
    v = np.random.default_rng(seed).standard_normal(4)
    assert np.allclose(musical(musical(v, sig), sig), v)


# --- hodge ---


def test_hodge_of_timelike_basis_covector():
    sig = Signature.mostly_minus(4)
    assert np.allclose(hodge(PForm.basis(4, (0,)), sig).comps, PForm.basis(4, (1, 2, 3)).comps)


def test_hodge_of_spatial_two_form():
    sig = Signature.mostly_minus(4)
    got = hodge(PForm.basis(4, (1, 2)), sig)
    assert np.allclose(got.comps, PForm.basis(4, (0, 3)).comps)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_hodge_matches_permutation_sum_oracle(n):
    sig = Signature.mostly_minus(n)
    for p in range(n + 1):
        a = random_form(n, p)
        expected = oracle_hodge(a, sig)
        assert np.allclose(hodge(a, sig).comps, expected.comps, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("convention", ["mostly_minus", "mostly_plus"])
def test_hodge_defining_property_exhaustive(n, convention):
    sig = getattr(Signature, convention)(n)
    eps = volume_form(n)
    for p in range(n + 1):
        for a_idx in multi_indices(n, p):
            a = PForm.basis(n, a_idx)
            star_a = hodge(a, sig)
            for b_idx in multi_indices(n, p):
                b = PForm.basis(n, b_idx)
                lhs = wedge(b, star_a)
                rhs = inner_norm(b, a, sig) * eps
                assert np.max(np.abs(lhs.comps - rhs.comps)) < 1e-12


def test_hodge_squared_sign_mostly_minus():
    for n in range(2, 7):
        sig = Signature.mostly_minus(n)
        for p in range(n + 1):
            a = random_form(n, p)
            twice = hodge(hodge(a, sig), sig)
            sign = (-1.0) ** ((n + 1) * (p + 1))
            assert np.allclose(twice.comps, sign * a.comps, atol=1e-12)


def test_hodge_adjointness_and_isometry_signs():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        for sig in (Signature.mostly_minus(n), Signature.mostly_plus(n)):
            for p in range(n + 1):
                a = random_form(n, p, rng)
                b = random_form(n, n - p, rng)
                lhs = inner_norm(a, hodge(b, sig), sig)
                rhs = (-1.0) ** (p * (n - p)) * inner_norm(hodge(a, sig), b, sig)
                assert lhs == pytest.approx(rhs, abs=1e-12)
                c = random_form(n, p, rng)
                assert inner_norm(hodge(a, sig), hodge(c, sig), sig) == pytest.approx(
                    (-1.0) ** sig.n_minus * inner_norm(a, c, sig), abs=1e-12
                )


# --- insert ---


def test_insert_timelike_vector_into_volume():
    sig = Signature.mostly_minus(4)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    got = insert(e0, volume_form(4))
    assert np.allclose(got.comps, PForm.basis(4, (1, 2, 3)).comps)
    # oracle: direct first-slot contraction on the dense epsilon tensor
    dense = np.tensordot(e0, oracle_epsilon(4), axes=(0, 0))
    assert np.allclose(to_dense(got), dense)


def test_insert_one_form_evaluates_metric_square():
    sig = Signature.mostly_minus(4)
    v = RNG.standard_normal(4)
    flat = PForm(4, 1, musical(v, sig))
    assert insert(v, flat).comps[0] == pytest.approx(v[0] ** 2 - np.sum(v[1:] ** 2))


def test_insert_nilpotent():
    v = RNG.standard_normal(5)
    a = random_form(5, 3)
    assert np.allclose(insert(v, insert(v, a)).comps, 0.0, atol=1e-13)


def test_insert_into_scalar_raises():
    with pytest.raises(ValueError):
        insert(np.zeros(4), PForm(4, 0, np.array([1.0])))


def test_insertion_hodge_identity():
    # i_v (star a) = star(a ^ v_flat), and star v_flat = i_v eps
    rng = np.random.default_rng(99)
    for n in (3, 4, 5):
        sig = Signature.mostly_minus(n)
        for p in range(n):
            a = random_form(n, p, rng)
            v = rng.standard_normal(n)
            lhs = insert(v, hodge(a, sig))
            rhs = hodge(wedge(a, PForm(n, 1, musical(v, sig))), sig)
            assert np.allclose(lhs.comps, rhs.comps, atol=1e-12)
        v = rng.standard_normal(n)
        assert np.allclose(
            hodge(PForm(n, 1, musical(v, sig)), sig).comps,
            insert(v, volume_form(n)).comps,
            atol=1e-13,
        )


# --- batched general-metric variants ---


def test_raise_comps_diag_matches_factors():
    sig = Signature.mostly_minus(4)
    a = random_form(4, 2)
    raised = raise_comps(a.comps, 4, 2, sig.matrix)
    factors = np.array(
        [sig.diag[i] * sig.diag[j] for (i, j) in multi_indices(4, 2)], dtype=float
    )
    assert np.allclose(raised, a.comps * factors)


def raise_comps_reference(comps, n, p, ginv):
    """The defining sum out_A = det(ginv[A][:, J]) comps_J, one LAPACK det per minor."""
    idxs = multi_indices(n, p)
    out = np.zeros_like(comps)
    for i, A in enumerate(idxs):
        for j, J in enumerate(idxs):
            minor = ginv[..., list(A), :][..., :, list(J)]
            out[..., i] += np.linalg.det(minor) * comps[..., j]
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_raise_comps_matches_determinant_definition(n):
    rng = np.random.default_rng(100 + n)
    m = 5
    # Q diag(+-[0.5, 2]) Q^T: symmetric, indefinite, condition number <= 4
    q, _ = np.linalg.qr(rng.standard_normal((m, n, n)))
    eig = rng.uniform(0.5, 2.0, (m, n)) * np.where(rng.random(n) < 0.5, -1.0, 1.0)
    batched = np.einsum("...ik,...k,...jk->...ij", q, eig, q)
    for ginv in (batched, batched[0]):
        for p in range(n + 1):
            comps = rng.standard_normal((m, math.comb(n, p)))
            got = raise_comps(comps, n, p, ginv)
            ref = raise_comps_reference(comps, n, p, ginv)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_batched_hodge_matches_single_on_curved_metric():
    # pointwise dual with a non-flat diagonal metric against the dense oracle
    rng = np.random.default_rng(3)
    n = 4
    g = np.diag([1.0, -1.44, -1.0, -0.81])
    ginv = np.linalg.inv(g)
    eps_top = math.sqrt(abs(np.linalg.det(g)))
    eps = oracle_epsilon(n) * eps_top
    for p in (1, 2, 3):
        comps = rng.standard_normal((6, math.comb(n, p)))
        got = hodge_comps(comps, n, p, ginv, eps_top)
        for k in range(6):
            a_dense = to_dense(PForm(n, p, comps[k]))
            a_up = a_dense.copy()
            for axis in range(p):
                shape = [1] * p
                shape[axis] = n
                a_up = a_up * np.diag(ginv).reshape(shape)
            dual = np.tensordot(a_up, eps, axes=(tuple(range(p)), tuple(range(p))))
            dual /= math.factorial(p)
            assert np.allclose(to_dense(PForm(n, n - p, got[k])), dual, atol=1e-12)


def test_batched_wedge_insert_inner_match_scalar_paths():
    a, b = random_form(4, 1), random_form(4, 2)
    v = RNG.standard_normal(4)
    assert np.allclose(wedge_comps(a.comps, 1, b.comps, 2, 4), wedge(a, b).comps)
    assert np.allclose(insert_comps(v, b.comps, 4, 2), insert(v, b).comps)


# --- misc ---


def test_perm_sign_basics():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 1, 2)) == 0


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(1, (1,))
    with pytest.raises(ValueError):
        Signature(3, (1, 2, -1))
    assert Signature.mostly_minus(4).n_minus == 3
    assert Signature.mostly_plus(4).n_minus == 1


def test_pform_comps_are_frozen():
    f = random_form(4, 2)
    with pytest.raises(ValueError):
        f.comps[0] = 5.0


def test_basis_rejects_non_increasing_indices():
    with pytest.raises(ValueError, match="increasing"):
        PForm.basis(4, (2, 1))
    with pytest.raises(ValueError, match="increasing"):
        PForm.basis(3, (0, 3))


def test_from_dense_round_trip():
    f = random_form(5, 3)
    assert np.allclose(from_dense(to_dense(f)).comps, f.comps)


def test_from_dense_of_a_scalar_is_a_zero_form():
    f = from_dense(np.array(2.5))
    assert (f.n, f.p) == (0, 0)
    assert f.comps.tolist() == [2.5]

"""Graded exterior algebra over an n-dimensional inner-product space.

Forms are stored densely over lexicographically ordered strictly increasing
multi-indices.  The conventions in force throughout the package:

* ``wedge`` carries the (p+q)!/(p!q!) combinatorial factor, hence on
  coefficients it is the signed shuffle sum and
  ``theta(a1)^...^theta(ap)`` has coefficient +1 at (a1 < ... < ap).
* the inner product on p-forms is the renormalised one,
  ``<a, b> = (1/p!) a_{i1..ip} b^{i1..ip}``, i.e. the plain sum over
  increasing multi-indices with indices raised by the metric.
* the Hodge dual is fixed by ``wedge(b, hodge(a)) = eps * <b, a>`` with
  ``eps`` the volume form valued +1 on an oriented orthonormal basis; in
  components the *first* p indices of epsilon are contracted.
* ``insert`` contracts a vector into the first slot.

Dense representations are tiny (C(n, p) <= 70 for n <= 8), so everything
is exact small-integer combinatorics on float64 arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Signature",
    "PForm",
    "Vector",
    "Covector",
    "multi_indices",
    "multi_index_rank",
    "perm_sign",
    "wedge",
    "inner_norm",
    "musical",
    "hodge",
    "insert",
    "volume_form",
    "minor_det",
    "raise_comps",
    "hodge_comps",
    "insert_comps",
    "wedge_comps",
]

# Vectors and covectors are plain float arrays of length n.
Vector = np.ndarray
Covector = np.ndarray


@dataclass(frozen=True)
class Signature:
    """Diagonal inner product diag(d_0, ..., d_{n-1}) with d_a = +-1.

    Entry 0 is +1 in the default mostly-minus convention (one timelike
    direction).  Both Lorentzian conventions, and any other +-1 pattern,
    are accepted.
    """

    n: int
    diag: tuple

    def __post_init__(self):
        if not (2 <= self.n <= 8):
            raise ValueError(f"dimension must be in [2, 8], got {self.n}")
        if len(self.diag) != self.n or any(d not in (-1, 1) for d in self.diag):
            raise ValueError(f"diag must be {self.n} entries of +-1, got {self.diag}")

    @classmethod
    def mostly_minus(cls, n: int) -> "Signature":
        return cls(n, (1,) + (-1,) * (n - 1))

    @classmethod
    def mostly_plus(cls, n: int) -> "Signature":
        return cls(n, (-1,) + (1,) * (n - 1))

    @property
    def n_minus(self) -> int:
        return sum(1 for d in self.diag if d == -1)

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.diag, dtype=float))


@lru_cache(maxsize=None)
def multi_indices(n: int, p: int) -> tuple:
    """All strictly increasing p-tuples from range(n), lexicographic."""
    return tuple(itertools.combinations(range(n), p))


@lru_cache(maxsize=None)
def multi_index_rank(n: int, p: int) -> dict:
    """Flat offset of each increasing multi-index (combinatorial number system)."""
    return {idx: k for k, idx in enumerate(multi_indices(n, p))}


def perm_sign(seq) -> int:
    """Sign of the permutation sorting ``seq`` ascending; 0 on repeats."""
    seq = tuple(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class PForm:
    """Degree-p antisymmetric covariant tensor with C(n, p) components.

    ``comps[k]`` is the coefficient at the k-th increasing multi-index;
    degree-0 and degree-n forms hold a single scalar.
    """

    n: int
    p: int
    comps: np.ndarray

    def __post_init__(self):
        if not (0 <= self.p <= self.n):
            raise ValueError(f"degree {self.p} outside [0, {self.n}]")
        comps = np.asarray(self.comps, dtype=float)
        if comps.shape != (math.comb(self.n, self.p),):
            raise ValueError(
                f"expected {math.comb(self.n, self.p)} components for degree "
                f"{self.p} in dimension {self.n}, got shape {comps.shape}"
            )
        if not np.all(np.isfinite(comps)):
            raise ValueError("non-finite form components")
        comps.flags.writeable = False
        object.__setattr__(self, "comps", comps)

    @classmethod
    def basis(cls, n: int, idx) -> "PForm":
        """theta^{a1} ^ ... ^ theta^{ap} for an increasing tuple ``idx``."""
        idx = tuple(idx)
        ranks = multi_index_rank(n, len(idx))
        if idx not in ranks:
            raise ValueError(
                f"{idx} is not a strictly increasing multi-index in range({n})"
            )
        comps = np.zeros(math.comb(n, len(idx)))
        comps[ranks[idx]] = 1.0
        return cls(n, len(idx), comps)

    def __mul__(self, c: float) -> "PForm":
        return PForm(self.n, self.p, self.comps * float(c))

    __rmul__ = __mul__

    def _check_same(self, other: "PForm"):
        if self.n != other.n or self.p != other.p:
            raise ValueError(
                f"form mismatch: ({self.n},{self.p}) vs ({other.n},{other.p})"
            )


@lru_cache(maxsize=None)
def _wedge_table(n: int, p: int, q: int) -> tuple:
    """(out_rank, a_rank, b_rank, sign) entries of the signed shuffle sum."""
    rank_p = multi_index_rank(n, p)
    rank_q = multi_index_rank(n, q)
    entries = []
    for out_rank, idx in enumerate(multi_indices(n, p + q)):
        for sub in itertools.combinations(idx, p):
            rest = tuple(i for i in idx if i not in sub)
            entries.append(
                (out_rank, rank_p[sub], rank_q[rest], perm_sign(sub + rest))
            )
    return tuple(entries)


def wedge(a: PForm, b: PForm) -> PForm:
    """Antisymmetric product; graded-commutative, a^b = (-1)^{pq} b^a.

    Degrees exceeding n return the zero top form (the exterior algebra
    vanishes above the top degree).
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n, p, q = a.n, a.p, b.p
    if p + q > n:
        return PForm(n, n, np.zeros(1))
    comps = np.zeros(math.comb(n, p + q))
    for out_rank, a_rank, b_rank, sign in _wedge_table(n, p, q):
        comps[out_rank] += sign * a.comps[a_rank] * b.comps[b_rank]
    return PForm(n, p + q, comps)


@lru_cache(maxsize=None)
def _diag_raise_factors(diag: tuple, p: int) -> np.ndarray:
    """Per-multi-index product of metric diagonal entries (diag is its own inverse)."""
    n = len(diag)
    return np.array(
        [np.prod([diag[a] for a in idx]) for idx in multi_indices(n, p)], dtype=float
    )


def inner_norm(a: PForm, b: PForm, sig: Signature) -> float:
    """Renormalised inner product (1/p!) a_{i...} b^{i...}."""
    a._check_same(b)
    if a.n != sig.n:
        raise ValueError(f"dimension mismatch with signature: {a.n} vs {sig.n}")
    return float(np.dot(a.comps, b.comps * _diag_raise_factors(sig.diag, a.p)))


def musical(v: Vector, sig: Signature) -> Covector:
    """Index lowering, (v_flat)_a = g_ab v^b; on a +-1 diagonal it is also
    index raising, its own inverse."""
    v = np.asarray(v, dtype=float)
    return v * np.asarray(sig.diag, dtype=float)


@lru_cache(maxsize=None)
def _hodge_table(n: int, p: int) -> tuple:
    """(out_rank, in_rank, sign) with the complement pairing of epsilon."""
    rank_out = multi_index_rank(n, n - p)
    entries = []
    for in_rank, idx in enumerate(multi_indices(n, p)):
        comp = tuple(i for i in range(n) if i not in idx)
        entries.append((rank_out[comp], in_rank, perm_sign(idx + comp)))
    return tuple(entries)


def hodge(a: PForm, sig: Signature) -> PForm:
    """Hodge dual, fixed by wedge(b, hodge(a)) = volume_form * inner_norm(b, a)."""
    if a.n != sig.n:
        raise ValueError(f"dimension mismatch with signature: {a.n} vs {sig.n}")
    n, p = a.n, a.p
    raised = a.comps * _diag_raise_factors(sig.diag, p)
    comps = np.zeros(math.comb(n, n - p))
    for out_rank, in_rank, sign in _hodge_table(n, p):
        comps[out_rank] = sign * raised[in_rank]
    return PForm(n, n - p, comps)


@lru_cache(maxsize=None)
def _insert_table(n: int, p: int) -> tuple:
    """(out_rank, axis, in_rank, sign) entries of first-slot contraction."""
    rank_in = multi_index_rank(n, p)
    entries = []
    for out_rank, rest in enumerate(multi_indices(n, p - 1)):
        for c in range(n):
            if c in rest:
                continue
            full = tuple(sorted((c,) + rest))
            sign = (-1) ** sum(1 for j in rest if j < c)
            entries.append((out_rank, c, rank_in[full], sign))
    return tuple(entries)


def insert(v: Vector, a: PForm) -> PForm:
    """Contract v into the first slot; nilpotent, insert(v, insert(v, .)) = 0."""
    if a.p == 0:
        raise ValueError("cannot insert into a degree-0 form")
    v = np.asarray(v, dtype=float)
    if v.shape != (a.n,):
        raise ValueError(f"vector shape {v.shape} does not match dimension {a.n}")
    comps = np.zeros(math.comb(a.n, a.p - 1))
    for out_rank, axis, in_rank, sign in _insert_table(a.n, a.p):
        comps[out_rank] += sign * v[axis] * a.comps[in_rank]
    return PForm(a.n, a.p - 1, comps)


def volume_form(n: int) -> PForm:
    """Top form with component +1 in the oriented orthonormal chart."""
    return PForm(n, n, np.array([1.0]))


# ---------------------------------------------------------------------------
# Batched component-level variants for a general (possibly point-dependent)
# nondegenerate symmetric metric.  ``comps`` has shape (..., C(n, p)); the
# metric inverse has shape (..., n, n) or (n, n); ``eps_top`` is the single
# component of the metric volume form in the working chart (sqrt|det g| for
# an oriented coordinate chart, 1 for an orthonormal one).
#
# Form-valued samples share the tile layout: component-major, node axes
# fastest, so each component is one contiguous node row.  insert_comps and
# wedge_comps write theirs so, and add or subtract each term into its row
# in place (:func:`_accumulate`).
# ---------------------------------------------------------------------------


def _accumulate(out: np.ndarray, rank: int, sign: int, term) -> None:
    """out[..., rank] += sign * term in place, as one add or subtract:
    (-a) b = -(a b) and x + (-y) = x - y exactly, so the bytes are those of
    the signed sum."""
    row = out[..., rank]
    (np.add if sign > 0 else np.subtract)(row, term, out=row)


def minor_det(m: np.ndarray, rows: tuple, cols: tuple, _memo=None) -> np.ndarray:
    """det(m[..., rows, cols]) by first-row Laplace expansion on the strided
    entries ``m[..., r, c]``: no minor is copied and no LAPACK call is made.

    Every sub-minor keeps the trailing rows, so its columns name it: ``_memo``
    holds each distinct one, computed once (2**n sub-minors instead of n!)
    with the arithmetic of the plain recursion, so the result is bitwise the
    same. It lives for one top-level call."""
    if len(rows) == 1:
        return m[..., rows[0], cols[0]]
    memo = {} if _memo is None else _memo
    out = 0.0
    for k, c in enumerate(cols):
        sub = cols[:k] + cols[k + 1 :]
        if sub not in memo:
            memo[sub] = minor_det(m, rows[1:], sub, memo)
        term = m[..., rows[0], c] * memo[sub]
        out = out + term if k % 2 == 0 else out - term
    return out


def raise_comps(comps: np.ndarray, n: int, p: int, ginv: np.ndarray) -> np.ndarray:
    """Raise all p indices: out_A = det(ginv[A, J]) comps_J summed over J."""
    comps = np.asarray(comps, dtype=float)
    ginv = np.asarray(ginv, dtype=float)
    if p == 0:
        return comps.copy()
    if p == 1:
        return np.einsum("...ab,...b->...a", ginv, comps)
    idxs = multi_indices(n, p)
    out = np.zeros_like(comps)
    for i, A in enumerate(idxs):
        for j, J in enumerate(idxs):
            out[..., i] += minor_det(ginv, A, J) * comps[..., j]
    return out


def hodge_comps(
    comps: np.ndarray, n: int, p: int, ginv: np.ndarray, eps_top=1.0
) -> np.ndarray:
    """Batched Hodge dual components for a general metric."""
    raised = raise_comps(comps, n, p, ginv)
    out_shape = np.asarray(comps).shape[:-1] + (math.comb(n, n - p),)
    out = np.zeros(out_shape)
    for out_rank, in_rank, sign in _hodge_table(n, p):
        out[..., out_rank] = sign * raised[..., in_rank]
    eps_top = np.asarray(eps_top, dtype=float)
    return out * (eps_top[..., None] if eps_top.ndim else eps_top)


def insert_comps(v: np.ndarray, comps: np.ndarray, n: int, p: int) -> np.ndarray:
    """Batched first-slot contraction; v has shape (..., n)."""
    if p == 0:
        raise ValueError("cannot insert into a degree-0 form")
    v = np.asarray(v, dtype=float)
    comps = np.asarray(comps, dtype=float)
    out = np.zeros(comps.shape[:-1] + (math.comb(n, p - 1),), order="F")
    for out_rank, axis, in_rank, sign in _insert_table(n, p):
        _accumulate(out, out_rank, sign, v[..., axis] * comps[..., in_rank])
    return out


def wedge_comps(a, pa: int, b, pb: int, n: int) -> np.ndarray:
    """Batched wedge of component arrays (degrees must satisfy pa+pb <= n)."""
    if pa + pb > n:
        raise ValueError("wedge degree exceeds dimension")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out_shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (
        math.comb(n, pa + pb),
    )
    out = np.zeros(out_shape, order="F")
    for out_rank, a_rank, b_rank, sign in _wedge_table(n, pa, pb):
        _accumulate(out, out_rank, sign, a[..., a_rank] * b[..., b_rank])
    return out

"""Bounded hyperplane patches, induced measures, and flux integrals.

A patch is an oriented bounded (n-1)-dimensional affine plane carrying its
own quadrature rule: by default the midpoint rule on a uniform grid in
tangent coordinates, optionally a caller-supplied node/weight set (used for
radially adapted rules on scenario fields with 1/r^4 tails).  Node
placement lives in tangent coordinates, so transforming a patch maps nodes
exactly onto nodes and change-of-variables identities hold to roundoff.

Sums are fixed-order pairwise reductions, deterministic across tile counts
and thread counts (``LAUE_LAB_THREADS`` caps the evaluation pool).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .exterior import Signature, multi_indices
from .fields import MetricField, SymTensorField, VectorField, dual_form
from .poincare import PoincareElement, PoinLieElement, _matvec, bivector_to_matrix, is_isometry, pairing

__all__ = [
    "HyperplanePatch",
    "MomentumValue",
    "IntegralRecord",
    "induced_measure",
    "integrate_form",
    "integrate_scalar_density",
    "flux_charge",
    "flux_charge_normal_form",
    "four_momentum",
    "patch_moments",
    "stress_integrals",
    "laue_integrals",
    "LAUE_NAMES",
    "transform_patch",
    "momentum_map",
    "momentum_basis",
    "box_rule",
    "spherical_rule",
    "map_rule_affine",
    "pairwise_sum",
]

LAUE_NAMES = ("T01", "T02", "T03", "T11", "T12", "T13", "T22", "T23", "T33")


BLOCK = 128
# 512 = 2**9 blocks: every tile but the last is a whole subtree of the
# pairwise tree, so pairwise-summing the tile sums is the whole-column sum
TILE = 65536


def _pair_tree(partials: np.ndarray) -> np.ndarray:
    """Add adjacent partials level by level along the last axis, carrying an odd tail."""
    while partials.shape[-1] > 1:
        half = partials.shape[-1] // 2
        head = partials[..., : 2 * half].reshape(partials.shape[:-1] + (half, 2)).sum(axis=-1)
        partials = np.concatenate([head, partials[..., 2 * half :]], axis=-1)
    return partials[..., 0]


def pairwise_sum(values: np.ndarray):
    """Fixed-order pairwise reduction: numpy sums each 128-block, then
    :func:`_pair_tree` adds the block sums.

    A 2-D (m, c) input gives its c column sums, each bitwise the sum of
    that column alone; any other input is flattened and gives a float.
    """
    values = np.asarray(values, dtype=float)
    columns = values.ndim == 2
    rows = np.ascontiguousarray(values.T) if columns else values.reshape(1, -1)
    m = rows.shape[1]
    full = m - m % BLOCK
    sums = rows[:, :full].reshape(len(rows), full // BLOCK, BLOCK).sum(axis=-1)
    if full < m:
        sums = np.concatenate([sums, rows[:, full:].sum(axis=-1, keepdims=True)], axis=-1)
    sums = _pair_tree(sums) if m else np.zeros(len(rows))
    return sums if columns else float(sums[0])


def _thread_count() -> int:
    """``LAUE_LAB_THREADS``, at least 1 and at most ``os.cpu_count()``."""
    raw = os.environ.get("LAUE_LAB_THREADS", "1")
    try:
        return min(max(1, int(raw)), os.cpu_count() or 1)
    except ValueError:
        return 1


def _map_tiles(work: Callable, m: int) -> list:
    """``work(lo, hi)`` on the tiles of range(m), pooled; results in tile order."""
    bounds = [(lo, min(lo + TILE, m)) for lo in range(0, m, TILE)]
    workers = _thread_count()
    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda b: work(*b), bounds))
    return [work(lo, hi) for lo, hi in bounds]


def evaluate_tiled(func: Callable, points: np.ndarray) -> np.ndarray:
    """Evaluate a batched field tile by tile; tile order fixes the result."""
    points = np.asarray(points, float)
    if points.shape[0] <= TILE:
        return np.asarray(func(points), float)
    return np.concatenate(
        _map_tiles(lambda lo, hi: np.asarray(func(points[lo:hi]), float), points.shape[0])
    )


def box_rule(half_widths, grid):
    """Midpoint rule on the box of the given half widths with ``grid[k]``
    cells along axis k: nodes (m, len(grid)) in C order, equal weights (m,)."""
    axes = []
    cell = 1.0
    for L, N in zip(half_widths, grid):
        step = 2.0 * L / N
        axes.append(-L + (np.arange(N) + 0.5) * step)
        cell *= step
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    return nodes, np.full(nodes.shape[0], cell)


@dataclass(frozen=True)
class HyperplanePatch:
    """Bounded flat (n-1)-patch with unit non-null normal, oriented by the
    handedness of its tangent frame (:meth:`frame_phase`).

    ``tangent_frame`` rows are eta-orthonormal and eta-orthogonal to the
    normal.  ``rule_nodes``/``rule_weights`` override the default midpoint
    grid; nodes are tangent coordinates, weights already include the cell
    measure.
    """

    origin: np.ndarray
    tangent_frame: np.ndarray
    normal: np.ndarray
    half_widths: np.ndarray
    grid: tuple
    sig: Signature
    rule_nodes: Optional[np.ndarray] = None
    rule_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        origin = np.asarray(self.origin, float)
        frame = np.asarray(self.tangent_frame, float)
        normal = np.asarray(self.normal, float)
        hw = np.asarray(self.half_widths, float)
        n = self.sig.n
        if origin.shape != (n,) or normal.shape != (n,) or frame.shape != (n - 1, n):
            raise ValueError("patch shapes inconsistent with dimension")
        eta = self.sig.matrix
        nn = float(normal @ eta @ normal)
        if abs(nn) < 1e-10:
            raise ValueError("patch normal is null (lightlike patches unsupported)")
        if abs(abs(nn) - 1.0) > 1e-10:
            raise ValueError("patch normal must be unit, |g(n,n)| = 1")
        gram = frame @ eta @ frame.T
        # tangent frame must be eta-orthonormal (each row squares to +-1)
        offdiag = gram - np.diag(np.diag(gram))
        if np.max(np.abs(offdiag)) > 1e-12 or np.max(np.abs(np.abs(np.diag(gram)) - 1.0)) > 1e-10:
            raise ValueError("tangent frame is not eta-orthonormal")
        if np.max(np.abs(frame @ eta @ normal)) > 1e-12:
            raise ValueError("normal is not eta-orthogonal to the tangent frame")
        if (hw <= 0).any() or len(self.grid) != n - 1 or any(g < 1 for g in self.grid):
            raise ValueError("half widths must be positive, grid at least 1 per axis")
        for name, val in (("origin", origin), ("tangent_frame", frame),
                          ("normal", normal), ("half_widths", hw)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)
        object.__setattr__(self, "grid", tuple(int(g) for g in self.grid))
        if (self.rule_nodes is None) != (self.rule_weights is None):
            raise ValueError("rule nodes and weights must be supplied together")
        if self.rule_nodes is not None:
            nodes = np.asarray(self.rule_nodes, float)
            weights = np.asarray(self.rule_weights, float)
            if nodes.ndim != 2 or nodes.shape[1] != n - 1 or weights.shape != (nodes.shape[0],):
                raise ValueError("bad custom rule shapes")
            nodes.flags.writeable = False
            weights.flags.writeable = False
            object.__setattr__(self, "rule_nodes", nodes)
            object.__setattr__(self, "rule_weights", weights)

    @classmethod
    def time_slice(
        cls,
        sig: Signature,
        t: float = 0.0,
        half_widths=None,
        grid=None,
    ) -> "HyperplanePatch":
        """Constant-time slice x^0 = t with the spatial coordinate frame."""
        n = sig.n
        origin = np.zeros(n)
        origin[0] = t
        frame = np.eye(n)[1:]
        normal = np.eye(n)[0]
        hw = np.full(n - 1, 1.0) if half_widths is None else np.asarray(half_widths, float)
        if np.ndim(hw) == 0:
            hw = np.full(n - 1, float(hw))
        grid = (32,) * (n - 1) if grid is None else tuple(np.atleast_1d(grid).astype(int))
        if len(grid) == 1:
            grid = grid * (n - 1)
        return cls(origin, frame, normal, hw, grid, sig)

    def with_rule(self, nodes: np.ndarray, weights: np.ndarray) -> "HyperplanePatch":
        return replace(self, rule_nodes=np.asarray(nodes, float),
                       rule_weights=np.asarray(weights, float))

    def nodes_weights(self):
        """Tangent-coordinate nodes and weights of the quadrature rule."""
        if self.rule_nodes is not None:
            return self.rule_nodes, self.rule_weights
        return box_rule(self.half_widths, self.grid)

    def points(self, nodes=None) -> np.ndarray:
        """origin + sum_k nodes[:, k] frame[k], per node without BLAS
        (exact for coordinate frames)."""
        if nodes is None:
            nodes, _ = self.nodes_weights()
        pts = _matvec(nodes, self.tangent_frame.T)
        pts += self.origin  # in place: a second (m, n) array raised peak RSS
        return pts

    def frame_phase(self) -> float:
        """Coordinate determinant det[normal | tangent frame] (+-1 flat)."""
        mat = np.column_stack([self.normal, self.tangent_frame.T])
        return float(np.linalg.det(mat))

    def normal_square(self) -> float:
        return float(self.normal @ self.sig.matrix @ self.normal)


@dataclass(frozen=True)
class MomentumValue:
    """Pairing representative of the momentum functional plus raw fluxes."""

    lie: PoinLieElement
    fluxes: np.ndarray

    def components(self) -> np.ndarray:
        return self.lie.components()


@dataclass(frozen=True)
class IntegralRecord:
    """Traceable emitted number: (name, value, grid, h, refinement_ratio)."""

    name: str
    value: float
    grid: str = ""
    h: float = float("nan")
    refinement_ratio: float = float("nan")
    tolerance: float = float("nan")
    verdict: str = ""

    @classmethod
    def gated(cls, name, value, tol, grid="", passed=None, **meta):
        """Record judged against ``tol``: it passes when |value| < tol, or
        when ``passed`` says so for a check that is not a plain bound."""
        ok = abs(value) < tol if passed is None else passed
        return cls(name, value, grid, tolerance=tol, verdict="pass" if ok else "fail", **meta)


def induced_measure(patch: HyperplanePatch):
    """Measure (n-1)-form +-(insert normal into volume form) on the patch.

    Positive sign for a timelike normal, negative for a spacelike one; a
    null normal is rejected at patch construction.  For the standard time
    slice this is the spatial coordinate volume form.
    """
    from .exterior import insert, volume_form

    sign = 1.0 if patch.normal_square() > 0 else -1.0
    return sign * insert(patch.normal, volume_form(patch.sig.n))


def _measure_factor(patch: HyperplanePatch) -> float:
    """Pullback of the induced measure onto the tangent frame (flat chart)."""
    sign = 1.0 if patch.normal_square() > 0 else -1.0
    return sign * patch.frame_phase()


def _reduce_patch(func: Callable, patch: HyperplanePatch, factor: float, weighted_rows: Callable):
    """Sums over the patch of ``weighted_rows(samples, points, w)``, a (c, m)
    array per tile whose rows carry w, the rule weight times ``factor``:
    the one sample-and-reduce pass.

    Tile by tile it forms the points, samples ``func``, rejects non-finite
    samples and pairwise-sums each row; the tile sums then go through the
    same pairwise tree, so every result is bitwise the pairwise sum of the
    whole row, at any thread count, while memory stays bounded by the tile.
    """
    nodes, weights = patch.nodes_weights()
    weights = weights * factor

    def tile_sums(lo, hi):
        pts = patch.points(nodes[lo:hi])
        vals = evaluate_tiled(func, pts)
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise FloatingPointError(f"non-finite sample near point {pts[bad[0]]}")
        # the transpose of the rows is column input that needs no copy
        return pairwise_sum(weighted_rows(vals, pts, weights[lo:hi]).T)

    return _pair_tree(np.stack(_map_tiles(tile_sums, len(weights)), axis=-1))


def integrate_form(omega, patch: HyperplanePatch) -> float:
    """Midpoint (or custom-rule) integral of an (n-1)-form over the patch.

    Deterministic pairwise summation; aborts on non-finite samples.
    """
    n = patch.sig.n
    # pull back onto the tangent frame: sum_I omega_I det(frame[I])
    dets = np.array(
        [np.linalg.det(patch.tangent_frame.T[list(I), :]) for I in multi_indices(n, n - 1)]
    )

    def pulled_back(vals, pts, w):
        return (np.sum(vals * dets, axis=1) * w)[None]

    return float(_reduce_patch(omega, patch, 1.0, pulled_back)[0])


def integrate_scalar_density(f, patch: HyperplanePatch, g: Optional[MetricField] = None) -> float:
    """Integral of a scalar against the induced measure d(mu)."""
    curved = g is not None and not g.flat

    def density(vals, pts, w):
        return ((vals * g.eps_top(pts) if curved else vals) * w)[None]

    return float(_reduce_patch(f, patch, _measure_factor(patch), density)[0])


def flux_charge(J: VectorField, patch: HyperplanePatch, g: MetricField) -> float:
    """Charge of J at the patch: integral of the dual (n-1)-form of J_flat."""
    return integrate_form(dual_form(J, g), patch)


def flux_charge_normal_form(J: VectorField, patch: HyperplanePatch, g: MetricField) -> float:
    """Same charge through the non-null-normal route, integral of g(J, n) d(mu).

    Kept as an independent code path; agrees with :func:`flux_charge` for
    non-null patches.
    """

    def f(points):
        points = np.asarray(points, float)
        gv = g(points)
        return np.einsum("...ab,...a,b->...", gv, J(points), patch.normal)

    return integrate_scalar_density(f, patch, g)


def patch_moments(T: SymTensorField, patch: HyperplanePatch) -> np.ndarray:
    """The weighted moment M0^{ab} = sum w T^{ab} that the four-momentum, the
    stress integrals and the weak-field mass of T on the patch contract,
    where w is the rule weight times the induced-measure factor.  The patch
    is sampled once.
    """
    n = patch.sig.n

    def weighted_rows(Tv, pts, w):
        m = len(pts)
        return np.multiply(Tv.reshape(m, n * n).T, w, out=np.empty((n * n, m)))

    return _reduce_patch(T, patch, _measure_factor(patch), weighted_rows).reshape(n, n)


def four_momentum(T: SymTensorField, patch: HyperplanePatch) -> np.ndarray:
    """Row-current fluxes: the integral of T^{a b} n_b over the patch."""
    return patch_moments(T, patch) @ (patch.sig.matrix @ patch.normal)


def stress_integrals(M0: np.ndarray, patch: HyperplanePatch) -> dict:
    """The nine time-slice stress integrals read off the moment M0 of T:
    rows T^{0m}, block T^{mn}, m <= n.

    Requires a constant-time patch in a four-dimensional chart.  Symmetry of
    T is asserted by construction, so the twelve naive integrals reduce to
    nine independent ones.
    """
    n = patch.sig.n
    if n != 4:
        raise ValueError("the nine stress integrals are four-dimensional")
    e0 = np.zeros(n)
    e0[0] = 1.0
    if np.max(np.abs(np.abs(patch.normal) - e0)) > 1e-12:
        raise ValueError("stress integrals are defined on a constant-time slice")
    return {name: M0[int(name[1]), int(name[2])] for name in LAUE_NAMES}


def laue_integrals(T: SymTensorField, patch: HyperplanePatch):
    """The nine time-slice stress integrals of T (see :func:`stress_integrals`)."""
    return stress_integrals(patch_moments(T, patch), patch)


def transform_patch(g_elt: PoincareElement, patch: HyperplanePatch) -> HyperplanePatch:
    """Image patch under an isometry; quadrature nodes map to node images."""
    if not is_isometry(g_elt, patch.sig):
        raise ValueError("patch transforms are defined for isometries only")
    return replace(
        patch,
        origin=g_elt.apply(patch.origin),
        tangent_frame=patch.tangent_frame @ g_elt.A.T,
        normal=g_elt.A @ patch.normal,
    )


def momentum_basis(n: int):
    """Generator basis: n translations, then C(n,2) wedge rotations/boosts."""
    from .poincare import wedge_vectors

    basis = []
    for a in range(n):
        P = np.zeros(n)
        P[a] = 1.0
        basis.append(PoinLieElement(P, np.zeros(math.comb(n, 2))))
    eye = np.eye(n)
    for a, b in multi_indices(n, 2):
        basis.append(PoinLieElement(np.zeros(n), wedge_vectors(eye[a], eye[b])))
    return basis


@lru_cache(maxsize=None)
def _generator_pairing(sig: Signature):
    """Per basis generator xi, the lowered parts (eta P, eta E) of its
    current K_a T^{ab} with K = P + E (x - origin); and the Gram matrix of
    ``pairing`` over the basis.  Both depend on the signature alone."""
    eta = sig.matrix
    basis = momentum_basis(sig.n)
    currents = tuple((eta @ xi.P, eta @ bivector_to_matrix(xi.M, sig)) for xi in basis)
    return currents, np.array([[pairing(x, y, sig) for y in basis] for x in basis])


def _flux_moments(T: SymTensorField, patch: HyperplanePatch, n_low, origin: np.ndarray):
    """F0^a = sum w j^a and F1^{ac} = sum (w j^a) (x - origin)^c of the
    normal flux j^a = T^{ab} n_b, sampled per node by :meth:`SymTensorField.flux`
    (n + n^2 rows instead of the n^2 + n^3 of T and its first moment)."""
    n = patch.sig.n

    def weighted_rows(jv, pts, w):
        m = len(pts)
        rows = np.empty((n + n * n, m))
        np.multiply(jv.T, w, out=rows[:n])
        # a contiguous (x - origin)^T: a strided one doubled the F1 product's time
        x = np.subtract(pts.T, origin[:, None], out=np.empty((n, m)))
        np.multiply(rows[:n, None], x, out=rows[n:].reshape(n, n, m))
        return rows

    sums = _reduce_patch(
        lambda pts: T.flux(pts, n_low), patch, _measure_factor(patch), weighted_rows
    )
    return sums[:n], sums[n:].reshape(n, n)


def momentum_map(T: SymTensorField, patch: HyperplanePatch, origin: np.ndarray) -> MomentumValue:
    """Fluxes of the generator currents through the patch, resolved in the
    Lie-algebra pairing.

    Each basis generator xi contributes the flux of the current contraction
    (V_xi)_a T^{ab}; the returned element satisfies
    pairing(value, xi_i) = flux_i.  The translation sector reproduces
    :func:`four_momentum`.
    """
    sig = patch.sig
    n = sig.n
    origin = np.asarray(origin, float)
    F0, F1 = _flux_moments(T, patch, sig.matrix @ patch.normal, origin)
    currents, gram = _generator_pairing(sig)
    fluxes = np.array([KP @ F0 + np.sum(KE * F1) for KP, KE in currents])
    try:
        coeffs = np.linalg.solve(gram, fluxes)
    except np.linalg.LinAlgError as exc:  # cannot occur for this pairing
        raise RuntimeError("degenerate generator pairing") from exc
    lie = PoinLieElement(coeffs[:n], coeffs[n:])
    return MomentumValue(lie, fluxes)


# --- radially adapted rules for 1/r^4 scenario tails ---


def _simpson(n: int) -> np.ndarray:
    """Composite Simpson coefficients 1, 4, 2, ..., 2, 4, 1 over n intervals
    (times step/3 they are the weights)."""
    if n % 2 or n < 2:
        raise ValueError("Simpson needs an even interval count >= 2")
    coeff = np.ones(n + 1)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    return coeff


def spherical_rule(segments, n_theta: int, n_phi: int):
    """Product rule on R^3: per-segment Simpson in radius (optionally on a
    log grid), midpoint in cos(theta) and phi.

    ``segments`` is a list of (r_lo, r_hi, n_r, spacing) with spacing in
    {"linear", "log"} and even n_r.  Returns (nodes (m,3), weights (m,))
    with the r^2 Jacobian folded into the weights.
    """
    r_list, wr_list = [], []
    for r_lo, r_hi, n_r, spacing in segments:
        coeff = _simpson(n_r)
        if spacing == "log":
            if r_lo <= 0:
                raise ValueError("log spacing needs r_lo > 0")
            s = np.linspace(math.log(r_lo), math.log(r_hi), n_r + 1)
            r = np.exp(s)
            jac = r  # dr/ds
            ds = s[1] - s[0]
        elif spacing == "linear":
            r = np.linspace(r_lo, r_hi, n_r + 1)
            jac = np.ones_like(r)
            ds = r[1] - r[0]
        else:
            raise ValueError(f"unknown spacing {spacing!r}")
        wr = coeff * ds / 3.0 * jac * r**2
        r_list.append(r)
        wr_list.append(wr)
    r_all = np.concatenate(r_list)
    wr_all = np.concatenate(wr_list)

    du = 2.0 / n_theta
    u = -1.0 + (np.arange(n_theta) + 0.5) * du
    dphi = 2.0 * math.pi / n_phi
    phi = (np.arange(n_phi) + 0.5) * dphi
    su = np.sqrt(1.0 - u**2)
    dirs = np.stack(
        [
            np.outer(su, np.cos(phi)).ravel(),
            np.outer(su, np.sin(phi)).ravel(),
            np.repeat(u, n_phi),
        ],
        axis=-1,
    )
    w_ang = np.full(dirs.shape[0], du * dphi)
    nodes = (r_all[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    weights = (wr_all[:, None] * w_ang[None, :]).ravel()
    return nodes, weights


def map_rule_affine(nodes: np.ndarray, weights: np.ndarray, S: np.ndarray, shift):
    """Push a spatial rule through u = S x + shift: x = S^{-1}(u - shift)."""
    S = np.asarray(S, float)
    Sinv = np.linalg.inv(S)
    mapped = _matvec(np.asarray(nodes, float) - np.asarray(shift, float), Sinv)
    return mapped, np.asarray(weights, float) * abs(np.linalg.det(Sinv))

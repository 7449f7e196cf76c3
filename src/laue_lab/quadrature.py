"""Bounded hyperplane patches, induced measures, and flux integrals.

A patch is an oriented bounded (n-1)-dimensional affine plane carrying its
own quadrature rule: a patch carries one :class:`ProductRule` (the midpoint
rule on a box, or a radially adapted rule on scenario fields with 1/r^4
tails).  Node placement lives in tangent
coordinates, so transforming a patch maps nodes exactly onto nodes and
change-of-variables identities hold to roundoff.

A rule is held as its 1-D factors and built one tile at a time; sums are
fixed-order pairwise reductions over one tile at a time, deterministic
across runs and tile sizes.

Tile arrays are component-major: each coordinate is one contiguous row of
a (dim, m) block, handed out as its (m, dim) transposed view.  Rules emit
their nodes so, and the per-node maps (:func:`poincare._matvec`) and finite
differences keep it, so every map and field closure runs along contiguous
node rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .exterior import Signature, multi_indices
from .fields import MetricField, SymTensorField, VectorField, _require_finite, dual_form
from .poincare import PoincareElement, PoinLieElement, _matvec, is_isometry

__all__ = [
    "HyperplanePatch",
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
    "MAX_NODES",
    "ProductRule",
    "spherical_rule",
    "map_rule_affine",
    "pairwise_sum",
]

LAUE_NAMES = ("T01", "T02", "T03", "T11", "T12", "T13", "T22", "T23", "T33")


BLOCK = 128
# 64 = 2**6 blocks: every tile but the last is a whole subtree of the
# pairwise tree, so pairwise-summing the tile sums is the whole-column sum.
# A tile of n**2 samples (1 MB at n = 4) fits in one core's L2.
TILE = 8192


def _pair_tree(partials: np.ndarray) -> np.ndarray:
    """Add adjacent partials level by level along the last axis, carrying an odd tail."""
    while partials.shape[-1] > 1:
        head = partials[..., 0:-1:2] + partials[..., 1::2]
        # as numpy's sum of a pair, which starts from +0.0: -0.0 + -0.0 gives +0.0
        head += 0.0
        if partials.shape[-1] % 2:
            head = np.concatenate([head, partials[..., -1:]], axis=-1)
        partials = head
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


def evaluate_tiled(func: Callable, points: np.ndarray) -> np.ndarray:
    """Samples of a batched field at the points of one tile, as floats."""
    return np.asarray(func(np.asarray(points, float)), float)


# the largest rule a patch may carry; a larger one is refused from its factor
# sizes, before any factor is allocated.  ``scenario coulomb_shell --grid-n
# 96`` is 2,230,272 nodes; one streamed pass over 2**25 takes seconds.
MAX_NODES = 2**25


def _node_count(m: int) -> int:
    """``m``, or ValueError when it exceeds :data:`MAX_NODES`."""
    if m > MAX_NODES:
        raise ValueError(f"a quadrature rule of {m:,} nodes exceeds the cap of "
                         f"{MAX_NODES:,} nodes (quadrature.MAX_NODES)")
    return m


@dataclass(frozen=True)
class ProductRule:
    """A quadrature rule in tangent coordinates, handed out a tile at a time.

    Node k pairs row k // inner of an outer factor with row k % inner of an
    inner one: radii with the direction table of a spherical rule, or axis-0
    midpoints with the mesh of the other axes of a box.  ``rows(i0, i1)``
    builds the nodes and weights of outer rows [i0, i1) with the expressions
    of the whole rule, so a tile is bitwise those nodes of the whole rule,
    component-major.
    ``affine`` = (S^-1, shift, |det S^-1|), if set, maps each tile as
    :func:`map_rule_affine`.  ``extent`` = (half widths, cells per axis) is
    set by :meth:`box` alone and cleared by :meth:`mapped`: it is the box
    whose faces and edge cells the box-only checks read.
    """

    size: int
    dim: int
    inner: int
    rows: Callable
    affine: Optional[tuple] = None
    extent: Optional[tuple] = None

    @classmethod
    def box(cls, half_widths, grid) -> "ProductRule":
        """Midpoint rule on the box of the given half widths with ``grid[k]``
        cells along axis k: nodes in C order, equal weights."""
        half_widths = np.array(half_widths, float)
        grid = tuple(int(N) for N in grid)
        if (half_widths.shape != (len(grid),) or any(N < 1 for N in grid)
                or not ((0 < half_widths) & (half_widths < np.inf)).all()):
            raise ValueError("half widths must be positive and finite, grid at least 1 per axis")
        half_widths.flags.writeable = False
        size = _node_count(math.prod(grid))
        axes = []
        cell = 1.0
        for L, N in zip(half_widths, grid):
            step = 2.0 * L / N
            axes.append(-L + (np.arange(N) + 0.5) * step)
            cell *= step
        mesh = np.meshgrid(*axes[1:], indexing="ij")
        # one row per coordinate of the other axes: (dim - 1, mesh size)
        rest = np.stack([m.ravel() for m in mesh]) if mesh else np.zeros((0, 1))
        dim, inner = len(axes), rest.shape[1]

        def rows(i0, i1):
            nodes = np.empty((dim, i1 - i0, inner))
            nodes[0] = axes[0][i0:i1, None]
            nodes[1:] = rest[:, None, :]
            return nodes.reshape(dim, -1).T, np.full((i1 - i0) * inner, cell)

        return cls(size, dim, inner, rows, extent=(half_widths, grid))

    @classmethod
    def spherical(cls, segments, n_theta: int, n_phi: int) -> "ProductRule":
        """Product rule on R^3: per-segment Simpson in radius (optionally on a
        log grid), midpoint in cos(theta) and phi.

        ``segments`` is a list of (r_lo, r_hi, n_r, spacing) with spacing in
        {"linear", "log"} and even n_r.  The r^2 Jacobian is folded into the
        weights.
        """
        size = _node_count(sum(seg[2] + 1 for seg in segments) * n_theta * n_phi)
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
        # one row per coordinate: (3, n_theta * n_phi)
        dirs = np.stack(
            [
                np.outer(su, np.cos(phi)).ravel(),
                np.outer(su, np.sin(phi)).ravel(),
                np.repeat(u, n_phi),
            ]
        )
        w_ang = np.full(dirs.shape[1], du * dphi)

        def rows(i0, i1):
            return ((dirs[:, None, :] * r_all[None, i0:i1, None]).reshape(3, -1).T,
                    (wr_all[i0:i1, None] * w_ang[None, :]).ravel())

        return cls(size, 3, dirs.shape[1], rows)

    def mapped(self, S, shift) -> "ProductRule":
        """This rule pushed through u = S x + shift, tile by tile; a mapped
        box is no box in tangent coordinates, so it has no ``extent``."""
        return replace(self, affine=_inverse_map(S, shift), extent=None)

    def tile(self, lo: int, hi: int):
        """Nodes (k, dim) and weights (k,) of the nodes [lo, min(hi, size))."""
        hi = min(hi, self.size)
        i0 = lo // self.inner
        nodes, weights = self.rows(i0, -(-hi // self.inner))
        cut = slice(lo - i0 * self.inner, hi - i0 * self.inner)
        nodes, weights = nodes[cut], weights[cut]
        if self.affine is not None:
            nodes, weights = _map_affine(nodes, weights, *self.affine)
        return nodes, weights

    def whole(self):
        """Nodes (size, dim) and weights (size,) of the whole rule."""
        return self.tile(0, self.size)


@dataclass(frozen=True)
class HyperplanePatch:
    """Bounded flat (n-1)-patch with unit non-null normal, oriented by the
    handedness of its tangent frame (:meth:`frame_phase`).

    ``tangent_frame`` rows are eta-orthonormal and eta-orthogonal to the
    normal.  ``rule`` is the patch's one quadrature rule: its nodes are
    tangent coordinates, its weights already include the cell measure.
    """

    origin: np.ndarray
    tangent_frame: np.ndarray
    normal: np.ndarray
    sig: Signature
    rule: ProductRule

    def __post_init__(self):
        origin = np.asarray(self.origin, float)
        frame = np.asarray(self.tangent_frame, float)
        normal = np.asarray(self.normal, float)
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
        for name, val in (("origin", origin), ("tangent_frame", frame), ("normal", normal)):
            val.flags.writeable = False
            object.__setattr__(self, name, val)
        if self.rule.dim != n - 1:
            raise ValueError("the rule's dimension must be n - 1")

    @classmethod
    def time_slice(
        cls,
        sig: Signature,
        t: float = 0.0,
        half_widths=None,
        grid=None,
    ) -> "HyperplanePatch":
        """Constant-time slice x^0 = t with the spatial coordinate frame, on the
        midpoint box rule (half widths 1 and 32 cells per axis by default)."""
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
        return cls(origin, frame, normal, sig, ProductRule.box(hw, grid))

    @property
    def rule_nodes(self) -> np.ndarray:
        """The rule's whole node array, built on each read."""
        return self.rule.whole()[0]

    def nodes_weights(self):
        """Tangent-coordinate nodes and weights of the whole quadrature rule."""
        return self.rule.whole()

    def points(self, nodes) -> np.ndarray:
        """origin + sum_k nodes[:, k] frame[k]: (m, n) points, component-major
        whatever the layout of ``nodes`` (see :func:`poincare._matvec`)."""
        pts = _matvec(nodes, self.tangent_frame.T)
        pts += self.origin  # in place: a second (m, n) array raised peak RSS
        return pts

    def frame_phase(self) -> float:
        """Coordinate determinant det[normal | tangent frame] (+-1 flat)."""
        mat = np.column_stack([self.normal, self.tangent_frame.T])
        return float(np.linalg.det(mat))

    def normal_square(self) -> float:
        return float(self.normal @ self.sig.matrix @ self.normal)


def _measure_factor(patch: HyperplanePatch) -> float:
    """Pullback of the induced measure onto the tangent frame (flat chart)."""
    sign = 1.0 if patch.normal_square() > 0 else -1.0
    return sign * patch.frame_phase()


def _reduce_patch(func: Callable, patch: HyperplanePatch, factor: float, weighted_rows: Callable):
    """Sums over the patch of ``weighted_rows(samples, points, w)``, a (c, m)
    array per tile whose rows carry w, the rule weight times ``factor``:
    the one sample-and-reduce pass.

    Tile by tile it asks the rule for the nodes and weights, forms the
    points, samples ``func``, rejects non-finite samples and pairwise-sums
    each row; the tile sums then go through the same pairwise tree, so every
    result is bitwise the pairwise sum of the whole row, while memory stays
    bounded by the one tile in flight, rule included.
    """
    rule = patch.rule
    sums, vals = [], None
    for lo in range(0, rule.size, TILE):
        nodes, weights = rule.tile(lo, lo + TILE)
        pts = patch.points(nodes)
        # sample with neither the rule slab the nodes are cut from nor the last
        # tile's samples alive; dropped only now, the samples keep the heap
        # from emptying between tiles, so glibc does not trim it every tile
        del nodes, vals
        vals = evaluate_tiled(func, pts)
        _require_finite(vals, pts)
        # the transpose of the rows is column input that needs no copy
        sums.append(pairwise_sum(weighted_rows(vals, pts, weights * factor).T))
    return _pair_tree(np.stack(sums, axis=-1))


def integrate_form(omega, patch: HyperplanePatch) -> float:
    """Integral of an (n-1)-form over the patch on its rule.

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


def integrate_scalar_density(f, patch: HyperplanePatch, g: MetricField) -> float:
    """Integral of a scalar against the induced measure d(mu) of the metric g."""

    def density(vals, pts, w):
        return (vals * g.eps_top(pts) * w)[None]

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
        gv = g(points)
        return np.einsum("...ab,...a,b->...", gv, J(points), patch.normal)

    return integrate_scalar_density(f, patch, g)


def patch_moments(T: SymTensorField, patch: HyperplanePatch) -> np.ndarray:
    """The weighted moment M0^{ab} = sum w T^{ab} that the stress integrals,
    the weak-field mass and the classical P of T on the patch contract,
    where w is the rule weight times the induced-measure factor.  The patch
    is sampled once.

    T is symmetric by construction, so of the n**2 sampled components only
    the n(n+1)/2 rows a <= b are weighted and reduced, and M0 is their
    mirror: a field whose samples are not bitwise symmetric gets its upper
    triangle mirrored.
    """
    n = patch.sig.n
    upper = np.triu_indices(n)

    def weighted_rows(Tv, pts, w):
        m = len(pts)
        rows, out = Tv.reshape(m, n * n).T, np.empty((len(upper[0]), m))
        k = 0
        for a in range(n):  # the contiguous row slice T^{a,a..n-1}
            np.multiply(rows[a * n + a : (a + 1) * n], w, out=out[k : k + n - a])
            k += n - a
        return out

    M0 = np.empty((n, n))
    M0[upper] = M0.T[upper] = _reduce_patch(T, patch, _measure_factor(patch), weighted_rows)
    return M0


def four_momentum(T: SymTensorField, patch: HyperplanePatch) -> np.ndarray:
    """Row-current fluxes: the integral of j^a = T^{ab} n_b over the patch, the
    translation sector of :func:`momentum_map`, n rows per node from T.flux."""
    n_low = patch.sig.matrix @ patch.normal
    return _reduce_patch(
        lambda pts: T.flux(pts, n_low), patch, _measure_factor(patch), lambda jv, pts, w: jv.T * w
    )


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


def _flux_moments(T: SymTensorField, patch: HyperplanePatch, n_low, origin: np.ndarray):
    """F0^a = sum w j^a and F1^{ac} = sum (w j^a) (x - origin)^c of the
    normal flux j^a = T^{ab} n_b, sampled per node by :meth:`SymTensorField.flux`
    as in :func:`four_momentum` (n + n^2 rows instead of the n^2 + n^3 of T
    and its first moment)."""
    n = patch.sig.n

    def weighted_rows(jv, pts, w):
        m = len(pts)
        rows = np.empty((n + n * n, m))
        np.multiply(jv.T, w, out=rows[:n])
        np.multiply(rows[:n, None], pts.T - origin[:, None], out=rows[n:].reshape(n, n, m))
        return rows

    sums = _reduce_patch(
        lambda pts: T.flux(pts, n_low), patch, _measure_factor(patch), weighted_rows
    )
    return sums[:n], sums[n:].reshape(n, n)


def momentum_map(T: SymTensorField, patch: HyperplanePatch, origin: np.ndarray) -> PoinLieElement:
    """The momentum-map value (P, M) of T on the patch about ``origin``:
    P^a = F0^a and M^{ab} = F1^{ab} - F1^{ba} from the flux moments of
    :func:`_flux_moments`.

    It is the element whose pairing with each generator xi of
    :func:`momentum_basis` is the flux of the current (V_xi)_a T^{ab}.  That
    holds exactly because the basis is pairing-orthogonal with entries +-1:
    the eta factors of a generator's current are those of its pairing.  The
    translation sector reproduces :func:`four_momentum`.
    """
    F0, F1 = _flux_moments(T, patch, patch.sig.matrix @ patch.normal, np.asarray(origin, float))
    return PoinLieElement(F0, [F1[a, b] - F1[b, a] for a, b in multi_indices(patch.sig.n, 2)])


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
    """Whole arrays of :meth:`ProductRule.spherical`: nodes (m, 3), weights (m,)."""
    return ProductRule.spherical(segments, n_theta, n_phi).whole()


def _inverse_map(S, shift):
    """(S^-1, shift, |det S^-1|) of the map u = S x + shift."""
    Sinv = np.linalg.inv(np.asarray(S, float))
    return Sinv, np.asarray(shift, float), abs(np.linalg.det(Sinv))


def _map_affine(nodes, weights, Sinv, shift, jac):
    return _matvec(np.asarray(nodes, float) - shift, Sinv), np.asarray(weights, float) * jac


def map_rule_affine(nodes: np.ndarray, weights: np.ndarray, S: np.ndarray, shift):
    """Push a spatial rule through u = S x + shift: x = S^{-1}(u - shift)."""
    return _map_affine(nodes, weights, *_inverse_map(S, shift))

"""Point-evaluable fields on an affine chart and their calculus.

Fields are closures over analytic formulas, never stored grids; every
evaluation callback is batched: it takes points of shape (..., n) and
returns components with matching leading axes.  Derivatives are central
differences of step ``h`` (O(h^2) on smooth fields), so every fd-based
check can report a refinement ratio by re-running at h/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exterior import (
    Signature,
    insert_comps,
    minor_det,
    multi_index_rank,
    multi_indices,
    wedge_comps,
)
from .poincare import PoincareElement, _matvec, invert

__all__ = [
    "ScalarField",
    "VectorField",
    "FormField",
    "CoFormField",
    "SymTensorField",
    "Cov2Field",
    "MetricField",
    "DEFAULT_H",
    "fd_partial",
    "exterior_derivative",
    "christoffels",
    "divergence",
    "lie_derivative",
    "killing_residual",
    "active_transform",
    "boost_emt_analytic",
    "emt_to_form",
    "contract_coform",
    "dual_form",
    "current_from_killing",
    "identity_residuals",
    "stationarity_residual",
    "symmetry_residual",
]

DEFAULT_H = 1e-3


@dataclass
class ScalarField:
    """Scalar field; ``grad`` optionally supplies the analytic gradient."""

    func: Callable
    grad: Optional[Callable] = None

    def __call__(self, points):
        return np.asarray(self.func(np.asarray(points, float)), float)

    def gradient(self, points, h: float = DEFAULT_H):
        points = np.asarray(points, float)
        if self.grad is not None:
            return np.asarray(self.grad(points), float)
        if h <= 0:
            raise ValueError("step must be positive")
        return _fd_stack(self, points, h, -1)


@dataclass
class VectorField:
    func: Callable

    def __call__(self, points):
        return np.asarray(self.func(np.asarray(points, float)), float)


@dataclass
class FormField:
    """Degree-p form field; components over increasing multi-indices."""

    n: int
    p: int
    func: Callable

    def __call__(self, points):
        return np.asarray(self.func(np.asarray(points, float)), float)


@dataclass
class CoFormField:
    """Covector-valued (n-1)-form field: components (..., n, C(n, n-1))."""

    n: int
    func: Callable

    def __call__(self, points):
        return np.asarray(self.func(np.asarray(points, float)), float)


@dataclass
class SymTensorField:
    """Symmetric (2,0) tensor field T^{ab} (energy density units, c = 1).

    ``flux_func(points, n_low)`` optionally supplies the normal flux
    T^{ab} n_b without forming the components; see :meth:`flux`.
    """

    func: Callable
    analytic_divergence: Optional[Callable] = None
    flux_func: Optional[Callable] = None

    def __call__(self, points):
        return np.asarray(self.func(np.asarray(points, float)), float)

    def flux(self, points, n_low):
        """The normal flux j^a = T^{ab} n_b per point, for a covector ``n_low``."""
        if self.flux_func is not None:
            return np.asarray(self.flux_func(np.asarray(points, float), n_low), float)
        return np.einsum("...ab,b->...a", self(points), n_low)


@dataclass
class Cov2Field:
    """Plain (0,2) tensor field, e.g. a Lie derivative of a metric."""

    func: Callable

    def __call__(self, points):
        return np.asarray(self.func(np.asarray(points, float)), float)


@dataclass
class MetricField:
    """Pointwise nondegenerate symmetric (0,2) field with constant signature.

    ``flat`` asserts the field is ``sig.matrix``; it is set when no ``func`` is.
    """

    sig: Signature
    func: Optional[Callable] = None
    flat: bool = False

    def __post_init__(self):
        if self.func is None:
            eta = self.sig.matrix

            def func(points):
                points = np.asarray(points, float)
                return np.broadcast_to(eta, points.shape[:-1] + eta.shape)

            self.func = func
            self.flat = True

    @classmethod
    def minkowski(cls, n: int = 4) -> "MetricField":
        return cls(Signature.mostly_minus(n))

    @property
    def n(self) -> int:
        return self.sig.n

    def __call__(self, points):
        return np.asarray(self.func(np.asarray(points, float)), float)

    def eps_top(self, points):
        """Volume-form component sqrt|det g| in the working chart (1 when flat)."""
        return 1.0 if self.flat else np.sqrt(np.abs(np.linalg.det(self(points))))


def _shift(points, direction, h):
    points = np.asarray(points, float)
    out = points.copy()
    out[..., direction] += h
    return out


def _central(f, points, d: int, h: float):
    """The one central-difference stencil (f(x + h e_d) - f(x - h e_d)) / 2h."""
    return (f(_shift(points, d, h)) - f(_shift(points, d, -h))) / (2 * h)


def _fd_stack(f, points, h: float, axis: int):
    """:func:`_central` along every chart axis d, stacked at ``axis``."""
    n = points.shape[-1]
    return np.stack([_central(f, points, d, h) for d in range(n)], axis=axis)


def fd_partial(f, direction: int, h: float = DEFAULT_H):
    """Central-difference partial derivative along a chart axis.

    Returns a field of the same kind; O(h^2) accurate on smooth fields.
    """
    if h <= 0:
        raise ValueError("step must be positive")

    def func(points):
        return _central(f, points, direction, h)

    if isinstance(f, ScalarField):
        return ScalarField(func)
    if isinstance(f, VectorField):
        return VectorField(func)
    if isinstance(f, FormField):
        return FormField(f.n, f.p, func)
    if isinstance(f, SymTensorField):
        return SymTensorField(func)
    if isinstance(f, CoFormField):
        return CoFormField(f.n, func)
    if isinstance(f, (Cov2Field, MetricField)):
        return Cov2Field(func)
    if callable(f):
        return func
    raise TypeError(f"cannot differentiate {type(f)!r}")


def exterior_derivative(omega: FormField, h: float = DEFAULT_H) -> FormField:
    """Finite-difference exterior derivative; d(d omega) = O(h^2)."""
    n, p = omega.n, omega.p
    if p >= n:
        return FormField(n, n, lambda pts: np.zeros(np.asarray(pts).shape[:-1] + (1,)))
    rank_p = multi_index_rank(n, p)
    table = []
    for out_rank, idx in enumerate(multi_indices(n, p + 1)):
        for k, axis in enumerate(idx):
            rest = idx[:k] + idx[k + 1 :]
            table.append((out_rank, axis, rank_p[rest], (-1.0) ** k))

    def func(points):
        points = np.asarray(points, float)
        partials = _fd_stack(omega, points, h, 0)
        out = np.zeros(points.shape[:-1] + (math.comb(n, p + 1),))
        for out_rank, axis, in_rank, sign in table:
            out[..., out_rank] += sign * partials[axis][..., in_rank]
        return out

    return FormField(n, p + 1, func)


def christoffels(g: MetricField, h: float = DEFAULT_H):
    """Levi-Civita coefficients Gamma^a_{bc} from central differences of g."""
    n = g.n

    def func(points):
        points = np.asarray(points, float)
        if g.flat:
            return np.zeros(points.shape[:-1] + (n, n, n))
        dg = _fd_stack(g, points, h, -3)  # (..., d, a, b) = partial_d g_ab
        ginv = np.linalg.inv(g(points))
        # Gamma^a_{bc} = (1/2) g^{ad} (d_b g_dc + d_c g_db - d_d g_bc)
        term = (
            np.einsum("...bdc->...dbc", dg)
            + np.einsum("...cdb->...dbc", dg)
            - np.einsum("...dbc->...dbc", dg)
        )
        return 0.5 * np.einsum("...ad,...dbc->...abc", ginv, term)

    return func


def divergence(T: SymTensorField, g: MetricField, h: float = DEFAULT_H) -> VectorField:
    """Covariant divergence (nabla . T)^a; flat charts reduce to d_b T^{ab}."""
    if T.analytic_divergence is not None:
        return VectorField(T.analytic_divergence)
    gamma = christoffels(g, h)

    def func(points):
        points = np.asarray(points, float)
        dT = _fd_stack(T, points, h, -3)  # (..., d, a, b)
        out = np.einsum("...bab->...a", dT)
        if not g.flat:
            G = gamma(points)
            Tv = T(points)
            out = out + np.einsum("...abc,...bc->...a", G, Tv)
            out = out + np.einsum("...bbc,...ac->...a", G, Tv)
        return out

    return VectorField(func)


def lie_derivative(field, V: VectorField, h: float = DEFAULT_H):
    """Lie derivative along V.

    Forms use the symmetrised combination of d and insertion; vector and
    tensor fields use the component formulas with central differences.
    A MetricField argument returns a plain (0,2) field.
    """
    if isinstance(field, FormField):
        n, p = field.n, field.p
        if p == 0:
            def func0(points):
                points = np.asarray(points, float)
                grads = _fd_stack(field, points, h, -1)  # (..., C, d)
                return np.einsum("...Cd,...d->...C", grads, V(points))
            return FormField(n, 0, func0)
        d_omega = exterior_derivative(field, h)

        def func(points):
            points = np.asarray(points, float)
            v = V(points)
            inner = FormField(
                n, p - 1, lambda pts: insert_comps(V(pts), field(pts), n, p)
            )
            term1 = exterior_derivative(inner, h)(points)
            term2 = insert_comps(v, d_omega(points), n, p + 1)
            return term1 + term2

        return FormField(n, p, func)

    if isinstance(field, VectorField):
        def func_vec(points):
            points = np.asarray(points, float)
            jV = _fd_stack(V, points, h, -1)
            jW = _fd_stack(field, points, h, -1)
            return np.einsum("...ad,...d->...a", jW, V(points)) - np.einsum(
                "...ad,...d->...a", jV, field(points)
            )

        return VectorField(func_vec)

    if isinstance(field, SymTensorField):
        def func_t(points):
            points = np.asarray(points, float)
            dT = _fd_stack(field, points, h, -3)
            jV = _fd_stack(V, points, h, -1)  # (..., a, d)
            Tv = field(points)
            out = np.einsum("...dab,...d->...ab", dT, V(points))
            out -= np.einsum("...ac,...cb->...ab", jV, Tv)
            out -= np.einsum("...bc,...ac->...ab", jV, Tv)
            return out

        return SymTensorField(func_t)

    if isinstance(field, (MetricField, Cov2Field)):
        def func_g(points):
            points = np.asarray(points, float)
            dg = _fd_stack(field, points, h, -3)
            jV = _fd_stack(V, points, h, -1)  # (..., c, d) = d_d V^c
            gv = field(points)
            out = np.einsum("...dab,...d->...ab", dg, V(points))
            out += np.einsum("...cb,...ca->...ab", gv, jV)
            out += np.einsum("...ac,...cb->...ab", gv, jV)
            return out

        return Cov2Field(func_g)

    raise TypeError(f"no Lie derivative for {type(field)!r}")


def _nabla_K(K: VectorField, g: MetricField, points, h: float):
    """(nabla_a K_b) = d_a(g_bc K^c) - Gamma^c_ab K_c at the points, indices (..., a, b).

    A flat metric has no derivative and no connection, so both are skipped.
    """
    gv = g(points)
    jK = _fd_stack(K, points, h, -1)  # (..., b, a) = d_a K^b
    gjK = np.einsum("...cb,...ba->...ac", gv, jK)
    if g.flat:
        return gjK
    Kv = K(points)
    dg = _fd_stack(g, points, h, -3)
    # d_a K_c = (d_a g_cb) K^b + g_cb d_a K^b
    dKl = np.einsum("...acb,...b->...ac", dg, Kv) + gjK
    gamma = christoffels(g, h)(points)
    Kl = np.einsum("...ab,...b->...a", gv, Kv)
    return dKl - np.einsum("...cab,...c->...ab", gamma, Kl)


def killing_residual(
    K: VectorField, g: MetricField, sample_points, h: float = DEFAULT_H
) -> float:
    """Symmetrised-derivative identity residual plus the Killing defect.

    The first part checks nabla_a K_b + nabla_b K_a against (L_K g)_ab
    (an identity for the metric connection, so it only measures fd error);
    the second is max |(L_K g)_ab|, which vanishes exactly on Killing
    fields.  The sum is returned.
    """
    points = np.asarray(sample_points, float)
    nabla = _nabla_K(K, g, points, h)
    sym = nabla + np.swapaxes(nabla, -1, -2)
    lie = lie_derivative(g, K, h)(points)
    identity_part = float(np.max(np.abs(sym - lie)))
    killing_part = float(np.max(np.abs(lie)))
    return identity_part + killing_part


def active_transform(g_elt: PoincareElement, field):
    """Push a field forward along the affine automorphism x -> A x + a.

    Contravariant ranks push forward, covariant ranks pull back along the
    inverse, so composition order matches the group law.  Every rank is one
    constant matrix applied per node by :func:`poincare._matvec`; rank-2
    fields act on their flattened n*n components through a Kronecker square.
    A pushed-forward (2,0) field takes its flux contract-first,
    (g_* T)(., n) = A T(g^-1 x) (A^T n): the covector is pulled back once,
    the source gives its own flux, and one n x n map acts per node.
    """
    ginv = invert(g_elt)
    A, Ainv = g_elt.A, ginv.A

    def mapped(M, rank=1):
        def func(points):
            vals = field(ginv.apply(points))
            comps = vals.reshape(vals.shape[: vals.ndim - rank] + (-1,))
            return _matvec(comps, M).reshape(vals.shape)

        return func

    if isinstance(field, ScalarField):
        return ScalarField(lambda pts: field(ginv.apply(pts)))
    if isinstance(field, VectorField):
        return VectorField(mapped(A))
    if isinstance(field, SymTensorField):
        def flux(points, n_low):
            return _matvec(field.flux(ginv.apply(points), A.T @ n_low), A)

        return SymTensorField(mapped(np.kron(A, A), rank=2), flux_func=flux)
    if isinstance(field, FormField):
        n, p = field.n, field.p
        if p == 0:
            return FormField(n, 0, lambda pts: field(ginv.apply(pts)))
        idxs = multi_indices(n, p)
        D = np.array([[minor_det(Ainv, J, I) for I in idxs] for J in idxs])
        return FormField(n, p, mapped(D.T))
    if isinstance(field, MetricField):
        eta = field.sig.matrix
        flat = field.flat and np.allclose(Ainv.T @ eta @ Ainv, eta)
        return MetricField(field.sig, mapped(np.kron(Ainv.T, Ainv.T), rank=2), flat=flat)
    raise TypeError(f"no active transform for {type(field)!r}")


def boost_emt_analytic(T: SymTensorField, beta: float) -> SymTensorField:
    """Closed-form boost of a (2,0) energy-momentum field along axis 1, n = 4.

    Agrees pointwise with ``active_transform(standard_boost(1, beta), T)``;
    kept as an independent code path for cross-checks.
    """
    if abs(beta) >= 1.0:
        raise ValueError(f"|beta| must be < 1, got {beta}")
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)

    def func(points):
        points = np.asarray(points, float)
        if points.shape[-1] != 4:
            raise ValueError("analytic boost law is four-dimensional")
        under = points.copy()
        under[..., 0] = gamma * (points[..., 0] - beta * points[..., 1])
        under[..., 1] = gamma * (points[..., 1] - beta * points[..., 0])
        Tv = T(under)
        out = np.empty_like(Tv)
        t00, t11, t01 = Tv[..., 0, 0], Tv[..., 1, 1], Tv[..., 0, 1]
        out[..., 0, 0] = gamma**2 * (t00 + beta**2 * t11 + 2 * beta * t01)
        out[..., 1, 1] = gamma**2 * (t11 + beta**2 * t00 + 2 * beta * t01)
        out[..., 0, 1] = gamma**2 * ((1 + beta**2) * t01 + beta * (t00 + t11))
        out[..., 1, 0] = out[..., 0, 1]
        for m in (2, 3):
            t0m, t1m = Tv[..., 0, m], Tv[..., 1, m]
            out[..., 0, m] = gamma * (t0m + beta * t1m)
            out[..., m, 0] = out[..., 0, m]
            out[..., 1, m] = gamma * (t1m + beta * t0m)
            out[..., m, 1] = out[..., 1, m]
        for m in (2, 3):
            for k in (2, 3):
                out[..., m, k] = Tv[..., m, k]
        return out

    return SymTensorField(func)


def _volume_insert(v, g: MetricField, points):
    """i_v mu_g, the dual form star(v_flat), for vectors v of shape (..., [rows,] n).

    mu_g = sqrt|det g| theta^0 ^ ... ^ theta^{n-1}, so the metric enters
    only through its volume factor and is never inverted.
    """
    n = g.n
    out = insert_comps(v, np.ones(v.shape[:-1] + (1,)), n, n)
    eps = np.asarray(g.eps_top(points), float)
    return out * eps.reshape(eps.shape + (1,) * (out.ndim - eps.ndim))


def emt_to_form(T: SymTensorField, g: MetricField) -> CoFormField:
    """Covector-valued (n-1)-form: first index lowered, second dualised."""

    def func(points):
        points = np.asarray(points, float)
        T_mixed = np.einsum("...ac,...cb->...ab", g(points), T(points))  # T_a^b
        return _volume_insert(T_mixed, g, points)

    return CoFormField(g.n, func)


def contract_coform(calT: CoFormField, K: VectorField) -> FormField:
    """Insert K into the value slot: K^a calT_a, an ordinary (n-1)-form."""
    n = calT.n

    def func(points):
        return np.einsum("...a,...aC->...C", K(points), calT(points))

    return FormField(n, n - 1, func)


def dual_form(V: VectorField, g: MetricField) -> FormField:
    """The (n-1)-form star(V_flat) = i_V mu_g: V inserted into the volume form."""

    def func(points):
        points = np.asarray(points, float)
        return _volume_insert(V(points), g, points)

    return FormField(g.n, g.n - 1, func)


def current_from_killing(T: SymTensorField, K: VectorField, g: MetricField):
    """Current J^b = K_a T^{ab} and its dual (n-1)-form star(J_flat)."""

    def j_func(points):
        points = np.asarray(points, float)
        gv = g(points)
        return np.einsum("...ac,...c,...ab->...b", gv, K(points), T(points))

    J = VectorField(j_func)
    return J, dual_form(J, g)


def identity_residuals(
    T: SymTensorField, K: VectorField, g: MetricField, h: float, samples
) -> tuple:
    """Residuals of the two exterior-derivative identities for the
    energy-momentum form.

    r1: max |(D calT)_a - (div T)_a eps| over samples and value slots;
    r2: max |d(calT_K) - (K_a (div T)^a + T^{ab} nabla_a K_b) eps|.
    Both are O(h^2) on smooth inputs.
    """
    n = g.n
    points = np.asarray(samples, float)
    calT = emt_to_form(T, g)
    divT = divergence(T, g, h)
    gv = g(points)
    eps = g.eps_top(points)
    div_low = np.einsum("...ab,...b->...a", gv, divT(points))

    gamma = christoffels(g, h)(points) if not g.flat else None

    r1 = 0.0
    row_forms = [
        FormField(n, n - 1, (lambda a: lambda pts: calT(pts)[..., a, :])(a))
        for a in range(n)
    ]
    d_rows = [exterior_derivative(f, h)(points)[..., 0] for f in row_forms]
    if gamma is not None:
        calT_v = calT(points)
        for a in range(n):
            # connection correction: -(Gamma^b_{ca} dx^c) ^ calT_b
            for b in range(n):
                one_form = gamma[..., b, :, a]
                corr = wedge_comps(one_form, 1, calT_v[..., b, :], n - 1, n)
                d_rows[a] = d_rows[a] - corr[..., 0]
    for a in range(n):
        r1 = max(r1, float(np.max(np.abs(d_rows[a] - div_low[..., a] * eps))))

    tk = contract_coform(calT, K)
    lhs = exterior_derivative(tk, h)(points)[..., 0]
    trace_term = np.einsum("...ab,...ab->...", T(points), _nabla_K(K, g, points, h))
    rhs = (np.einsum("...a,...a->...", K(points), div_low) + trace_term) * eps
    r2 = float(np.max(np.abs(lhs - rhs)))
    return r1, r2


def _require_finite(vals, points):
    """Raise FloatingPointError at the first non-finite row of ``vals``, one per point."""
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise FloatingPointError(f"non-finite sample near point {points[bad[0]]}")


def stationarity_residual(field, h: float, samples) -> float:
    """Max |central time derivative| over the samples; a non-finite one raises."""
    points = np.asarray(samples, float)
    dt = _central(field, points, 0, h)
    _require_finite(dt, points)
    return float(np.max(np.abs(dt)))


def symmetry_residual(T: SymTensorField, samples) -> float:
    Tv = T(np.asarray(samples, float))
    return float(np.max(np.abs(Tv - np.swapaxes(Tv, -1, -2))))

"""Point-evaluable fields on an affine chart and their calculus.

Fields are closures over analytic formulas, never stored grids; every
evaluation callback is batched: it takes points of shape (..., n) and
returns components with matching leading axes.  Derivatives are central
differences of step ``h`` (O(h^2) on smooth fields), so every fd-based
check can report a refinement ratio by re-running at h/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .exterior import (
    Signature,
    _accumulate,
    _insert_table,
    _wedge_table,
    insert_comps,
    minor_det,
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
    "identity_residuals",
    "stationarity_residual",
]

DEFAULT_H = 1e-3


def _sample(field, points):
    """``field.func`` at ``points``: every field class's ``__call__``, and the one
    place points become a float array, so no closure converts them again."""
    return np.asarray(field.func(np.asarray(points, float)), float)


@dataclass
class ScalarField:
    func: Callable

    __call__ = _sample

    def gradient(self, points, h: float = DEFAULT_H):
        """Central-difference gradient, components (..., n)."""
        points = np.asarray(points, float)
        if h <= 0:
            raise ValueError("step must be positive")
        return _fd_stack(self, points, h, -1)


@dataclass
class VectorField:
    func: Callable

    __call__ = _sample


@dataclass
class FormField:
    """Degree-p form field; components over increasing multi-indices."""

    n: int
    p: int
    func: Callable

    __call__ = _sample


@dataclass
class CoFormField:
    """Covector-valued (n-1)-form field: components (..., n, C(n, n-1))."""

    n: int
    func: Callable

    __call__ = _sample


@dataclass
class SymTensorField:
    """Symmetric (2,0) tensor field T^{ab} (energy density units, c = 1).

    ``flux_func(points, n_low)`` optionally supplies the normal flux
    T^{ab} n_b without forming the components; see :meth:`flux`.
    """

    func: Callable
    flux_func: Optional[Callable] = None

    __call__ = _sample

    def flux(self, points, n_low):
        """The normal flux j^a = T^{ab} n_b per point, for a covector ``n_low``."""
        if self.flux_func is not None:
            return np.asarray(self.flux_func(np.asarray(points, float), n_low), float)
        return np.einsum("...ab,b->...a", self(points), n_low)


@dataclass
class Cov2Field:
    """Plain (0,2) tensor field, e.g. a Lie derivative of a metric."""

    func: Callable

    __call__ = _sample


@dataclass
class MetricField:
    """Pointwise nondegenerate symmetric (0,2) field with constant signature.

    ``flat`` says the field is ``sig.matrix``; it is derived, set exactly when
    no ``func`` is given, and only :meth:`eps_top` reads it.
    """

    sig: Signature
    func: Optional[Callable] = None
    flat: bool = field(init=False, default=False)

    def __post_init__(self):
        if self.func is None:
            eta = self.sig.matrix

            def func(points):
                return np.broadcast_to(eta, points.shape[:-1] + eta.shape)

            self.func = func
            self.flat = True

    @classmethod
    def minkowski(cls, n: int = 4) -> "MetricField":
        return cls(Signature.mostly_minus(n))

    @property
    def n(self) -> int:
        return self.sig.n

    __call__ = _sample

    def eps_top(self, points):
        """Volume-form component sqrt|det g| in the working chart (1 when flat).

        The determinant is the memoised Laplace expansion ``minor_det``, with no
        per-node LAPACK call. It is meant for n <= 5: on 8,192 random symmetric
        metrics (2-vCPU Xeon, single-threaded LAPACK) it takes 2.2 against
        4.8 ms at n = 5 but 75 against 9 ms at n = 8. Every curved metric here
        is 4-D."""
        if self.flat:
            return 1.0
        axes = tuple(range(self.n))
        return np.sqrt(np.abs(minor_det(self(points), axes, axes)))


def _spatial_r2(x):
    """Squared norm over the last axis of x (..., 3), added column by column in
    the order np.sum(x * x, axis=-1) takes, so bitwise equal without its
    strided reduction."""
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return (x1 * x1 + x2 * x2) + x3 * x3


def _shift(points, direction, h):
    """points + h e_d, in the memory layout of ``points``; a step that leaves
    some point's coordinate d unchanged raises, since a difference across it
    would read 0 (or half the slope)."""
    points = np.asarray(points, float)
    out = points.copy(order="K")
    column = out[..., direction]
    column += h
    if np.any(column == points[..., direction]):
        raise FloatingPointError(f"fd step {h!r} does not move coordinate {direction}")
    return out


def _central(f, points, d: int, h: float, out=None):
    """The one stencil (f(x + h e_d) - f(x - h e_d)) / 2h, into ``out`` or ``out(f(x + h e_d))``."""
    plus = f(_shift(points, d, h))
    out = np.subtract(plus, f(_shift(points, d, -h)), out=out(plus) if callable(out) else out)
    out /= 2 * h
    return out


def _fd_stack(f, points, h: float, axis: int):
    """:func:`_central` along every chart axis d, written into row d of one
    component-major block with d at ``axis``: the node axes run fastest, so
    each (direction, component) slot is one contiguous node row."""
    n, rows = points.shape[-1], []

    def block(sample):  # made at the first forward sample, whose shape it takes
        rows.append(np.moveaxis(np.empty(sample.shape + (n,), order="F"), -1, 0))
        return rows[0][0, ...]

    for d in range(n):
        _central(f, points, d, h, out=rows[0][d, ...] if rows else block)
    return np.moveaxis(rows[0], 0, axis)


def exterior_derivative(omega: FormField, h: float = DEFAULT_H) -> FormField:
    """Finite-difference exterior derivative; d(d omega) = O(h^2).  A
    covector-valued form (..., n, C(n, p)) is differentiated in one pass,
    each value slot on its own."""
    n, p = omega.n, omega.p
    if p >= n:
        return FormField(n, n, lambda pts: np.zeros(pts.shape[:-1] + (1,)))
    table = _wedge_table(n, 1, p)  # d omega = sum_c dx^c ^ d_c omega

    def func(points):
        partials = _fd_stack(omega, points, h, 0)
        out = np.zeros(partials.shape[1:-1] + (math.comb(n, p + 1),), order="F")
        for out_rank, axis, in_rank, sign in table:
            _accumulate(out, out_rank, sign, partials[axis][..., in_rank])
        return out

    return FormField(n, p + 1, func)


def christoffels(g: MetricField, h: float = DEFAULT_H):
    """Levi-Civita coefficients Gamma^a_{bc} from central differences of g,
    for every metric: on a flat one the differences of a constant are exactly 0."""

    def func(points):
        points = np.asarray(points, float)
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
    """Covariant divergence (nabla . T)^a = d_b T^{ab} + Gamma terms."""
    gamma = christoffels(g, h)

    def func(points):
        dT = _fd_stack(T, points, h, -3)  # (..., d, a, b)
        out = np.einsum("...bab->...a", dT)
        G = gamma(points)
        Tv = T(points)
        out = out + np.einsum("...abc,...bc->...a", G, Tv)
        out = out + np.einsum("...bbc,...ac->...a", G, Tv)
        return out

    return VectorField(func)


def lie_derivative(field, V: VectorField, h: float = DEFAULT_H):
    """Lie derivative along V of a form of degree p >= 1 or a (0,2) field.

    Forms use the symmetrised combination of d and insertion; a metric or
    (0,2) field uses the component formula with central differences and
    returns a plain (0,2) field.
    """
    if isinstance(field, FormField):
        n, p = field.n, field.p
        d_omega = exterior_derivative(field, h)

        def func(points):
            v = V(points)
            inner = FormField(
                n, p - 1, lambda pts: insert_comps(V(pts), field(pts), n, p)
            )
            term1 = exterior_derivative(inner, h)(points)
            term2 = insert_comps(v, d_omega(points), n, p + 1)
            return term1 + term2

        return FormField(n, p, func)

    if isinstance(field, (MetricField, Cov2Field)):
        def func_g(points):
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
    """(nabla_a K_b) = d_a(g_bc K^c) - Gamma^c_ab K_c at the points, indices (..., a, b)."""
    gv = g(points)
    jK = _fd_stack(K, points, h, -1)  # (..., b, a) = d_a K^b
    gjK = np.einsum("...cb,...ba->...ac", gv, jK)
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
    fields.  The sum is returned; a non-finite sample raises.
    """
    points = np.asarray(sample_points, float)
    nabla = _nabla_K(K, g, points, h)
    sym = nabla + np.swapaxes(nabla, -1, -2)
    lie = lie_derivative(g, K, h)(points)
    defect = sym - lie  # NaN wherever lie is, so this check covers both parts
    _require_finite(defect, points)
    identity_part = float(np.max(np.abs(defect)))
    killing_part = float(np.max(np.abs(lie)))
    return identity_part + killing_part


def active_transform(g_elt: PoincareElement, field: SymTensorField) -> SymTensorField:
    """Push a (2,0) field forward along the affine automorphism x -> A x + a.

    Its one law is the flux taken contract-first,
    (g_* T)(., n) = A T(g^-1 x) (A^T n): the covector is pulled back once,
    the source gives its own flux, and one n x n map acts per node through
    :func:`poincare._matvec`.  Its components are the fluxes through the
    coordinate covectors e_b.  Any other field type raises ``TypeError``.
    """
    if not isinstance(field, SymTensorField):
        raise TypeError(f"no active transform for {type(field)!r}")
    ginv = invert(g_elt)
    A = g_elt.A

    def flux(points, n_low):
        return _matvec(field.flux(ginv.apply(points), A.T @ n_low), A)

    def comps(points):  # column b: T^{ab} = (g_* T)(., e_b)^a
        return np.stack([flux(points, e) for e in np.eye(len(A))], axis=-1)

    return SymTensorField(comps, flux_func=flux)


def boost_emt_analytic(T: SymTensorField, beta: float) -> SymTensorField:
    """Closed-form boost of a (2,0) energy-momentum field along axis 1, n = 4.

    Agrees pointwise with ``active_transform(standard_boost(1, beta), T)``;
    kept as an independent code path for cross-checks.
    """
    if abs(beta) >= 1.0:
        raise ValueError(f"|beta| must be < 1, got {beta}")
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)

    def func(points):
        if points.shape[-1] != 4:
            raise ValueError("analytic boost law is four-dimensional")
        under = points.copy(order="K")  # in the caller's layout, as _shift copies
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


def _volume_insert(v, eps):
    """i_v mu_g, the dual form star(v_flat), for vectors v of shape (..., [rows,] n).

    mu_g = sqrt|det g| theta^0 ^ ... ^ theta^{n-1}, so the metric enters
    only through its volume factor ``eps`` (``g.eps_top(points)``) and is
    never inverted.  Each slot is 0 + v^c or 0 - v^c, scaled by eps in place.
    """
    n = v.shape[-1]
    out = np.zeros(v.shape, order="F")  # C(n, n-1) = n slots
    for out_rank, axis, _, sign in _insert_table(n, n):
        _accumulate(out, out_rank, sign, v[..., axis])
    eps = np.asarray(eps, float)
    out *= eps.reshape(eps.shape + (1,) * (out.ndim - eps.ndim))
    return out


def emt_to_form(T: SymTensorField, g: MetricField) -> CoFormField:
    """Covector-valued (n-1)-form: first index lowered, second dualised."""

    def func(points):
        T_mixed = np.einsum("...ac,...cb->...ab", g(points), T(points))  # T_a^b
        return _volume_insert(T_mixed, g.eps_top(points))

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
        return _volume_insert(V(points), g.eps_top(points))

    return FormField(g.n, g.n - 1, func)


def identity_residuals(
    T: SymTensorField, K: VectorField, g: MetricField, h: float, samples
) -> tuple:
    """Residuals of the two exterior-derivative identities for the
    energy-momentum form.

    r1: max |(D calT)_a - (div T)_a eps| over samples and value slots;
    r2: max |d(calT_K) - (K_a (div T)^a + T^{ab} nabla_a K_b) eps|.
    Both are O(h^2) on smooth inputs; a non-finite sample raises.
    """
    n = g.n
    points = np.asarray(samples, float)
    calT = emt_to_form(T, g)
    divT = divergence(T, g, h)
    gv = g(points)
    eps = g.eps_top(points)
    div_low = np.einsum("...ab,...b->...a", gv, divT(points))

    gamma = christoffels(g, h)(points)

    # every row of calT in one stencil pass: d_rows[..., a] = d(calT_a)
    d_rows = exterior_derivative(FormField(n, n - 1, calT), h)(points)[..., 0]
    calT_v = calT(points)
    for a in range(n):
        # connection correction: -(Gamma^b_{ca} dx^c) ^ calT_b
        for b in range(n):
            one_form = gamma[..., b, :, a]
            corr = wedge_comps(one_form, 1, calT_v[..., b, :], n - 1, n)
            d_rows[..., a] -= corr[..., 0]
    defect = d_rows - div_low * np.asarray(eps)[..., None]
    _require_finite(defect, points)
    r1 = float(np.max(np.abs(defect)))

    tk = contract_coform(calT, K)
    lhs = exterior_derivative(tk, h)(points)[..., 0]
    trace_term = np.einsum("...ab,...ab->...", T(points), _nabla_K(K, g, points, h))
    rhs = (np.einsum("...a,...a->...", K(points), div_low) + trace_term) * eps
    defect = lhs - rhs
    _require_finite(defect, points)
    r2 = float(np.max(np.abs(defect)))
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

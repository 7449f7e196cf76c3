"""Theorem-level verdicts built on the field and quadrature machinery.

Every check compares an integral computed one way against an independent
route (closed form, change of variables, or a transformation law) and
reports residuals together with grid metadata, so discretisation error is
attributable and refinable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exterior import Signature, insert_comps, wedge_comps
from .fields import (
    DEFAULT_H,
    FormField,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    _central,
    _require_finite,
    _volume_insert,
    active_transform,
    boost_emt_analytic,
    dual_form,
    exterior_derivative,
    lie_derivative,
    stationarity_residual,
)
from .poincare import PoincareElement, coad, is_isometry, standard_boost
from .quadrature import (
    LAUE_NAMES,
    HyperplanePatch,
    IntegralRecord,
    _measure_factor,
    _reduce_patch,
    _simpson,
    box_rule,
    evaluate_tiled,
    flux_charge,
    four_momentum,
    integrate_form,
    integrate_scalar_density,
    momentum_map,
    patch_moments,
    stress_integrals,
    transform_patch,
)
from .scenarios import ScenarioSpec

__all__ = [
    "BoostEntry",
    "LaueReport",
    "classical_laue_report",
    "fake_covariance_check",
    "gauss_residual",
    "GeometricLaueResult",
    "geometric_laue_residuals",
    "exact_current_factory",
    "EquivarianceEntry",
    "equivariance_report",
    "ConservationResult",
    "conservation_check",
    "vector_divergence",
    "divergence_volume_integral",
]

# a time derivative above this rejects a system as non-stationary
_STATIONARITY_TOL = 1e-8
# a current above this on a patch's edge cells voids a conservation check
_SUPPORT_TOL = 1e-10


@dataclass
class BoostEntry:
    """Per-velocity comparison of the boosted momentum integrals."""

    beta: float
    P_direct: np.ndarray
    P_predicted: np.ndarray
    P_alt_prediction: np.ndarray
    P_four_vector: np.ndarray
    resid_prediction: float
    resid_four_vector: float


@dataclass
class LaueReport:
    """Classic boost-transformation report for one stationary system."""

    scenario: str
    P: np.ndarray
    stress: dict
    entries: list
    rel_tol: float
    grid: str

    @property
    def P0(self) -> float:
        return float(self.P[0])

    @property
    def stress_max_rel(self) -> float:
        return max(abs(v) for v in self.stress.values()) / abs(self.P0)

    @property
    def four_vector_max_rel(self) -> float:
        return max(e.resid_four_vector for e in self.entries)

    @property
    def stress_vanish(self) -> bool:
        return self.stress_max_rel < self.rel_tol

    @property
    def four_vector(self) -> bool:
        """Both sides of the boost-covariance equivalence."""
        return self.four_vector_max_rel < self.rel_tol and self.stress_vanish

    @property
    def biconditional_consistent(self) -> bool:
        """No side of the equivalence holds without the other."""
        return (self.four_vector_max_rel < self.rel_tol) == self.stress_vanish

    def records(self) -> list:
        grid, tol = self.grid, self.rel_tol
        rows = [IntegralRecord(f"P{a}", float(self.P[a]), grid) for a in range(4)]
        for name in LAUE_NAMES:
            rows.append(IntegralRecord.gated(
                f"stress_{name}", float(self.stress[name]), tol * abs(self.P0), grid))
        for e in self.entries:
            tag = f"beta={e.beta:g}"
            for label, P in (
                ("direct", e.P_direct),
                ("predicted", e.P_predicted),
                ("alt_prediction", e.P_alt_prediction),
                ("four_vector", e.P_four_vector),
            ):
                rows += [IntegralRecord(f"P{a}_{label}[{tag}]", float(P[a]), grid) for a in range(4)]
            rows.append(IntegralRecord.gated(
                f"four_vector_residual[{tag}]", e.resid_four_vector, tol, grid))
        rows.append(IntegralRecord.gated(
            "verdict_four_vector", float(self.four_vector), tol, grid, passed=self.four_vector))
        return rows


def _resolve_domain(domain, sig: Signature, scale: float, outer=None):
    """Accept a scenario spec (preferred: scenario-aware adapted rules) or a
    plain patch; return (base patch, adapted-patch factory, grid label,
    stationary flag)."""
    if isinstance(domain, ScenarioSpec):
        base = domain.slice_patch(sig, scale=scale, outer=outer)

        def adapted(g):
            return domain.adapted_slice_patch(g, sig, scale=scale, outer=outer)

        return base, adapted, f"{domain.name}:{domain.kind}:scale={scale:g}", domain.stationary
    if isinstance(domain, HyperplanePatch):
        return domain, (lambda g: domain), f"patch:grid={domain.grid}", True
    raise TypeError(f"expected ScenarioSpec or HyperplanePatch, got {type(domain)!r}")


def classical_laue_report(
    T: SymTensorField,
    domain,
    betas,
    sig: Optional[Signature] = None,
    rel_tol: float = 1e-3,
    scale: float = 1.0,
) -> LaueReport:
    """Integrate the axis-1 boosted field over the fixed time slice for each
    velocity and compare with the derived prediction and the vector law.

    The prediction uses the change-of-variables coefficients
    (gamma(P0 + 2 b P1 + b^2 S11), gamma((1+b^2) P1 + b P0 + b S11),
    Pn + b S1n); the transcription with the b^2 factor dropped from the
    energy row is also reported for comparison but never asserted.
    Rejects non-stationary inputs, which the boosted-slice argument needs.
    ``domain`` is a scenario spec or a plain time-slice patch.
    """
    sig = sig or Signature.mostly_minus(4)
    patch, adapted, grid, flagged_stationary = _resolve_domain(domain, sig, scale)
    rng = np.random.default_rng(0)
    probe = rng.uniform(-1.0, 1.0, (32, 4))
    res = stationarity_residual(T, DEFAULT_H, probe)
    if not flagged_stationary or res > _STATIONARITY_TOL:
        raise ValueError(
            f"boost report requires a stationary system; time-derivative "
            f"residual {res:.3e} (flagged stationary={flagged_stationary})"
        )
    M0 = patch_moments(T, patch)
    P = M0 @ (patch.sig.matrix @ patch.normal)
    stress = stress_integrals(M0, patch)
    S11, S12, S13 = stress["T11"], stress["T12"], stress["T13"]
    entries = []
    for beta in betas:
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        boosted = boost_emt_analytic(T, beta)
        P_direct = four_momentum(boosted, adapted(standard_boost(1, beta)))
        P_pred = np.array(
            [
                gamma * (P[0] + 2 * beta * P[1] + beta**2 * S11),
                gamma * ((1 + beta**2) * P[1] + beta * P[0] + beta * S11),
                P[2] + beta * S12,
                P[3] + beta * S13,
            ]
        )
        P_alt = P_pred.copy()
        P_alt[0] = gamma * (P[0] + 2 * beta * P[1] + S11)
        P_fv = np.array(
            [gamma * (P[0] + beta * P[1]), gamma * (P[1] + beta * P[0]), P[2], P[3]]
        )
        scale0 = abs(P[0])
        entries.append(
            BoostEntry(
                beta,
                P_direct,
                P_pred,
                P_alt,
                P_fv,
                float(np.max(np.abs(P_direct - P_pred))) / scale0,
                float(np.max(np.abs(P_direct - P_fv))) / scale0,
            )
        )
    name = domain.name if isinstance(domain, ScenarioSpec) else "custom"
    return LaueReport(name, P, stress, entries, rel_tol, grid)


def fake_covariance_check(
    T: SymTensorField,
    domain,
    g: PoincareElement,
    sig: Optional[Signature] = None,
    scale: float = 1.0,
) -> float:
    """Relative residual of the change-of-variables identity in which the
    hypersurface is transformed along with the field.

    Holds for arbitrary T (including boost-covariance violators): with the
    image patch's nodes being the node images, it is exact to roundoff.
    """
    sig = sig or Signature.mostly_minus(4)
    patch, _, _, _ = _resolve_domain(domain, sig, scale)
    P = four_momentum(T, patch)
    image = transform_patch(g, patch)
    P_image = four_momentum(active_transform(g, T), image)
    ref = max(float(np.max(np.abs(P))), 1e-300)
    return float(np.max(np.abs(P_image - g.A @ P))) / ref


def gauss_residual(
    T: SymTensorField,
    phi: ScalarField,
    patch: HyperplanePatch,
    h: float = DEFAULT_H,
) -> float:
    """Max over rows of |interior integral - boundary integral| for the
    partial-integration identity on a box time slice.

    Interior: integral of T^{mu n} d_n phi; boundary: integral of
    T^{mu n} phi nu_n over the six box faces.
    """
    if patch.rule_nodes is not None:
        raise ValueError("the boundary quadrature needs the default box rule")
    n_t = patch.sig.n - 1

    def integral(rule_patch, factor, integrand):  # rows mu; non-finite samples raise
        return _reduce_patch(integrand, rule_patch, factor, lambda v, pts, w: v.T * w)

    lhs = integral(patch, _measure_factor(patch), lambda p: np.einsum(
        "...ak,...k->...a", T(p)[..., :, 1:], phi.gradient(p, h)[..., 1:]))
    rhs = 0.0
    for axis in range(n_t):
        others = [i for i in range(n_t) if i != axis]
        face_nodes, face_weights = box_rule(
            patch.half_widths[others], [patch.grid[i] for i in others]
        )
        for sign in (+1.0, -1.0):
            fn = np.insert(face_nodes, axis, sign * patch.half_widths[axis], axis=1)
            face = patch.with_rule(fn, face_weights)
            rhs = rhs + integral(face, sign, lambda p: T(p)[..., :, 1 + axis] * phi(p)[..., None])
    return float(np.max(np.abs(lhs - rhs)))


@dataclass
class GeometricLaueResult:
    """Three routes to the same vanishing integral, plus preconditions."""

    rA: float
    rB: float
    rC: float
    divergence_residual: float
    symmetry_residual: float


def geometric_laue_residuals(
    J: VectorField,
    U: VectorField,
    phi: ScalarField,
    patch: HyperplanePatch,
    g: MetricField,
    h: float = DEFAULT_H,
) -> GeometricLaueResult:
    """Evaluate the conserved-current vanishing-integral statement by its
    three equivalent integrands.

    rA integrates d(phi) ^ (insert U into the dual current form); rB the
    pair U(phi) * dual(J) - J(phi) * dual(U); rC the same contraction
    against the induced measure of the non-null unit normal.  All three
    vanish in the continuum for divergence-free J with U-symmetry and
    suitable support, and agree with each other to quadrature accuracy.
    """
    n = g.n
    nodes, _ = patch.nodes_weights()
    # deterministic interior probe (strided subsets of the raveled grid can
    # alias onto a single far-field plane)
    idx = np.linspace(0, nodes.shape[0] - 1, 64).astype(int)
    pts_probe = patch.points(nodes[idx])

    calJ = dual_form(J, g)

    # preconditions, reported rather than assumed
    div_res = float(np.max(np.abs(vector_divergence(J, g, h)(pts_probe))))
    sym_res = float(np.max(np.abs(lie_derivative(calJ, U, h)(pts_probe))))

    gv_probe = g(pts_probe)
    nn = np.einsum("...ab,a,b->...", gv_probe, patch.normal, patch.normal)
    if np.min(np.abs(nn)) < 1e-9:
        raise ValueError("patch normal is lightlike for the supplied metric")
    if np.max(np.abs(np.abs(nn) - 1.0)) > 1e-9:
        raise ValueError("patch normal is not unit for the supplied metric")

    def pairings(points):
        # one sample of grad phi, U and J per point, shared by the two pairings
        dphi, u, j = phi.gradient(points, h), U(points), J(points)
        return np.einsum("...a,...a->...", dphi, u), np.einsum("...a,...a->...", dphi, j), u, j

    def integrand_A(points):
        points = np.asarray(points, float)
        ju = insert_comps(U(points), calJ(points), n, n - 1)
        return wedge_comps(phi.gradient(points, h), 1, ju, n - 2, n)

    rA = abs(integrate_form(FormField(n, n - 1, integrand_A), patch))

    def integrand_B(points):
        # i_J mu and i_U mu from the same samples of J and U as the pairings
        u_phi, j_phi, u, j = pairings(points)
        return (u_phi[..., None] * _volume_insert(j, g, points)
                - j_phi[..., None] * _volume_insert(u, g, points))

    rB = abs(integrate_form(FormField(n, n - 1, integrand_B), patch))

    def integrand_C(points):
        points = np.asarray(points, float)
        u_phi, j_phi, u, j = pairings(points)
        gv = g(points)
        jn = np.einsum("...ab,...a,b->...", gv, j, patch.normal)
        un = np.einsum("...ab,...a,b->...", gv, u, patch.normal)
        return u_phi * jn - j_phi * un

    rC = abs(integrate_scalar_density(integrand_C, patch, g))
    return GeometricLaueResult(rA, rB, rC, div_res, sym_res)


def exact_current_factory(lam: FormField, g: MetricField, h: float = DEFAULT_H):
    """Closed current pair from a potential: the dual form is the exterior
    derivative of ``lam``, hence closed by construction up to O(h^2).

    Returns (J, calJ) with J the vector field whose metric dual's Hodge
    dual is calJ.
    """
    n = g.n
    if lam.p != n - 2:
        raise ValueError(f"potential must have degree {n - 2}")
    calJ = exterior_derivative(lam, h)
    # undo the insertion calJ = i_J mu_g: component n-1-c of calJ is the one
    # without theta^c, equal to (-1)^c J^c sqrt|det g|
    signs = (-1.0) ** np.arange(n)

    def j_func(points):
        points = np.asarray(points, float)
        eps = np.asarray(g.eps_top(points), float)
        return signs * calJ(points)[..., ::-1] / eps[..., None]

    return VectorField(j_func), calJ


@dataclass
class EquivarianceEntry:
    """Momentum-map transformation residuals for one group element."""

    label: str
    full_residual: float
    restricted_residual: Optional[float]
    reference_norm: float


def equivariance_report(
    T: SymTensorField,
    domain,
    origin,
    g_list,
    sig: Optional[Signature] = None,
    scale: float = 1.0,
    restricted: bool = False,
    outer: Optional[float] = None,
):
    """Momentum-map covariance under a list of isometries.

    The full check transforms the hypersurface along with the field (no
    physics assumptions, exact up to roundoff by node mapping); the
    restricted check keeps the hypersurface fixed and needs a conserved
    system with controlled support, so it is grid-limited.  Residuals are
    Euclidean norms of coefficient vectors relative to the reference
    value's norm.  ``g_list`` holds (label, element) pairs.
    """
    sig = sig or Signature.mostly_minus(4)
    origin = np.asarray(origin, float)
    patch, adapted, _, _ = _resolve_domain(domain, sig, scale, outer)
    if restricted and isinstance(domain, ScenarioSpec) and not domain.conserved:
        raise ValueError("restricted equivariance requires a conserved scenario")
    base = momentum_map(T, patch, origin)
    ref = float(np.linalg.norm(base.components()))
    ref = max(ref, 1e-300)
    entries = []
    for label, g in g_list:
        if not is_isometry(g, sig):
            raise ValueError(f"group element {label} is not an isometry")
        predicted = coad(g, base.lie, sig).components()
        image_patch = transform_patch(g, patch)
        T_g = active_transform(g, T)
        mv_full = momentum_map(T_g, image_patch, origin)
        full = float(np.linalg.norm(mv_full.components() - predicted)) / ref
        res = None
        if restricted:
            mv_res = momentum_map(T_g, adapted(g), origin)
            res = float(np.linalg.norm(mv_res.components() - predicted)) / ref
        entries.append(EquivarianceEntry(label, full, res, ref))
    return entries


@dataclass
class ConservationResult:
    charge_1: float
    charge_2: float
    support_ok: bool

    @property
    def difference(self) -> float:
        return abs(self.charge_1 - self.charge_2)


def conservation_check(
    J: VectorField,
    patch1: HyperplanePatch,
    patch2: HyperplanePatch,
    g: MetricField,
) -> ConservationResult:
    """Charges of J through two parallel slices with matched orientation.

    The check is void (``support_ok`` False) when the current reaches the
    lateral boundary, where the connecting-tube flux would contribute.
    """
    support_ok = True
    for patch in (patch1, patch2):
        if patch.rule_nodes is not None:
            continue
        nodes, _ = patch.nodes_weights()
        edge = np.max(np.abs(nodes) / patch.half_widths, axis=1) > 1.0 - 2.0 / min(
            patch.grid
        )
        if edge.any():
            pts = patch.points(nodes[edge])
            vals = evaluate_tiled(J, pts)
            _require_finite(vals, pts)
            if float(np.max(np.abs(vals))) > _SUPPORT_TOL:
                support_ok = False
    q1 = flux_charge(J, patch1, g)
    q2 = flux_charge(J, patch2, g)
    return ConservationResult(q1, q2, support_ok)


def vector_divergence(J: VectorField, g: MetricField, h: float = DEFAULT_H) -> ScalarField:
    """Covariant divergence of a vector field in the volume-weighted form
    d_a(sqrt|g| J^a)/sqrt|g| (plain d_a J^a on a flat metric, where the
    volume factor is exactly 1)."""
    n = g.n

    def func(points):
        points = np.asarray(points, float)
        total = np.zeros(points.shape[:-1])
        for d in range(n):
            total += _central(lambda p: g.eps_top(p) * J(p)[..., d], points, d, h)
        return total / g.eps_top(points)

    return ScalarField(func)


def divergence_volume_integral(
    J: VectorField,
    patch_template: HyperplanePatch,
    t0: float,
    t1: float,
    g: MetricField,
    n_t: int = 16,
    h: float = DEFAULT_H,
) -> float:
    """Simpson-in-time integral of the slice integrals of div J between two
    instants; compares against the charge difference in source tests."""
    coeff = _simpson(n_t)
    div = vector_divergence(J, g, h)
    ts = np.linspace(t0, t1, n_t + 1)
    dt = (t1 - t0) / n_t
    total = 0.0
    for w, t in zip(coeff, ts):
        origin = patch_template.origin.copy()
        origin[0] = t
        slice_t = replace(patch_template, origin=origin)
        total += w * integrate_scalar_density(div, slice_t, g)
    return total * dt / 3.0

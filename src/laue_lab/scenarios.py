"""Canonical field configurations and the associated physics numbers.

Heaviside-Lorentz units with epsilon_0 = 1 and c = 1 throughout.  The
electric stress convention is fixed by the pointwise trace identity
T^{00} = T^{11} + T^{22} + T^{33} for a pure field, which pins
T^{ab} = |E|^2 delta^{ab} / 2 - E^a E^b.

Each scenario is declared once, by a function whose keyword defaults are
its parameters and which returns its field, closed forms and preferred
quadrature: a Cartesian box for compact or rapidly decaying fields, a
radially adapted product rule (linear inside the shell radius, log-spaced
Simpson outside) for the 1/r^4 Coulomb tails.  ``adapted_slice_patch``
places the same rule in coordinates adapted to a group element, so
discontinuity surfaces of transformed fields stay aligned with radial cells.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .exterior import Signature
from .fields import SymTensorField, boost_emt_analytic
from .poincare import PoincareElement, invert, standard_boost
from .quadrature import (
    HyperplanePatch,
    box_rule,
    map_rule_affine,
    spherical_rule,
)

__all__ = [
    "ScenarioSpec",
    "ScenarioResult",
    "SCENARIO_NAMES",
    "build",
    "scenario_params",
    "tolman_weak_ep",
    "kinetic_stress_sums",
    "coulomb_pair_energy",
    "virial_check",
    "trouton_noble_demo",
]

# relative nudge separating the radial segments at a shell surface, so the
# discontinuity sits between Simpson endpoints rather than on one
_EDGE_NUDGE = 1e-12


@dataclass
class ScenarioSpec:
    """Scenario metadata plus its preferred slice quadrature: ``rule(scale,
    outer)`` gives nodes (m, 3) and weights (m,) in comoving coordinates;
    ``outer`` overrides a radial rule's outer radius, a box rule ignores it."""

    name: str
    kind: str  # "radial" or "cartesian"
    stationary: bool
    conserved: bool
    rule: Callable
    analytic: dict = field(default_factory=dict)

    def slice_patch(
        self,
        sig: Signature,
        t: float = 0.0,
        scale: float = 1.0,
        outer: Optional[float] = None,
    ) -> HyperplanePatch:
        """Constant-time patch carrying the scenario's preferred rule."""
        return self.adapted_slice_patch(None, sig, t=t, scale=scale, outer=outer)

    def adapted_slice_patch(
        self,
        g: Optional[PoincareElement],
        sig: Signature,
        t: float = 0.0,
        scale: float = 1.0,
        outer: Optional[float] = None,
    ) -> HyperplanePatch:
        """Patch on x^0 = t with nodes adapted to the g-image of the scenario.

        Nodes are generated in the comoving spatial coordinates
        u = spatial(g^{-1}(t, x)), where the transformed field keeps its
        original shape, then mapped back to slice coordinates.  ``g = None``
        or the identity reproduces the plain centered rule.
        """
        n = sig.n
        if n != 4:
            raise ValueError("scenario quadrature is four-dimensional")
        if g is None:
            S = np.eye(3)
            shift = np.zeros(3)
        else:
            ginv = invert(g)
            S = ginv.A[1:, 1:]
            point0 = np.zeros(n)
            point0[0] = t
            shift = (ginv.apply(point0))[1:]
            if abs(np.linalg.det(S)) < 1e-12:
                raise ValueError("slice is degenerate in adapted coordinates")
        nodes, weights = map_rule_affine(*self.rule(scale, outer), S, shift)
        base = HyperplanePatch.time_slice(sig, t=t, half_widths=1.0, grid=(2,))
        return base.with_rule(nodes, weights)


def _box(half_widths):
    """Midpoint rule on the box of these half widths, 48 * scale cells a side."""
    return lambda scale, outer: box_rule(half_widths, (max(2, round(48 * scale)),) * 3)


@dataclass
class ScenarioResult:
    """Container the CLI serialises: momentum, stress integrals, extras."""

    name: str
    P: np.ndarray
    stress: dict
    extras: dict
    grid: str


def run_scenario(
    name: str,
    params: Optional[dict] = None,
    sig: Optional[Signature] = None,
    scale: float = 1.0,
) -> ScenarioResult:
    """Build a scenario, integrate it on its preferred slice rule, and
    collect the scenario-specific scalars (weak-field passive mass and the
    mass-integrand identity residual for stationary systems); the slice is
    sampled once."""
    from .quadrature import patch_moments, stress_integrals

    sig = sig or Signature.mostly_minus(4)
    T, spec = build(name, **(params or {}))
    patch = spec.slice_patch(sig, scale=scale)
    M0 = patch_moments(T, patch)
    P = M0 @ (patch.sig.matrix @ patch.normal)
    stress = {}
    extras = {}
    if spec.stationary:
        stress = stress_integrals(M0, patch)
        L_int, passive_mass, residual = _weak_ep(M0, -1.0, patch)
        extras["passive_mass"] = passive_mass
        extras["tolman_integrand_residual"] = residual
    return ScenarioResult(
        spec.name, P, stress, extras, f"{spec.kind}:scale={scale:g}"
    )


# --- the scenarios: each returns (T^{ab} as a point function, spec) ---


def _gaussian_dust(rho0=1.0, sigma=1.0):
    """Static dust ball T^{00} = rho0 exp(-r^2 / sigma^2)."""
    if rho0 <= 0 or sigma <= 0:
        raise ValueError("gaussian_dust needs positive rho0 and sigma")

    def func(points):
        points = np.asarray(points, float)
        r2 = np.sum(points[..., 1:] ** 2, axis=-1)
        out = np.zeros(points.shape[:-1] + (4, 4))
        out[..., 0, 0] = rho0 * np.exp(-r2 / sigma**2)
        return out

    return func, ScenarioSpec(
        "gaussian_dust", "cartesian", stationary=True, conserved=True,
        rule=_box(np.full(3, 8.0 * sigma)), analytic={"P0": rho0 * math.pi**1.5 * sigma**3},
    )


def _shell(completed: bool):
    """The charged shell, bare (the 4/3 defect) or stress-completed."""

    def declare(q=1.0, R=1.0, r_out=None, mollify=0.0):
        """Charge q on radius R, field cut off at r_out (default 1e3 R);
        ``mollify`` blends the surface over that width (True: 0.05 R)."""
        r_out = 1e3 * R if r_out is None else r_out
        mollify = 0.05 * R if mollify is True else mollify
        if q == 0 or R <= 0 or r_out <= R:
            raise ValueError("shell needs q != 0, R > 0, r_out > R")
        if mollify < 0 or mollify >= R:
            raise ValueError("mollifier width must be in [0, R)")

        def func(points):
            points = np.asarray(points, float)
            x = points[..., 1:]
            r2 = np.sum(x * x, axis=-1)
            r = np.sqrt(r2)
            # floor keeps 1/r^4 finite at the origin, where the weight is zero anyway
            r_safe = np.maximum(r, 1e-60 * R)
            out = np.zeros(points.shape[:-1] + (4, 4))
            coef = (q / (4.0 * math.pi)) ** 2
            e2 = coef / r_safe**4  # |E|^2
            dirs = x / r_safe[..., None]
            if mollify > 0.0:
                # quintic C^2 blend of width mollify across the surface, for
                # derivative probes only; integral checks use the sharp profile
                t = np.clip((r - (R - 0.5 * mollify)) / mollify, 0.0, 1.0)
                w = t**3 * (10.0 + t * (-15.0 + 6.0 * t))
            else:
                w = (r > R).astype(float)
            half_e2 = w * 0.5 * e2
            out[..., 0, 0] = half_e2
            for a in range(3):
                for b in range(a, 3):
                    ee = -w * e2 * (dirs[..., a] * dirs[..., b])
                    out[..., 1 + a, 1 + b] = ee
                    out[..., 1 + b, 1 + a] = ee
                out[..., 1 + a, 1 + a] += half_e2
            if completed:
                # interior isotropic tension balancing the exterior stress integrals
                p = q**2 / (32.0 * math.pi**2 * R**4)
                for a in range(3):
                    out[..., 1 + a, 1 + a] -= (1.0 - w) * p
            return out

        def rule(scale, outer):
            n_ang = max(4, round(48 * scale))
            segments = [
                (1e-9 * R, R * (1.0 - _EDGE_NUDGE), 2 * max(1, round(12 * scale)), "linear"),
                (R * (1.0 + _EDGE_NUDGE), outer if outer is not None else r_out,
                 2 * max(1, round(48 * scale)), "log"),
            ]
            return spherical_rule(segments, n_ang, n_ang)

        P0 = q**2 / (8.0 * math.pi) * (1.0 / R - 1.0 / r_out)
        return func, ScenarioSpec(
            "completed_shell" if completed else "coulomb_shell", "radial",
            stationary=True, conserved=completed, rule=rule,
            analytic={"P0": P0, "stress_11": 0.0 if completed else P0 / 3.0},
        )

    return declare


def _uniform_field_box(E0=1.0, tilt=math.pi / 4.0, box=(1.0, 1.0, 1.0)):
    """Uniform field E0 (cos tilt, sin tilt, 0) filling a box of these sides."""
    box = np.asarray(box, float)
    if E0 <= 0 or (box <= 0).any():
        raise ValueError("uniform_field_box needs positive E0 and box sides")
    E = E0 * np.array([math.cos(tilt), math.sin(tilt), 0.0])
    block = np.zeros((4, 4))
    block[0, 0] = 0.5 * float(E @ E)
    block[1:, 1:] = block[0, 0] * np.eye(3) - np.outer(E, E)
    half = box / 2.0

    def func(points):
        points = np.asarray(points, float)
        inside = np.all(np.abs(points[..., 1:]) <= half, axis=-1)
        return inside[..., None, None] * block

    V = float(np.prod(box))
    return func, ScenarioSpec(
        "uniform_field_box", "cartesian", stationary=True, conserved=False, rule=_box(half),
        analytic={"P0": 0.5 * float(E @ E) * V, "stress_12": -E[0] * E[1] * V},
    )


def _moving_dust(rho0=1.0, sigma=1.0, v=0.4):
    """Gaussian dust ball drifting along x^1 at speed v."""
    if abs(v) >= 1.0:
        raise ValueError("|v| must be < 1")
    if rho0 <= 0 or sigma <= 0:
        raise ValueError("moving_dust needs positive rho0 and sigma")
    gamma = 1.0 / math.sqrt(1.0 - v * v)
    u4 = gamma * np.array([1.0, v, 0.0, 0.0])

    def func(points):
        points = np.asarray(points, float)
        center = v * points[..., 0]
        dx = points[..., 1] - center
        r2 = dx**2 + points[..., 2] ** 2 + points[..., 3] ** 2
        rho = rho0 * np.exp(-r2 / sigma**2)
        return rho[..., None, None] * np.outer(u4, u4)

    return func, ScenarioSpec(
        "moving_dust", "cartesian", stationary=False, conserved=False, rule=_box(np.full(3, 8.0 * sigma))
    )


_SCENARIOS = {
    "gaussian_dust": _gaussian_dust,
    "coulomb_shell": _shell(completed=False),
    "completed_shell": _shell(completed=True),
    "uniform_field_box": _uniform_field_box,
    "moving_dust": _moving_dust,
}
SCENARIO_NAMES = tuple(_SCENARIOS)


def scenario_params(name: str, params: dict) -> dict:
    """Check ``params`` against the scenario's declaration and type each
    value from its default: a tuple default takes that many numbers, as a
    sequence or a comma list, any other default one number.  Config text is
    read the same way.  Unknown names and parameters and non-finite values
    raise ValueError."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; known: {SCENARIO_NAMES}")
    declared = inspect.signature(_SCENARIOS[name]).parameters
    unknown = set(params) - set(declared)
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {sorted(unknown)}")
    typed = {}
    for key, value in params.items():
        shape = np.shape(declared[key].default)  # (k,) for a tuple default, () for any other
        try:
            x = np.array(value.split(",") if shape and isinstance(value, str) else value, float)
        except (TypeError, ValueError):
            x = np.array(math.nan)
        if x.shape != shape or not np.isfinite(x).all():
            want = f"{shape[0]} finite numbers, comma-separated" if shape else "a finite number"
            raise ValueError(f"{name} parameter {key} must be {want}, got {value!r}")
        # a bool passes as given: the shells read mollify=True as a width
        typed[key] = tuple(x.tolist()) if shape else value if isinstance(value, bool) else float(x)
    return typed


def build(name: str, **params):
    """Return (T, spec) for a named scenario.  Parameters are checked and
    typed by :func:`scenario_params`, then the scenario checks their ranges."""
    params = scenario_params(name, params)
    func, spec = _SCENARIOS[name](**params)
    return SymTensorField(func), spec


def tolman_weak_ep(T: SymTensorField, phi_value: float, patch: HyperplanePatch):
    """Static weak-field coupling integral and the passive mass it implies.

    Returns (L_int, passive_mass, integrand_identity_residual) where the
    residual checks that the energy-plus-stress-trace combination equals
    twice the trace-reversed tensor contracted with the slice normal.  The
    identity is linear in T, so it is checked on the integrated tensor
    M0^{ab} = integral of T^{ab}, the same algebra as at each node.
    """
    from .quadrature import patch_moments

    if phi_value == 0:
        raise ValueError("potential value must be nonzero to define a mass")
    return _weak_ep(patch_moments(T, patch), phi_value, patch)


def _weak_ep(M0: np.ndarray, phi_value: float, patch: HyperplanePatch):
    """:func:`tolman_weak_ep` read off the moment M0 of T on the patch."""
    combo = M0[0, 0] + M0[1, 1] + M0[2, 2] + M0[3, 3]
    eta = patch.sig.matrix
    trace = np.sum(eta * M0)
    n_low = eta @ patch.normal
    trace_reversed = M0 - 0.5 * trace * np.linalg.inv(eta)
    projected = 2.0 * n_low @ trace_reversed @ n_low
    L_int = phi_value * combo
    return L_int, L_int / phi_value, float(abs(combo - projected))


def kinetic_stress_sums(particles):
    """Leading-order slow-motion sums: total energy and motion-axis stress.

    Each particle contributes rest mass plus kinetic energy to the energy
    integral and twice its kinetic energy to the stress integral along its
    motion.
    """
    E_tot = 0.0
    stress = 0.0
    for m, v in particles:
        if m <= 0:
            raise ValueError("masses must be positive")
        if abs(v) >= 1.0:
            raise ValueError("|v| must be < 1")
        e_kin = 0.5 * m * v * v
        E_tot += m + e_kin
        stress += 2.0 * e_kin
    return E_tot, stress


def coulomb_pair_energy(charges) -> float:
    """Regularised interaction energy sum_{a<b} q_a q_b / (4 pi |x_a - x_b|)."""
    charges = [(float(q), np.asarray(x, float)) for q, x in charges]
    total = 0.0
    for i in range(len(charges)):
        for j in range(i + 1, len(charges)):
            d = np.linalg.norm(charges[i][1] - charges[j][1])
            if d == 0.0:
                raise ValueError("coincident charges have no finite pair energy")
            total += charges[i][0] * charges[j][0] / (4.0 * math.pi * d)
    return total


def virial_check(
    q1: float, q2: float, d: float, m1: float = 1.0, m2: float = 1.0
) -> float:
    """Relative residual of 2 E_kin + U = 0 on a circular two-body orbit.

    Kinetic energy comes from the centripetal condition against the mutual
    attraction of the charges at separation d; the identity is exact for
    inverse-square attraction, so the residual is roundoff.  A repulsive
    pair admits no circular orbit and is rejected.
    """
    if d <= 0 or m1 <= 0 or m2 <= 0:
        raise ValueError("need positive separation and masses")
    if q1 * q2 >= 0:
        raise ValueError("no circular orbit for a non-attractive pair")
    force = abs(q1 * q2) / (4.0 * math.pi * d * d)
    mu = m1 * m2 / (m1 + m2)
    omega2 = force / (mu * d)
    r1 = m2 * d / (m1 + m2)
    r2 = m1 * d / (m1 + m2)
    e_kin = 0.5 * omega2 * (m1 * r1**2 + m2 * r2**2)
    U = coulomb_pair_energy([(q1, np.zeros(3)), (q2, np.array([d, 0.0, 0.0]))])
    return abs(2.0 * e_kin + U) / abs(U)


def trouton_noble_demo(
    tilt: float, E0: float, box, beta: float, sig: Optional[Signature] = None
):
    """Transverse momentum picked up by a boosted tilted-field box.

    Returns the directly integrated transverse components of the boosted
    momentum together with the constant-integrand closed form
    -beta E^1 E^2 V (and 0 for the third axis).
    """
    from .quadrature import four_momentum

    sig = sig or Signature.mostly_minus(4)
    if abs(beta) >= 1:
        raise ValueError("|beta| must be < 1")
    T, spec = build("uniform_field_box", E0=E0, tilt=tilt, box=box)
    boosted = boost_emt_analytic(T, beta)
    patch = spec.adapted_slice_patch(standard_boost(1, beta), sig)
    P_bar = four_momentum(boosted, patch)
    stress_12 = spec.analytic["stress_12"]
    return {
        "transverse_direct": P_bar[2:],
        "transverse_closed_form": np.array([beta * stress_12, 0.0]),
        "stress_12": stress_12,
    }

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
from .fields import SymTensorField, _spatial_r2
from .poincare import PoincareElement, invert
from .quadrature import HyperplanePatch, ProductRule

__all__ = [
    "ScenarioSpec",
    "SCENARIO_NAMES",
    "build",
    "scenario_params",
    "virial_check",
]

# relative nudge separating the radial segments at a shell surface, so the
# discontinuity sits between Simpson endpoints rather than on one
_EDGE_NUDGE = 1e-12


@dataclass
class ScenarioSpec:
    """Scenario metadata plus its preferred slice quadrature: ``rule(scale,
    outer)`` gives a :class:`ProductRule` in comoving coordinates, which
    refuses more than ``quadrature.MAX_NODES`` nodes from its factor sizes
    before allocating; ``outer`` overrides a radial rule's outer radius, a
    box rule ignores it."""

    name: str
    kind: str  # "radial" or "cartesian"
    stationary: bool
    conserved: bool
    rule: Callable
    analytic: dict = field(default_factory=dict)

    def slice_patch(
        self,
        sig: Signature,
        scale: float = 1.0,
        outer: Optional[float] = None,
    ) -> HyperplanePatch:
        """Patch on x^0 = 0 carrying the scenario's preferred rule."""
        return self.adapted_slice_patch(None, sig, scale=scale, outer=outer)

    def adapted_slice_patch(
        self,
        g: Optional[PoincareElement],
        sig: Signature,
        scale: float = 1.0,
        outer: Optional[float] = None,
    ) -> HyperplanePatch:
        """Patch on x^0 = 0 with nodes adapted to the g-image of the scenario.

        Nodes are generated in the comoving spatial coordinates
        u = spatial(g^{-1}(0, x)), where the transformed field keeps its
        original shape, then mapped back to slice coordinates, tile by tile.
        ``g = None`` attaches no map and gives the plain centered rule.
        """
        n = sig.n
        if n != 4:
            raise ValueError("scenario quadrature is four-dimensional")
        rule = self.rule(scale, outer)
        if g is not None:
            ginv = invert(g)
            S = ginv.A[1:, 1:]
            if abs(np.linalg.det(S)) < 1e-12:
                raise ValueError("slice is degenerate in adapted coordinates")
            rule = rule.mapped(S, ginv.apply(np.zeros(n))[1:])
        return HyperplanePatch(np.zeros(n), np.eye(n)[1:], np.eye(n)[0], sig, rule)


def _box(half_widths):
    """Midpoint rule on the box of these half widths, 48 * scale cells a side."""
    return lambda scale, outer: ProductRule.box(half_widths, (max(2, round(48 * scale)),) * 3)


# --- the scenarios: each returns (T^{ab} as a point function, spec) ---


def _gaussian_dust(rho0=1.0, sigma=1.0):
    """Static dust ball T^{00} = rho0 exp(-r^2 / sigma^2)."""
    if rho0 <= 0 or sigma <= 0:
        raise ValueError("gaussian_dust needs positive rho0 and sigma")

    def func(points):
        r2 = _spatial_r2(points[..., 1:])
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
            # component-major: each T^{ab} is one contiguous row of out, written
            # in place and returned as an (..., 4, 4) view; the coordinate
            # columns are only read
            r = np.sqrt(_spatial_r2(points[..., 1:]))
            # floor keeps 1/r^4 finite at the origin, where the weight is zero anyway
            r_safe = np.maximum(r, 1e-60 * R)
            out = np.empty((4, 4) + r.shape)
            out[0, 1:] = out[1:, 0] = 0.0
            # r_safe**4 into an array even for one point; squaring r_safe**2 rounds differently
            e2 = np.power(r_safe, 4, out=np.empty(r.shape))
            np.divide((q / (4.0 * math.pi)) ** 2, e2, out=e2)  # |E|^2
            dirs = [points[..., 1 + a] / r_safe for a in range(3)]
            if mollify > 0.0:
                # quintic C^2 blend of width mollify across the surface, for
                # derivative probes only; integral checks use the sharp profile
                t = np.clip((r - (R - 0.5 * mollify)) / mollify, 0.0, 1.0)
                w = t**3 * (10.0 + t * (-15.0 + 6.0 * t))
            else:
                w = (r > R).astype(float)
            half_e2 = np.multiply(w, 0.5, out=out[0, 0, ...])
            half_e2 *= e2
            minus_we2 = -w
            minus_we2 *= e2
            # interior isotropic tension balancing the exterior stress integrals
            tension = (1.0 - w) * (q**2 / (32.0 * math.pi**2 * R**4)) if completed else None
            # each row is (d^a d^b) (-w e2), the diagonal then + half_e2 - tension
            for a in range(3):
                for b in range(a, 3):
                    row = np.multiply(dirs[a], dirs[b], out=out[1 + a, 1 + b, ...])
                    row *= minus_we2
                    if b > a:
                        out[1 + b, 1 + a] = row
                diag = out[1 + a, 1 + a, ...]
                diag += half_e2
                if completed:
                    diag -= tension
            return np.moveaxis(out, (0, 1), (-2, -1))

        def rule(scale, outer):
            n_ang = max(4, round(48 * scale))
            segments = [
                (1e-9 * R, R * (1.0 - _EDGE_NUDGE), 2 * max(1, round(12 * scale)), "linear"),
                (R * (1.0 + _EDGE_NUDGE), outer if outer is not None else r_out,
                 2 * max(1, round(48 * scale)), "log"),
            ]
            return ProductRule.spherical(segments, n_ang, n_ang)

        P0 = q**2 / (8.0 * math.pi) * (1.0 / R - 1.0 / r_out)
        # each diagonal stress integral; the completed shell's interior tension
        # cancels the exterior's 1/R term and leaves the traction at the cutoff
        stress = -(q**2) / (24.0 * math.pi * r_out) if completed else P0 / 3.0
        return func, ScenarioSpec(
            "completed_shell" if completed else "coulomb_shell", "radial",
            stationary=True, conserved=completed, rule=rule,
            analytic={"P0": P0, "stress_11": stress},
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
    try:
        func, spec = _SCENARIOS[name](**params)
    except OverflowError as exc:
        given = ", ".join(f"{key} = {value!r}" for key, value in params.items())
        raise OverflowError(f"{name}: a closed form overflows float arithmetic at {given}") from exc
    return SymTensorField(func), spec


def _weak_ep(M0: np.ndarray, patch: HyperplanePatch):
    """(passive_mass, integrand_identity_residual) of the static weak field:
    the mass is the energy-plus-stress-trace combination of the moment
    M0^{ab} = integral of T^{ab} over the patch, and the residual checks that
    it equals twice the trace-reversed M0 contracted with the slice normal.
    The identity is linear in T, so on M0 it is the same algebra as at each node.
    """
    combo = M0[0, 0] + M0[1, 1] + M0[2, 2] + M0[3, 3]
    eta = patch.sig.matrix
    trace = np.sum(eta * M0)
    n_low = eta @ patch.normal
    trace_reversed = M0 - 0.5 * trace * np.linalg.inv(eta)
    projected = 2.0 * n_low @ trace_reversed @ n_low
    return combo, float(abs(combo - projected))


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
    U = q1 * q2 / (4.0 * math.pi * d)
    return abs(2.0 * e_kin + U) / abs(U)

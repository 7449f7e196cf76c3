"""Correctness checks on the benchmark's outputs.

Each workload's output is a flat mapping from a record name (as the CLI
names it, e.g. ``stress_T11`` or ``equivariance_restricted[g3]``) to its
value.  The checks compare against closed forms and properties the method
must have, never against a stored copy of an earlier run.  This module
imports nothing from laue_lab, so its tests run without the package.
"""

from __future__ import annotations

import math

# scenario parameters the workloads run with (the defaults of
# ``laue_lab.scenarios.build`` for the shells)
SHELL_Q = 1.0
SHELL_R = 1.0
EQUIVARIANCE_OUTER = 3e4  # outer radius the CLI uses for radial equivariance
SHELL_FINE_OUTER = 1e3  # the bare shell's default r_out = 1e3 R
N_ELEMENTS = 5  # group elements per equivariance check

# float64 carries about 16 significant digits; an error below this reads as
# that many digits rather than as infinity
DIGITS_CAP = 16.0


def shell_energy(q: float, R: float, r_out: float) -> float:
    """Closed-form field energy of a charged shell cut off at r_out."""
    return q * q / (8.0 * math.pi) * (1.0 / R - 1.0 / r_out)


def _missing(values: dict, names) -> list:
    return [f"missing output {n}" for n in names if n not in values]


def _cli_exit(values: dict) -> list:
    code = values.get("exit_code")
    return [] if code == 0 else [f"CLI exit code {code}, expected 0"]


def check_equivariance(values: dict) -> list:
    labels = [f"g{i}" for i in range(N_ELEMENTS)]
    full = [f"equivariance_full[{g}]" for g in labels]
    restricted = [f"equivariance_restricted[{g}]" for g in labels]
    problems = _missing(values, full + restricted + ["reference_norm"])
    if problems:
        return problems
    for name in full:
        # the surface moves with the field: exact up to roundoff
        if not values[name] < 1e-9:
            problems.append(f"{name} = {values[name]!r} not < 1e-9")
    for name in restricted:
        # criterion 6 tolerance for the fixed-surface, grid-limited check
        if not values[name] < 1e-2:
            problems.append(f"{name} = {values[name]!r} not < 1e-2")
    P0 = shell_energy(SHELL_Q, SHELL_R, EQUIVARIANCE_OUTER)
    rel = abs(values["reference_norm"] - P0) / P0
    if not rel < 1e-3:
        problems.append(f"reference norm off the closed form by {rel:.3e} relative")
    return problems


def check_geometric(values: dict) -> list:
    names = [
        "exact_integral[flat]",
        "dual_route_spread[flat]",
        "exact_integral[curved]",
        "dual_route_spread[curved]",
        "derived_current_divergence",
        "derived_current_divergence.refinement_ratio",
    ]
    problems = _missing(values, names)
    if problems:
        return problems
    problems = _cli_exit(values)
    for name in names[:5]:
        # the vanishing integral (rA, |rB - rC|) and the closedness probe
        if not values[name] < 1e-6:
            problems.append(f"{name} = {values[name]!r} not < 1e-6")
    ratio = values["derived_current_divergence.refinement_ratio"]
    # central differences are O(h^2): halving h divides the error by ~4
    if not 3.0 <= ratio <= 5.0:
        problems.append(f"refinement ratio {ratio!r} outside [3, 5]")
    return problems


def check_shell_fine(values: dict) -> list:
    diag = ["stress_T11", "stress_T22", "stress_T33"]
    zero = ["P1", "P2", "P3", "stress_T01", "stress_T02", "stress_T03",
            "stress_T12", "stress_T13", "stress_T23"]
    names = ["P0", "passive_mass", "tolman_integrand_residual"] + diag + zero
    problems = _missing(values, names)
    if problems:
        return problems
    problems = _cli_exit(values)
    P0_closed = shell_energy(SHELL_Q, SHELL_R, SHELL_FINE_OUTER)
    P0 = values["P0"]
    rel = abs(P0 - P0_closed) / P0_closed
    if not rel < 1e-3:
        problems.append(f"P0 off the closed form by {rel:.3e} relative")
    for name in zero:
        if not abs(values[name]) < 1e-12 * abs(P0):
            problems.append(f"{name} = {values[name]!r} not below 1e-12 P0")
    for name in diag:
        # each diagonal stress integral is P0/3: the source of the 4/3 factor
        dev = abs(values[name] - P0 / 3.0) / abs(P0)
        if not dev < 1e-3:
            problems.append(f"{name} off P0/3 by {dev:.3e} of P0")
    dev = abs(values["passive_mass"] - 2.0 * P0) / abs(P0)
    if not dev < 1e-3:
        problems.append(f"passive mass off 2 P0 by {dev:.3e} of P0")
    if not abs(values["tolman_integrand_residual"]) < 1e-12:
        problems.append("Tolman integrand residual not < 1e-12")
    return problems


def error_equivariance(values: dict) -> float:
    """Largest restricted residual: the grid-limited part of the check."""
    return max(values[f"equivariance_restricted[g{i}]"] for i in range(N_ELEMENTS))


def error_geometric(values: dict) -> float:
    """Derived-current divergence at the finest step: the h^2-limited channel."""
    return values["derived_current_divergence"]


def error_shell_fine(values: dict) -> float:
    """Largest |Tii - P0/3| / P0: the grid-limited stress integrals."""
    P0 = values["P0"]
    return max(abs(values[f"stress_T{i}{i}"] - P0 / 3.0) / abs(P0) for i in (1, 2, 3))


CHECKS = {
    "equivariance": (check_equivariance, error_equivariance),
    "geometric": (check_geometric, error_geometric),
    "shell_fine": (check_shell_fine, error_shell_fine),
}


def accuracy_digits(error: float) -> float:
    """-log10 of an error against the reference, capped at float64 precision."""
    if error <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return -math.log10(error)


def repeat_problems(digests) -> list:
    """Runs of one configuration must emit the same bytes."""
    distinct = sorted(set(digests))
    if len(distinct) > 1:
        return [f"repeat runs emitted {len(distinct)} different outputs"]
    return []

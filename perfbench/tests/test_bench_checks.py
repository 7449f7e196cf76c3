"""Each output check accepts outputs that obey the closed forms and rejects
a perturbed one."""

import math

import pytest

import checks


def shell_fine_values():
    P0 = checks.shell_energy(1.0, 1.0, 1e3) * (1 + 1e-6)
    values = {name: 0.0 for name in ("P1", "P2", "P3", "stress_T01", "stress_T02",
                                      "stress_T03", "stress_T12", "stress_T13", "stress_T23")}
    values.update(P0=P0, stress_T11=P0 / 3, stress_T22=P0 / 3, stress_T33=P0 / 3 * (1 + 7e-5),
                  passive_mass=2 * P0, tolman_integrand_residual=1e-18, exit_code=0)
    return values


def equivariance_values():
    values = {"reference_norm": checks.shell_energy(1.0, 1.0, 3e4)}
    for i in range(5):
        values[f"equivariance_full[g{i}]"] = 5e-16
        values[f"equivariance_restricted[g{i}]"] = 1e-4
    return values


def geometric_values():
    values = {f"{q}[{m}]": 1e-17 for q in ("exact_integral", "dual_route_spread")
              for m in ("flat", "curved")}
    values.update({"derived_current_divergence": 1.2e-8,
                   "derived_current_divergence.refinement_ratio": 4.0, "exit_code": 0})
    return values


GOOD = {
    "equivariance": equivariance_values,
    "geometric": geometric_values,
    "shell_fine": shell_fine_values,
}


@pytest.mark.parametrize("name", sorted(GOOD))
def test_good_outputs_pass(name):
    check, error_of = checks.CHECKS[name]
    values = GOOD[name]()
    assert check(values) == []
    assert 3.0 < checks.accuracy_digits(error_of(values)) < 8.0


def test_p0_off_by_one_percent_is_rejected():
    values = shell_fine_values()
    values["P0"] *= 1 + 1e-2
    assert any("P0 off the closed form" in p for p in checks.check_shell_fine(values))


def test_reference_norm_off_by_one_percent_is_rejected():
    values = equivariance_values()
    values["reference_norm"] *= 1 + 1e-2
    assert checks.check_equivariance(values)


def test_restricted_residual_above_tolerance_is_rejected():
    values = equivariance_values()
    values["equivariance_restricted[g3]"] = 2e-2
    assert checks.check_equivariance(values) == [
        "equivariance_restricted[g3] = 0.02 not < 1e-2"
    ]


def test_full_residual_above_roundoff_is_rejected():
    values = equivariance_values()
    values["equivariance_full[g0]"] = 1e-7
    assert checks.check_equivariance(values)


def test_refinement_ratio_of_two_is_rejected():
    values = geometric_values()
    values["derived_current_divergence.refinement_ratio"] = 2.0
    assert checks.check_geometric(values) == ["refinement ratio 2.0 outside [3, 5]"]


def test_stress_off_third_and_nonzero_momentum_are_rejected():
    values = shell_fine_values()
    values["stress_T22"] = values["P0"] * 0.34
    values["P2"] = 1e-10
    problems = checks.check_shell_fine(values)
    assert len(problems) == 2


def test_missing_output_and_failing_exit_code_are_rejected():
    values = geometric_values()
    del values["dual_route_spread[curved]"]
    assert checks.check_geometric(values) == ["missing output dual_route_spread[curved]"]
    values = shell_fine_values()
    values["exit_code"] = 1
    assert checks.check_shell_fine(values) == ["CLI exit code 1, expected 0"]


def test_nan_output_is_rejected():
    values = geometric_values()
    values["exact_integral[flat]"] = math.nan
    assert checks.check_geometric(values)


def test_repeat_runs_with_different_bytes_are_rejected():
    assert checks.repeat_problems(["ab", "ab", "ab"]) == []
    assert checks.repeat_problems(["ab", "ab", "ac"])


def test_accuracy_digits():
    assert checks.accuracy_digits(1e-4) == pytest.approx(4.0)
    assert checks.accuracy_digits(0.0) == checks.DIGITS_CAP

import argparse
import ast
import importlib
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from laue_lab import cli, fields, quadrature
from laue_lab.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT,
    IntegralRecord,
    emit,
    main,
    records_to_csv,
    rng_from_seed,
    run_conservation_suite,
    run_geometric_suite,
)
from laue_lab.fields import MetricField, SymTensorField


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "algebra", "--seed", "7")
    assert code == EXIT_OK
    assert out.startswith("quantity,component,value,grid_N,h,refinement_ratio,tolerance,verdict")
    assert "duality_property" in out
    assert ",fail" not in out


def test_poincare_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "poincare", "--seed", "3")
    assert code == EXIT_OK
    assert "killing_residual_generators" in out


def test_identities_suite_strict(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--seed", "1", "--strict")
    assert code == EXIT_OK
    assert "contracted_current_refinement" in out


def test_conservation_suite(capsys):
    code, out, _ = run(capsys, "verify", "conservation")
    assert code == EXIT_OK
    assert "charge_difference" in out
    assert "source_volume_match" in out
    assert "charge_route_spread" in out
    assert "partial_integration_residual" in out
    assert "static_charge_error" in out
    assert ",fail" not in out


def test_coulomb_classical_fails_by_design(capsys):
    code, out, _ = run(
        capsys, "laue", "classical", "--scenario", "coulomb_shell",
        "--beta", "0.6", "--format", "csv", "--grid-n", "24",
    )
    assert code == EXIT_VERDICT
    assert "four_vector_residual" in out
    assert "verdict_four_vector" in out
    # the stress table carries the one-third entries
    lines = [l for l in out.splitlines() if l.startswith("stress_T11")]
    assert len(lines) == 1
    value = float(lines[0].split(",")[2])
    p0 = float([l for l in out.splitlines() if l.startswith("P0,")][0].split(",")[2])
    assert value == pytest.approx(p0 / 3.0, rel=5e-3)


def test_completed_shell_classical_passes(capsys):
    code, out, _ = run(
        capsys, "laue", "classical", "--scenario", "completed_shell",
        "--beta", "0.6", "--grid-n", "24",
    )
    assert code == EXIT_OK


def test_fake_covariance_command(capsys):
    code, out, _ = run(
        capsys, "laue", "fake", "--scenario", "uniform_field_box", "--grid-n", "24",
    )
    assert code == EXIT_OK
    assert "fake_covariance" in out
    assert ",fail" not in out


def test_fake_covariance_catches_a_wrong_flux_pullback(monkeypatch, capsys):
    # plant A n for the covector pull-back A^T n in every transformed flux:
    # laue fake integrates the transformed field through its flux only
    from laue_lab import checkers
    from laue_lab.fields import active_transform
    from laue_lab.poincare import _matvec, invert

    def planted(g, T):
        def flux(points, n_low):
            return _matvec(T.flux(invert(g).apply(points), g.A @ n_low), g.A)

        return SymTensorField(active_transform(g, T).func, flux_func=flux)

    monkeypatch.setattr(checkers, "active_transform", planted)
    code, out, _ = run(capsys, "laue", "fake", "--grid-n", "12")
    assert code == EXIT_VERDICT
    assert out.count(",fail") == 5


def test_equivariance_command(capsys):
    code, out, _ = run(
        capsys, "laue", "equivariance", "--scenario", "gaussian_dust", "--grid-n", "24",
    )
    assert code == EXIT_OK
    assert "equivariance_full" in out
    assert "equivariance_restricted" in out


def test_moving_dust_rejected_as_usage(capsys):
    code, _, err = run(capsys, "laue", "classical", "--scenario", "moving_dust")
    assert code == EXIT_USAGE
    assert "stationary" in err


def test_unknown_scenario_usage_error(capsys):
    code, _, err = run(capsys, "scenario", "black_body")
    assert code == EXIT_USAGE
    assert "unknown scenario" in err


def test_unknown_flag_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "algebra", "--frobnicate")
    assert code == EXIT_USAGE


def test_scenario_command_emits_momentum(capsys):
    code, out, _ = run(capsys, "scenario", "gaussian_dust", "--grid-n", "24")
    assert code == EXIT_OK
    p0 = float([l for l in out.splitlines() if l.startswith("P0,")][0].split(",")[2])
    assert p0 == pytest.approx(np.pi**1.5, rel=1e-5)


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nseed = 11\nformat = json\n\n[scenario.gaussian_dust]\nsigma = 0.5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "scenario", "gaussian_dust", "--grid-n", "24")
    assert code == EXIT_OK
    rows = json.loads(out)
    p0 = [r for r in rows if r["quantity"] == "P0"][0]["value"]
    assert p0 == pytest.approx(np.pi**1.5 * 0.125, rel=1e-5)


def test_config_scenario_parameters_keep_their_case(tmp_path, capsys):
    def p0(*argv):
        code, out, _ = run(capsys, *argv, "scenario", "coulomb_shell", "--grid-n", "24")
        assert code == EXIT_OK
        return float([l for l in out.splitlines() if l.startswith("P0,")][0].split(",")[2])

    cfg = tmp_path / "run.ini"
    cfg.write_text("[scenario.coulomb_shell]\nR = 2.0\n")
    assert p0("--config", str(cfg)) == pytest.approx(p0() / 2.0, rel=1e-2)


@pytest.mark.parametrize(
    "section, argv",
    [
        ("[scenario.gaussian_dust]\nsigma = nan", ["scenario", "gaussian_dust"]),
        ("[scenario.coulomb_shell]\nq = inf", ["scenario", "coulomb_shell"]),
        ("[scenario.uniform_field_box]\ntilt = nan", ["laue", "fake", "--scenario", "uniform_field_box"]),
        ("[scenario.moving_dust]\nv = nan", ["scenario", "moving_dust"]),
        ("[scenario.moving_dust]\nrho0 = -1", ["scenario", "moving_dust"]),
        ("[scenario.uniform_field_box]\nbox = 1,2", ["scenario", "uniform_field_box"]),
    ],
)
def test_bad_scenario_config_value_is_usage_error(tmp_path, capsys, section, argv):
    cfg = tmp_path / "run.ini"
    cfg.write_text(section + "\n")
    code, out, err = run(capsys, "--config", str(cfg), *argv, "--grid-n", "12")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")


def test_config_box_takes_a_comma_list(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scenario.uniform_field_box]\nbox = 1,2,3\n")
    code, out, _ = run(capsys, "--config", str(cfg), "scenario", "uniform_field_box",
                       "--grid-n", "12", "--format", "json")
    assert code == EXIT_OK
    p0 = [r for r in json.loads(out) if r["quantity"] == "P0"][0]["value"]
    assert p0 == pytest.approx(0.5 * 1.0**2 * 6.0, rel=1e-12)


@pytest.mark.parametrize(
    "section, shown",
    [
        ("[scenario.bogus]\na = 1", "unknown scenario 'bogus'"),
        ("[scenario.gaussian_dust]\ncharge = 2", "unknown parameters for gaussian_dust: ['charge']"),
    ],
)
def test_unknown_scenario_section_or_key_is_usage_error(tmp_path, capsys, section, shown):
    cfg = tmp_path / "run.ini"
    cfg.write_text(section + "\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "algebra")
    assert code == EXIT_USAGE
    assert out == ""
    assert shown in err


def test_section_of_another_known_scenario_is_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scenario.coulomb_shell]\nR = 2.0\n")
    code, _, err = run(capsys, "--config", str(cfg), "scenario", "gaussian_dust", "--grid-n", "12")
    assert code == EXIT_OK
    assert err == ""


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nformat = json\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "algebra", "--format", "csv")
    assert code == EXIT_OK
    assert out.startswith("quantity,")  # csv won, config said json
    assert "overrides config value" in err


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nfrobnicate = 1\n")
    code, _, err = run(capsys, "--config", str(cfg), "verify", "algebra")
    assert code == EXIT_USAGE
    assert "unknown config key" in err


def test_box_l_flag_rejected(capsys):
    code, _, _ = run(capsys, "verify", "algebra", "--box-l", "3")
    assert code == EXIT_USAGE


def test_box_l_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nbox_l = 3\n")
    code, _, err = run(capsys, "--config", str(cfg), "verify", "algebra")
    assert code == EXIT_USAGE
    assert "unknown config key 'box_l'" in err


def _nan_everywhere(points):
    return np.full(np.shape(points)[:-1] + (4, 4), np.nan)


@pytest.mark.parametrize(
    "argv, name, field",
    [
        # Python's max(0.0, nan) is 0.0: a residual folded with max must
        # not turn NaN samples into a pass
        (["verify", "identities"], "CONSERVED_BLOB", SymTensorField(_nan_everywhere)),
        (["verify", "poincare"], "ETA", MetricField(cli.SIG, _nan_everywhere)),
    ],
)
def test_nan_residual_is_numeric_fault(monkeypatch, capsys, argv, name, field):
    monkeypatch.setattr(cli, name, field)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("numeric fault: non-finite sample")


def test_nan_translation_in_poincare_suite_is_numeric_fault(monkeypatch, capsys):
    # every composed element gets a NaN translation; the group-law folds
    # must raise rather than keep their finite running maximum
    from laue_lab.poincare import PoincareElement

    compose = cli.compose
    monkeypatch.setattr(
        cli, "compose", lambda g, h: PoincareElement(np.full(4, np.nan), compose(g, h).A)
    )
    code, out, err = run(capsys, "verify", "poincare")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("numeric fault: non-finite residual")


@pytest.mark.parametrize("check", ["classical", "fake", "equivariance"])
def test_zero_reference_is_numeric_fault(tmp_path, capsys, check):
    # with P = 0 a relative residual is NaN or a vacuous 0: the check measured
    # nothing, so it emits no rows and neither passes nor fails
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scenario.gaussian_dust]\nsigma = 1e-120\n")
    code, out, err = run(capsys, "--config", str(cfg), "laue", check, "--grid-n", "8", "--format", "json")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == "numeric fault: relative residual against a reference of 0.0\n"


@pytest.mark.parametrize("k", [-500, -700, 700])
def test_equivariance_rows_are_unit_free(tmp_path, capsys, k):
    # rho0 = 2^k scales every sample of T by exactly 2^k, so every relative
    # row keeps its bits; unscaled squares read 0.0 on every row at 2^-500
    # and a reference of 0.0 or inf at 2^-+700
    rows = []
    for rho0 in (1.0, 2.0**k):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[scenario.gaussian_dust]\nrho0 = {rho0!r}\n")
        code, out, err = run(capsys, "--config", str(cfg), "laue", "equivariance", "--grid-n", "8")
        assert (code, err) == (EXIT_OK, "")
        rows.append(out)
    assert rows[1] == rows[0]
    assert "0.0,gaussian_dust" not in rows[0]


@pytest.mark.parametrize("suite", ["identities", "geometric", "conservation"])
@pytest.mark.parametrize("h", ["0", "-0.001"])
def test_non_positive_fd_h_is_usage_error(capsys, suite, h):
    code, out, err = run(capsys, "verify", suite, f"--fd-h={h}")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--fd-h must be" in err


@pytest.mark.parametrize("suite", ["identities", "geometric", "conservation"])
@pytest.mark.parametrize("h", ["1e-300", "1e-17"])
def test_fd_step_that_moves_no_coordinate_is_numeric_fault(capsys, suite, h):
    # every central difference across such a step is 0, so the residuals
    # would read as exact passes (and --strict's ratio as a bare NaN in JSON)
    code, out, err = run(capsys, "verify", suite, f"--fd-h={h}", "--format", "json")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith(f"numeric fault: fd step {float(h)!r} does not move coordinate")


@pytest.mark.parametrize(
    "argv", [["scenario", "gaussian_dust"], ["laue", "classical", "--scenario", "gaussian_dust"]]
)
@pytest.mark.parametrize("n", ["0", "-48"])
def test_non_positive_grid_n_is_usage_error(capsys, argv, n):
    code, out, err = run(capsys, *argv, f"--grid-n={n}")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--grid-n must be" in err


# an unparsable value and a check that reads the key, for every [run] key
# whose parser can fail (the str-parsed ones cannot)
UNPARSABLE_RUN_VALUES = {
    "seed": ("x", ["verify", "algebra"]),
    "tol": ("abc", ["laue", "classical"]),
    "grid_n": ("1.5", ["scenario", "gaussian_dust"]),
    "fd_h": ("abc", ["verify", "conservation"]),
    "beta": ("0.3,x", ["laue", "classical"]),
}


@pytest.mark.parametrize("key", [k for k in cli.RUN_KEYS if cli.OPTIONS[k][1] is not str])
def test_unparsable_run_value_names_its_key(tmp_path, capsys, key):
    text, argv = UNPARSABLE_RUN_VALUES[key]
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{key} = {text}\n")
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: [run] {key}: ")


def test_non_positive_fd_h_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nfd_h = 0\n")
    code, _, err = run(capsys, "--config", str(cfg), "verify", "conservation")
    assert code == EXIT_USAGE
    assert "[run] fd_h must be a finite positive number, got 0.0" in err


@pytest.mark.parametrize("tol, shown", [("inf", "inf"), ("nan", "nan"), ("0", "0.0"), ("-1", "-1.0")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_positive_or_non_finite_tol_is_usage_error(tmp_path, capsys, tol, shown, source):
    # tol=inf would pass every row, nan and -1 would fail every row
    argv = ["laue", "classical", "--scenario", "gaussian_dust", "--grid-n", "12"]
    if source == "flag":
        argv.append(f"--tol={tol}")
        name = "--tol"
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ntol = {tol}\n")
        argv = ["--config", str(cfg)] + argv
        name = "[run] tol"
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"error: {name} must be a finite positive number, got {shown}" in err


@pytest.mark.parametrize(
    "beta, shown",
    [("nan", "nan"), ("1.5", "1.5"), ("inf", "inf"), ("-1", "-1.0"), ("0.3,1.0", "1.0")],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_beta_outside_unit_interval_is_usage_error(tmp_path, capsys, beta, shown, source):
    argv = ["laue", "classical", "--scenario", "gaussian_dust", "--grid-n", "12"]
    if source == "flag":
        argv += [f"--beta={b}" for b in beta.split(",")]
        name = "--beta"
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\nbeta = {beta}\n")
        argv = ["--config", str(cfg)] + argv
        name = "[run] beta"
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"error: {name} must be finite with |beta| < 1, got {shown}" in err


@pytest.mark.parametrize(
    "exc", [MemoryError("Unable to allocate 16.0 GiB for an array"), MemoryError()]
)
def test_memory_error_is_numeric_fault(monkeypatch, capsys, exc):
    def exhausted(seed):
        raise exc

    monkeypatch.setattr(cli, "run_algebra_suite", exhausted)
    code, out, err = run(capsys, "verify", "algebra")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("numeric fault: ") and err.count("\n") == 1
    assert (str(exc) or "MemoryError") in err


@pytest.mark.parametrize(
    "section, argv, named",
    [
        (f"[scenario.coulomb_shell]\nq = {2.0**700!r}\n", ["scenario", "coulomb_shell"],
         f"coulomb_shell: a closed form overflows float arithmetic at q = {2.0**700!r}"),
        (f"[scenario.coulomb_shell]\nq = {2.0**700!r}\n",
         ["laue", "fake", "--scenario", "coulomb_shell"],
         f"coulomb_shell: a closed form overflows float arithmetic at q = {2.0**700!r}"),
        ("[scenario.gaussian_dust]\nsigma = 1e200\n", ["scenario", "gaussian_dust"],
         "gaussian_dust: a closed form overflows float arithmetic at sigma = 1e+200"),
    ],
    ids=["scenario_coulomb_shell", "laue_fake_coulomb_shell", "scenario_gaussian_dust"],
)
def test_overflow_in_a_closed_form_is_numeric_fault(tmp_path, capsys, section, argv, named):
    # a finite parameter whose closed form overflows Python float arithmetic
    # raises OverflowError, an ArithmeticError: a numeric fault, not a verdict,
    # reported with the scenario and the parameter that overflowed
    cfg = tmp_path / "run.ini"
    cfg.write_text(section)
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == f"numeric fault: {named}\n"


@pytest.mark.parametrize(
    "argv, nodes",
    [
        # (2 * 12 + 2 * 48) N / 48 + 2 radii, each with (N / 48 * 48)^2 directions
        (["scenario", "coulomb_shell", "--grid-n", str(10**12)], 2_500_000_000_002 * 10**24),
        (["laue", "classical", "--grid-n", "400"], 400**3),  # the gaussian_dust box
    ],
    ids=["shell", "box"],
)
def test_oversized_rule_is_refused_before_allocation(capsys, argv, nodes):
    # the node count comes from the factor sizes; at 10^12 any allocation of a
    # factor fails, so exit 2 rather than a MemoryError's 3 shows none was tried
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (f"error: a quadrature rule of {nodes:,} nodes exceeds the cap of "
                   f"{quadrature.MAX_NODES:,} nodes (quadrature.MAX_NODES)\n")


def test_config_scenario_key_is_applied(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nscenario = uniform_field_box\n")
    code, out, err = run(capsys, "--config", str(cfg), "laue", "fake", "--grid-n", "24")
    assert code == EXIT_OK
    assert "uniform_field_box" in out and "gaussian_dust" not in out
    assert err == ""


def test_scenario_flag_overrides_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nscenario = uniform_field_box\n")
    code, out, err = run(
        capsys, "--config", str(cfg), "laue", "fake", "--grid-n", "24",
        "--scenario", "gaussian_dust",
    )
    assert code == EXIT_OK
    assert "gaussian_dust" in out and "uniform_field_box" not in out
    assert "note: flag --scenario=gaussian_dust overrides config value uniform_field_box" in err


def test_classical_rows_schema(capsys):
    code, out, _ = run(
        capsys, "laue", "classical", "--scenario", "gaussian_dust", "--grid-n", "24", "--strict",
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    # 4 momenta + 9 stresses + per-beta 4x4 rows and residual + verdict + strict recheck
    assert len(rows) == 4 + 9 + 2 * (16 + 1) + 1 + 1
    assert [r[0] for r in rows[-2:]] == ["verdict_four_vector", "strict_recheck_four_vector"]
    assert [r[-1] for r in rows[-2:]] == ["pass", "pass"]
    # the recheck runs at twice the grid, and its row says so
    assert {r[3] for r in rows[:-1]} == {"gaussian_dust:cartesian:scale=0.5"}
    assert rows[-1][3] == "gaussian_dust:cartesian:scale=1"


def test_failed_strict_recheck_exits_verdict(capsys):
    # the coarse report passes at this tolerance, the doubled grid does not
    code, out, _ = run(
        capsys, "laue", "classical", "--scenario", "gaussian_dust", "--strict", "--tol", "1e-16",
    )
    assert code == EXIT_VERDICT
    (row,) = [l for l in out.splitlines() if l.startswith("strict_recheck_four_vector,")]
    assert row.endswith(",fail")


@pytest.mark.parametrize(
    "argv",
    [
        ["laue", "fake", "--beta", "0.9"],
        ["laue", "fake", "--tol", "1e-3"],
        ["laue", "equivariance", "--strict"],
        ["scenario", "gaussian_dust", "--strict"],
        ["scenario", "gaussian_dust", "--fd-h", "0.5"],
        ["scenario", "gaussian_dust", "--scenario", "coulomb_shell"],
        ["verify", "geometric", "--strict"],
        ["verify", "algebra", "--tol", "1"],
        ["verify", "poincare", "--grid-n", "24"],
        ["verify", "identities", "--tol", "1"],
        ["verify", "conservation", "--grid-n", "24"],
        ["verify", "conservation", "--seed", "3"],
        ["laue", "classical", "--seed", "3"],
    ],
)
def test_unread_flag_is_usage_error(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize(
    "key, argv",
    [
        ("tol = 1", ["verify", "algebra"]),
        ("fd_h = 0.01", ["laue", "fake"]),
        ("beta = 0.3", ["laue", "equivariance"]),
        ("scenario = coulomb_shell", ["scenario", "gaussian_dust"]),
        ("seed = 3", ["laue", "classical"]),
    ],
)
def test_unread_config_key_is_usage_error(tmp_path, capsys, key, argv):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\n{key}\n")
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "is not read by" in err


@pytest.mark.parametrize("command, check", list(cli.CHECKS))
def test_every_accepted_flag_is_read(monkeypatch, command, check):
    # main reads --format and --out (and the global --config); each runner
    # must read every other flag its parser accepts.  scenario takes --seed
    # unread because perfbench/workloads.py passes it to every CLI workload.
    for suite in ("algebra", "poincare", "identities", "geometric", "conservation"):
        monkeypatch.setattr(cli, f"run_{suite}_suite", lambda *args: [])
    argv = [command] + ([check] if check else ["gaussian_dust"])
    if command != "verify":
        argv += ["--grid-n", "12"]
    flags, runner = cli.CHECKS[command, check]
    args = cli._apply_config(cli.build_parser().parse_args(argv), {}, flags)
    reads = set()

    class ReadRecorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    runner(ReadRecorder(**vars(args)), {})
    exempt = {"command", "check", "config", "format", "out"}
    if command == "scenario":
        exempt.add("seed")
    assert set(vars(args)) - exempt - reads == set()


# public src/ names, of functions, classes, methods and properties, that no
# other src/ definition names, each with why it stays.
# perfbench/spans.py also looks up by attribute the field classes and their own
# __call__, so those may not be renamed either.
KEEP = {
    "laue_integrals": "perfbench/spans.py wraps it by attribute lookup",
    "spherical_rule": "perfbench/spans.py wraps it; whole-array oracle of the streamed rule",
    "map_rule_affine": "perfbench/spans.py wraps it; whole-array oracle of a mapped rule",
    "rule_nodes": "perfbench/spans.py reads it in a node counter that adds nothing now (never None)",
    "nodes_weights": "perfbench/spans.py wraps it by attribute lookup; tests read whole rules",
    "hodge_comps": "perfbench/spans.py wraps it; oracle of the vector-dual test",
    "virial_check": "acceptance criterion 10 reads it",
}


def test_every_public_function_is_reached():
    # each top-level public function or class of src/, and each public method
    # or property of its classes, is named, as a name or an attribute (not in
    # a string), by another definition there, or is kept above, and never
    # both; __init__.py only re-exports, so it does not count
    defined, named = {}, set()

    def visit(node, own):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id not in own:
                named.add(sub.id)
            elif isinstance(sub, ast.Attribute) and sub.attr not in own:
                named.add(sub.attr)

    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            own = getattr(node, "name", None)
            if own and not own.startswith("_"):
                defined[own] = path.stem
            if not isinstance(node, ast.ClassDef):
                visit(node, {own})
                continue
            for item in node.bases + node.keywords + node.decorator_list + node.body:
                meth = item.name if isinstance(item, ast.FunctionDef) else None
                if meth and not meth.startswith("_"):
                    defined[meth] = f"{path.stem}.{own}"
                visit(item, {own, meth})
    unreached = sorted(f"{mod}.{name}" for name, mod in defined.items()
                       if name not in named and name not in KEEP)
    assert unreached == []
    assert set(KEEP) <= set(defined)
    assert sorted(set(KEEP) & named) == []
    # a pin for the benchmark names what perfbench/spans.py still looks up,
    # so a name that file drops shows here as a stale entry
    spans = pathlib.Path(cli.__file__).parents[2] / "perfbench" / "spans.py"
    looked_up = set(re.findall(r"[A-Za-z_]\w*", spans.read_text()))
    assert sorted(name for name, why in KEEP.items()
                  if "perfbench/spans.py" in why and name not in looked_up) == []


def test_unknown_config_format_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nformat = xml\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "algebra")
    assert code == EXIT_USAGE
    assert out == ""
    assert "unknown format 'xml'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "algebra"],
        ["verify", "poincare"],
        ["verify", "identities", "--strict"],
        ["verify", "identities", "--fd-h", "0.1"],
        ["verify", "identities", "--strict", "--fd-h", "0.3"],
        ["verify", "conservation"],
        ["laue", "classical", "--scenario", "coulomb_shell", "--beta", "0.6", "--grid-n", "24"],
        ["laue", "classical", "--scenario", "completed_shell", "--beta", "0.6", "--grid-n", "24"],
        ["laue", "classical", "--grid-n", "16", "--strict", "--tol", "1e-16"],
        ["laue", "fake", "--scenario", "uniform_field_box", "--grid-n", "24"],
        ["laue", "equivariance", "--grid-n", "24"],
        ["scenario", "gaussian_dust", "--grid-n", "24"],
    ],
)
def test_exit_code_is_verdict_of_emitted_rows(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    failed = any(row["verdict"] == "fail" for row in json.loads(out))
    assert code == (EXIT_VERDICT if failed else EXIT_OK)


def test_geometric_and_conservation_never_invert_or_det_per_node(monkeypatch):
    # vector duals are insertions into the volume form, so no dual on
    # these paths needs a per-point metric inverse; sqrt|det g| comes from
    # the strided Laplace expansion, so no stack of matrices reaches LAPACK
    # (single-matrix det calls, such as a patch's frame, stay allowed)
    det = np.linalg.det

    def no_inv(a):
        raise AssertionError("np.linalg.inv called")

    def no_stacked_det(a):
        if np.ndim(a) > 2:
            raise AssertionError(f"np.linalg.det called on a stack of shape {np.shape(a)}")
        return det(a)

    monkeypatch.setattr(np.linalg, "inv", no_inv)
    monkeypatch.setattr(np.linalg, "det", no_stacked_det)
    for records in (run_geometric_suite(7), run_conservation_suite()):
        assert all(r.verdict != "fail" for r in records)


@pytest.mark.parametrize(
    "module, name, fault, alone",
    [
        (fields, "_volume_insert", lambda out: out * 1.01, False),
        (fields, "_volume_insert", lambda out: -out, False),
        (quadrature, "_reduce_patch", lambda out: out * 1.01, True),
    ],
    ids=["dual_scaled", "dual_negated", "every_charge_scaled"],
)
def test_a_charge_fault_fails_verify_conservation(monkeypatch, capsys, module, name, fault, alone):
    # the other rows compare two slices, two routes or two integrals, so a
    # fault that scales every integral alike leaves them at roundoff; the
    # static charge against pi^(3/2) fails under each fault
    clean = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: fault(clean(*args)))
    code, out, _ = run(capsys, "verify", "conservation", "--format", "json")
    failed = [row["quantity"] for row in json.loads(out) if row["verdict"] == "fail"]
    assert code == EXIT_VERDICT and "static_charge_error" in failed
    assert (failed == ["static_charge_error"]) == alone


def test_verify_conservation_never_builds_a_whole_rule(monkeypatch, capsys):
    # the support probe and the Gauss faces read their rules one tile at a time
    def whole(rule):
        raise AssertionError(f"whole rule of {rule.size} nodes built")

    monkeypatch.setattr(quadrature.ProductRule, "whole", whole)
    code, _, err = run(capsys, "verify", "conservation")
    assert (code, err) == (EXIT_OK, "")


def test_determinism_identical_bytes(capsys):
    # verify algebra integrates nothing; laue equivariance integrates over patches
    for argv in (("verify", "algebra", "--seed", "42"),
                 ("laue", "equivariance", "--scenario", "completed_shell", "--grid-n", "24")):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "verify", "algebra", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith("quantity,")


def test_unwritable_out_is_numeric_fault(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "algebra", "--out", str(tmp_path / "no" / "x.csv"))
    assert code == EXIT_NUMERIC
    assert "cannot write" in err


def test_only_cli_names_integral_record():
    # row names, grid labels and tolerance gates are decided in one module:
    # the checks return numbers, and cli.py turns them into records
    offenders = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name", "asname")}
            if "IntegralRecord" in names or getattr(node, "value", None) == "IntegralRecord":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_emit_empty_report_header_only():
    assert records_to_csv([]) == "quantity,component,value,grid_N,h,refinement_ratio,tolerance,verdict\n"


def test_emit_json_round_trip():
    rec = IntegralRecord("thing[x=1]", 0.5, "grid", h=1e-3, tolerance=1e-6, verdict="pass")
    rows = json.loads(emit([rec], "json"))
    assert rows[0]["quantity"] == "thing"
    assert rows[0]["component"] == "x=1"
    assert rows[0]["value"] == 0.5
    assert rows[0]["h"] == 1e-3


def test_json_output_has_no_nan_token(capsys):
    # at this step the fine residual is exactly 0, so the refinement ratio is
    # NaN, which RFC 8259 has no token for: the row carries it as null
    code, out, _ = run(capsys, "verify", "identities", "--strict", "--fd-h", "1000",
                       "--format", "json")

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    rows = json.loads(out, parse_constant=reject)
    assert code == EXIT_VERDICT
    assert rows[-1]["quantity"] == "contracted_current_refinement"
    assert rows[-1]["value"] is None and rows[-1]["refinement_ratio"] is None


@pytest.mark.parametrize("suite", ["identities", "poincare"])
def test_cli_evaluates_the_connection(monkeypatch, capsys, suite):
    # the connection is finite-differenced for every metric, flat included, so
    # these suites on eta enter the closure christoffels returns
    calls = []
    christoffels = fields.christoffels

    def counted(g, h=fields.DEFAULT_H):
        gamma = christoffels(g, h)

        def func(points):
            calls.append(len(points))
            return gamma(points)

        return func

    monkeypatch.setattr(fields, "christoffels", counted)
    code, _, _ = run(capsys, "verify", suite)
    assert code == EXIT_OK
    assert len(calls) >= 1


def test_geometric_suite_measures_no_lie_derivative(monkeypatch, capsys):
    # the suite's rows read only the three routes, so no hypothesis probe
    # differentiates the dual current along U
    calls = []
    lie_derivative = fields.lie_derivative

    def counted(*args, **kwargs):
        calls.append(args)
        return lie_derivative(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("laue_lab") and getattr(mod, "lie_derivative", None) is lie_derivative:
            monkeypatch.setattr(mod, "lie_derivative", counted)
    code, _, _ = run(capsys, "verify", "geometric")
    assert code == EXIT_OK
    assert calls == []


def test_emit_markdown_table():
    rec = IntegralRecord("p", 1.25, "g")
    text = emit([rec], "md")
    assert text.splitlines()[0].startswith("| quantity |")
    assert "| p | 1.25 | g |" in text


def test_csv_quoting_safe_for_commas():
    rec = IntegralRecord("x[a,b]", 1.0, "g")
    text = records_to_csv([rec])
    # component with a comma must stay one field
    assert '"a,b"' in text


def test_rng_is_counter_based_and_seeded():
    a = rng_from_seed(9).standard_normal(4)
    b = rng_from_seed(9).standard_normal(4)
    assert np.array_equal(a, b)
    assert isinstance(np.random.Generator(np.random.Philox(9)).bit_generator, np.random.Philox)


def test_benchmark_traced_mode_runs_a_scenario():
    # the benchmark's traced mode wraps laue_lab's functions by name; a rename
    # in src/ must fail here rather than only under `perfbench/run.py --trace 1`
    root = pathlib.Path(__file__).resolve().parents[1]
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(root / 'perfbench')!r}, {str(root / 'src')!r}]\n"
        "from spans import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from laue_lab.cli import main\n"
        "codes = [main(['scenario', 'gaussian_dust', '--grid-n', '12']),\n"
        "         main(['scenario', 'coulomb_shell', '--grid-n', '8']),\n"
        "         main(['verify', 'identities'])]\n"
        "print(json.dumps(sorted({span[0] for span in tracer.spans})))\n"
        "sys.exit(max(codes))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    assert {"cli", "scenarios", "quadrature.rule", "quadrature.reduce", "fields.eval",
            "fields.fd"} <= set(names)


def test_peak_memory_is_bounded_by_the_tile():
    # a patch holds its rule as 1-D factors and builds one tile of nodes at a
    # time, so the 2,230,272 nodes of grid 96 peak where the 281,088 of grid
    # 48 do; whole rules peaked at about 54 and 206 MB
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    script = (
        "import contextlib, io, resource, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from laue_lab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['scenario', 'coulomb_shell', '--grid-n', sys.argv[1]])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    peak_mb = []
    for grid_n in ("48", "96"):
        proc = subprocess.run([sys.executable, "-c", script, grid_n], capture_output=True,
                              text=True, timeout=300)
        code, kib = proc.stdout.split()
        assert (proc.returncode, code) == (0, "0"), proc.stderr
        peak_mb.append(int(kib) / 1024)  # ru_maxrss is in KiB on Linux
    assert abs(peak_mb[1] - peak_mb[0]) < 10, peak_mb


def test_geometric_tiles_do_not_refault_the_heap():
    # each central-difference pass writes into one block, so the freed
    # temporaries of a tile no longer make glibc trim the heap and fault it
    # in again on the next tile: 64-66k minor faults with np.stack
    # temporaries, 10-17k since (it moves with the checkout path), of which
    # about 6k are the import
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    script = (
        "import contextlib, io, resource, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from laue_lab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', 'geometric'])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    code, faults = proc.stdout.split()
    assert (proc.returncode, code) == (0, "0"), proc.stderr
    assert int(faults) < 25_000, faults


def test_strict_classical_keeps_its_heap_between_tiles():
    # main fixes glibc's mmap and trim thresholds, so the boosted scale-2
    # passes reuse each tile's freed temporaries instead of trimming the heap
    # and faulting them in again: 290-370k minor faults with glibc's
    # dynamic thresholds, depending on the checkout path, and about 7k with
    # the fixed ones (6k of them the import)
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    script = (
        "import contextlib, io, resource, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from laue_lab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['laue', 'classical', '--scenario', 'completed_shell', '--strict'])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300)
    code, faults = proc.stdout.split()
    assert (proc.returncode, code) == (0, "0"), proc.stderr
    assert int(faults) < 25_000, faults


@pytest.mark.parametrize("seed", [7, 11])
def test_benchmark_draws_the_cli_elements(monkeypatch, seed):
    # perfbench's equivariance workload draws its elements with its own copy
    # of the expressions in cli.seeded_elements; the two must stay the same
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    ours = workloads.setup("equivariance", seed)["g_list"]
    theirs = cli.seeded_elements(seed)
    assert [label for label, _ in ours] == [label for label, _ in theirs]
    for (_, g_bench), (_, g_cli) in zip(ours, theirs):
        assert np.array_equal(g_bench.A, g_cli.A) and np.array_equal(g_bench.a, g_cli.a)

import argparse
import importlib
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from laue_lab import cli
from laue_lab.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERDICT,
    emit,
    main,
    records_to_csv,
    rng_from_seed,
    run_conservation_suite,
    run_geometric_suite,
)
from laue_lab.quadrature import IntegralRecord


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


@pytest.mark.parametrize("suite", ["identities", "geometric", "conservation"])
@pytest.mark.parametrize("h", ["0", "-0.001"])
def test_non_positive_fd_h_is_usage_error(capsys, suite, h):
    code, out, err = run(capsys, "verify", suite, f"--fd-h={h}")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--fd-h must be" in err


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
        monkeypatch.setattr(cli, f"run_{suite}_suite", lambda *args: ([], True))
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


def test_geometric_and_conservation_never_invert_the_metric(monkeypatch):
    # vector duals are insertions into the volume form, so no dual on
    # these paths needs a per-point metric inverse
    def no_inv(a):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", no_inv)
    assert run_geometric_suite(7)[1]
    assert run_conservation_suite()[1]


def test_determinism_identical_bytes(capsys):
    _, out1, _ = run(capsys, "verify", "algebra", "--seed", "42")
    _, out2, _ = run(capsys, "verify", "algebra", "--seed", "42")
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


def test_emit_empty_report_header_only():
    assert records_to_csv([]) == "quantity,component,value,grid_N,h,refinement_ratio,tolerance,verdict\n"


def test_emit_json_round_trip():
    rec = IntegralRecord("thing[x=1]", 0.5, "grid", h=1e-3, tolerance=1e-6, verdict="pass")
    rows = json.loads(emit([rec], "json"))
    assert rows[0]["quantity"] == "thing"
    assert rows[0]["component"] == "x=1"
    assert rows[0]["value"] == 0.5
    assert rows[0]["h"] == 1e-3


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

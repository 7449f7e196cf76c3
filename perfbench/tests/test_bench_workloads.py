"""The equivariance workload draws the same group elements as the CLI."""

import contextlib
import io
import sys

import numpy as np

import run
import workloads

sys.path.insert(0, run.SRC)

from laue_lab import checkers  # noqa: E402
from laue_lab.cli import main  # noqa: E402


def test_equivariance_elements_match_cli(monkeypatch):
    seen = {}

    def record(T, spec, origin, g_list, sig, **kwargs):
        seen.update(g_list=g_list, spec=spec, kwargs=kwargs)
        return []

    monkeypatch.setattr(checkers, "equivariance_report", record)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["laue", "equivariance", "--scenario", "completed_shell", "--seed", "11"]) == 0
    ours = workloads.setup("equivariance", 11)
    assert [label for label, _ in seen["g_list"]] == [label for label, _ in ours["g_list"]]
    for (_, g_cli), (_, g_ours) in zip(seen["g_list"], ours["g_list"]):
        assert np.array_equal(g_cli.A, g_ours.A) and np.array_equal(g_cli.a, g_ours.a)
    assert seen["spec"].name == ours["spec"].name
    assert seen["kwargs"]["outer"] == workloads.EQUIVARIANCE_OUTER
    assert seen["kwargs"]["restricted"] is True

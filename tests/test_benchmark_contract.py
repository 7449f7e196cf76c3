"""What the benchmark under ``perfbench/`` calls in laue_lab.

The benchmark's files may not change together with ``src/``, so a
simplification that drops a keyword or a name they use would only show when
the benchmark runs.  These tests show it in the ordinary suite.
"""

import ast
import inspect
import pathlib
import sys

import numpy as np
import pytest

from laue_lab import checkers

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


def test_equivariance_report_binds_the_workload_call():
    # read the call from the benchmark's source, so a keyword it adds or a
    # parameter laue_lab drops fails here
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    (call,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "equivariance_report"
    ]
    keywords = [kw.arg for kw in call.keywords]
    assert keywords == ["scale", "restricted", "outer"]
    inspect.signature(checkers.equivariance_report).bind(
        *range(len(call.args)), **dict.fromkeys(keywords)
    )


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_setup_runs(name):
    inputs = workloads.setup(name, 3)
    if name == "equivariance":
        assert inputs["spec"].name == "completed_shell"
        assert len(inputs["g_list"]) == workloads.N_ELEMENTS
    else:
        # the CLI parses the argv the workload will pass to main
        from laue_lab.cli import build_parser

        args = build_parser().parse_args(inputs["argv"])
        assert (args.seed, args.format) == (3, "json")

"""Byte digests of the CLI over a fixed command list, for comparing two checkouts.

Runs each command below in each output format through ``cli.main`` in one
process, and prints one line per run: the sha256 of its stdout, stderr and
exit code, then the format and the command.  The ``src/`` next to this file
is the one imported, so

    python3 OLD/tests/cli_matrix.py > old.txt
    python3 NEW/tests/cli_matrix.py > new.txt
    diff old.txt new.txt

shows every run whose bytes differ between the checkouts OLD and NEW.  No
digests are stored: the last bits of a number depend on the CPU features
numpy dispatches to, so the same code prints other bytes on another CPU.
Not collected by pytest (no ``test_`` prefix).
"""

import contextlib
import hashlib
import io
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from laue_lab import cli  # noqa: E402
from laue_lab.scenarios import SCENARIO_NAMES  # noqa: E402

COMMANDS = (
    [["verify", suite] for suite in ("algebra", "poincare", "identities", "geometric", "conservation")]
    + [["verify", "identities", "--strict"]]
    # the geometric pass at a second seed and a second fd step
    + [["verify", "geometric", "--seed", "11"], ["verify", "geometric", "--fd-h", "2e-3"]]
    # at --fd-h 1000 the fine residual is exactly 0, so the refinement ratio is NaN
    + [["verify", "identities", "--strict", "--fd-h", "1000"],
       ["verify", "identities", "--fd-h", "0.3"]]
    + [["laue", check, "--scenario", name, "--grid-n", "24"]
       for name in SCENARIO_NAMES for check in ("classical", "fake", "equivariance")]
    + [["scenario", name, "--grid-n", "24"] for name in SCENARIO_NAMES]
    + [["scenario", name] for name in SCENARIO_NAMES]
    + [["scenario", "coulomb_shell", "--grid-n", "96"]]
    + [["laue", check] for check in ("classical", "fake", "equivariance")]
    + [["laue", "equivariance", "--scenario", "completed_shell"]]
    + [["laue", "classical", "--scenario", name, "--strict"]
       for name in ("coulomb_shell", "completed_shell")]
)


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    blob = "\0".join((out.getvalue(), err.getvalue(), str(code)))
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> None:
    for argv in COMMANDS:
        for fmt in cli.FORMATS:
            print(digest(argv + ["--format", fmt]), fmt, " ".join(argv), flush=True)


if __name__ == "__main__":
    main()

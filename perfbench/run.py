"""Benchmark driver: whole-check workloads of laue_lab, one fresh process per round.

    python3 perfbench/run.py --workload {equivariance,geometric,shell_fine}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each round starts ``worker.py`` in a new
interpreter, as one ``laue-lab`` invocation would start, so import and
first-touch costs stay in every round.  Rounds repeat until ``--seconds``
would be exceeded (at least two, so repeat output can be compared), one
operation (one whole check) per round.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and the medians over
rounds of the end-to-end metrics (``--trace 0``) or of the per-layer metrics
from traced rounds (``--trace 1``).  Run records and span files go to
``perfbench/out/``.

The rounds run with ``LAUE_LAB_THREADS`` unset and OpenBLAS at its own
thread count, the environment of a default ``laue-lab`` call.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import workloads
from spans import PER_LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_ROUNDS = 2
BUDGET_S = 170.0  # every run ends within 180 s
# thread settings a caller may have exported; a default laue-lab call has none
THREAD_VARS = ("LAUE_LAB_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
               "OMP_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    return env


def run_round(workload: str, seed: int, trace_file, timeout: float):
    """One fresh worker process; returns its record, or None when set-up failed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace_file:
        cmd += ["--trace", trace_file]
    spawned = monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return {"failed": True, "timed_out": True}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("ready") - spawned
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "laue_lab", "__init__.py")):
        print(f"no laue_lab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    records = []
    start = monotonic()
    while True:
        elapsed = monotonic() - start
        trace_file = (os.path.join(OUT, f"spans-{tag}-round{len(records)}.json")
                      if args.trace else None)
        record = run_round(args.workload, args.seed, trace_file, BUDGET_S - elapsed)
        if record is None:
            print("set-up failed; no result", file=sys.stderr)
            return 2
        record["round_s"] = monotonic() - start - elapsed
        records.append(record)
        if record.get("timed_out"):
            break
        elapsed = monotonic() - start
        longest = max(r["round_s"] for r in records)
        if len(records) >= MIN_ROUNDS and (
            elapsed + statistics.median(r["round_s"] for r in records) > args.seconds
            or elapsed + 1.5 * longest > BUDGET_S
        ):
            break

    done = [r for r in records if not r["failed"]]
    if not done:
        print(f"all {len(records)} operations failed; no result", file=sys.stderr)
        return 1
    problems = [p for r in done for p in r["problems"]]
    problems += checks.repeat_problems(r["digest"] for r in done)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        units = PER_LAYER_UNITS
        values = {name: statistics.median(r["layers"][name] for r in done) for name in units}
    else:
        units = END_TO_END_UNITS
        values = {name: statistics.median(r[name] for r in done)
                  for name in units if name != "accuracy_digits"}
        digits = [r["accuracy_digits"] for r in done if r["accuracy_digits"] is not None]
        values["accuracy_digits"] = statistics.median(digits) if digits else 0.0
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(records) - len(done),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump({"args": vars(args), "rounds": records, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

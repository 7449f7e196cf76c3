"""One round of a workload in a fresh process, as one ``laue-lab`` call.

Imports laue_lab from the checkout's ``src/``, builds the workload's inputs,
runs it, checks its outputs and prints one JSON line for ``run.py``.  The
clock stamp ``ready`` (CLOCK_MONOTONIC, shared by all processes) marks the
end of set-up; ``wall_s`` and ``cpu_s`` run from there to the last checked
output.  With ``--trace FILE`` the public functions of laue_lab record spans,
which are written to FILE and summed into per-layer metrics.

Exit code 0 with a result line, also when the operation itself raised (the
line says so); exit code 2 without one when set-up fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import checks
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from spans import Tracer, per_layer_metrics

        tracer = Tracer()
        index = tracer.open("laue_lab.import")
    try:
        import laue_lab
    except ImportError as exc:
        print(f"set-up failed: cannot import laue_lab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(laue_lab.__file__).startswith(SRC + os.sep):
        print(f"set-up failed: laue_lab imported from {laue_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.close(index)
        tracer.install()
    inputs = workloads.setup(args.workload, args.seed)

    ready = monotonic()
    cpu0 = time.process_time()
    check, error_of = checks.CHECKS[args.workload]
    result = {"ready": ready}
    try:
        text, values = workloads.run(args.workload, inputs)
        problems = check(values)
        accuracy = None if problems else checks.accuracy_digits(error_of(values))
    except Exception:  # the operation failed; report it and keep the process's exit clean
        traceback.print_exc()
        result["failed"] = True
    else:
        result.update(
            failed=False,
            problems=problems,
            accuracy_digits=accuracy,
            digest=hashlib.sha256(text.encode()).hexdigest(),
        )
    result["wall_s"] = monotonic() - ready
    result["cpu_s"] = time.process_time() - cpu0
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        trace = tracer.to_json()
        with open(args.trace, "w") as fh:
            json.dump(trace, fh)
        result["layers"] = per_layer_metrics(trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: their inputs, built from the seed, and the timed call.

Each workload does what one ``laue-lab`` invocation does:

- ``equivariance``: ``laue-lab laue equivariance --scenario completed_shell``
  (momentum-map covariance of the completed shell under five seeded
  Poincare elements, full and restricted).  The checker is called directly,
  with the elements drawn exactly as the CLI draws them, because the check
  needs the reference norm, which the CLI does not emit.
- ``geometric``: ``laue-lab verify geometric``, run through ``cli.main``.
- ``shell_fine``: ``laue-lab scenario coulomb_shell --grid-n 96``, run
  through ``cli.main``.

``run`` returns (text, values): the exact output bytes, compared between
repeat runs, and a flat name -> number mapping for ``checks``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

from checks import EQUIVARIANCE_OUTER, N_ELEMENTS

NAMES = ("equivariance", "geometric", "shell_fine")

CLI_ARGS = {
    "geometric": ["verify", "geometric"],
    "shell_fine": ["scenario", "coulomb_shell", "--grid-n", "96"],
}


def setup(name: str, seed: int) -> dict:
    """Build the workload's inputs; laue_lab is already imported."""
    if name == "equivariance":
        import numpy as np

        from laue_lab import Signature, build, compose, rotation, standard_boost, translation
        from laue_lab.cli import rng_from_seed

        T, spec = build("completed_shell")
        # the same draws, in the same order, as ``cli.run_laue_command``
        rng = rng_from_seed(seed)
        g_list = []
        for i in range(N_ELEMENTS):
            g = compose(
                standard_boost(1, float(rng.uniform(-0.6, 0.6))),
                compose(
                    rotation(1, 2, float(rng.uniform(0, 2 * math.pi))),
                    translation(np.concatenate([[0.0], rng.uniform(-0.5, 0.5, 3)])),
                ),
            )
            g_list.append((f"g{i}", g))
        return {"T": T, "spec": spec, "g_list": g_list, "sig": Signature.mostly_minus(4)}
    return {"argv": CLI_ARGS[name] + ["--seed", str(seed), "--format", "json"]}


def run(name: str, inputs: dict):
    if name == "equivariance":
        import numpy as np

        from laue_lab import equivariance_report

        entries = equivariance_report(
            inputs["T"], inputs["spec"], np.zeros(4), inputs["g_list"], inputs["sig"],
            scale=1.0, restricted=True, outer=EQUIVARIANCE_OUTER,
        )
        values = {}
        for e in entries:
            values[f"equivariance_full[{e.label}]"] = e.full_residual
            values[f"equivariance_restricted[{e.label}]"] = e.restricted_residual
        values["reference_norm"] = entries[0].reference_norm
        return json.dumps(values, sort_keys=True), values
    from laue_lab.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(inputs["argv"])
    text = buf.getvalue()
    values = {"exit_code": code}
    for row in json.loads(text):
        key = row["quantity"] + (f"[{row['component']}]" if row["component"] else "")
        values[key] = row["value"]
        if row["refinement_ratio"] is not None:
            values[f"{key}.refinement_ratio"] = row["refinement_ratio"]
    return text, values

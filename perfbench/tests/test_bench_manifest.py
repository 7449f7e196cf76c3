"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
import os

import run
from spans import PER_LAYER_UNITS

MANIFEST = os.path.join(run.ROOT, "BENCHMARK.json")


def test_manifest_matches_printed_metrics():
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in manifest["workloads"]] == list(run.workloads.NAMES)
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])

"""BENCHMARK.json names exactly the metrics and workloads the benchmark reports."""

import json
import os

import run
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_and_metrics_match_the_code():
    doc = _manifest()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in tracer.LAYER_METRICS]


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in _manifest()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25

"""A traced scan repetition records spans for the functions selberg binds by name."""

import json
import os

import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_traced_scan_spans_and_repeatable_counts(tmp_path):
    env = run.child_env(ROOT)
    results = [run.run_child("scan", 0, str(tmp_path / f"rep{i}"), True, env) for i in range(2)]
    assert all(r["rc"] == 0 for r in results), results

    with open(tmp_path / "rep0" / "trace.json", encoding="utf-8") as fh:
        spans = json.load(fh)
    names = {s["name"] for s in spans}
    assert {"zeta.log_deriv_band", "arith.lambda_segments", "nufft.NufftSum.add",
            "selberg.explicit_formula_scan", "zeta.hardy_z", "cli.main"} <= names
    scan_ids = {i for i, s in enumerate(spans) if s["name"] == "selberg.explicit_formula_scan"}
    for s in spans:
        if s["name"] in ("zeta.log_deriv_band", "arith.lambda_segments"):
            assert s["parent"] in scan_ids
    assert results[0]["span_share"] >= 0.9

    counts = [{k: v for k, v in r["layers"].items() if not k.endswith(".self_s")}
              for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["arith.lambda_segments.prime_powers"] == counts[0]["nufft.NufftSum.add.sources"] > 0
    assert not os.path.exists(tmp_path / "rep0" / "payload" / "trace.json")

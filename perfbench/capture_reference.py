"""Capture the reference outputs of every workload at the default seed.

    python3 perfbench/capture_reference.py [WORKLOAD ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  Writes perfbench/reference/<workload>.json; run.py compares
seed-0 outputs with these files.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main(names) -> int:
    root = os.getcwd()
    env = run.child_env(root)
    for name in names or workloads.NAMES:
        rep_dir = os.path.join(root, ".bench_runs", f"reference-{name}")
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep = run.run_child(name, 0, rep_dir, False, env)
        if rep.get("rc") != 0:
            print(f"{name}: run failed: {rep.get('error')}", file=sys.stderr)
            return 1
        out = workloads.extract(name, os.path.join(rep_dir, "payload"))
        if workloads.failed_points(name, 0, out, None):
            print(f"{name}: outputs fail their invariants; not captured", file=sys.stderr)
            return 1
        doc = {"workload": name, "seed": 0, "inputs": workloads.inputs(name, 0),
               "git_revision": run.git_revision(root), "values": out["values"]}
        path = workloads.reference_path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

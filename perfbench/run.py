"""zetalab benchmark: times the desk pipelines end to end and, traced, per layer.

    python3 perfbench/run.py --workload scan --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload at the default seed

Run it from the root of a checkout (the directory holding src/zetalab).
A run repeats the workload, each repetition a fresh interpreter with
--workers 1 and BLAS pinned to one thread, while the next repetition is
expected to end within --seconds (at least two repetitions), and reports
the median over repetitions:

- wall_s: first library call to the payload written (set-up excluded),
- setup_s: fresh interpreter to zetalab.cli imported, also sampled by
  extra interpreters that only import,
- cpu_s: user plus system CPU over the same span as wall_s,
- peak_rss_mb: peak resident memory of the repetition's process,
- ok_frac: 1 - fail_frac, the share of attempted points that did not fail.

With --trace 1 repetitions alternate between untraced and traced, and the
per-layer metrics of tracer.LAYER_METRICS are reported instead.  Every
repetition's outputs are checked (see workloads.py).  Results, payloads and
traces go to .bench_runs/ in the current directory; the last line of
standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = 1
MIN_REPS = 2  # with --trace 1: one untraced and one traced
SETUP_SAMPLES = 5  # extra import-only interpreters per run
REP_TIMEOUT_S = 150

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(name: str, seed: int, rep_dir: str, trace: bool, env: dict) -> dict:
    """Start one fresh interpreter and return its result.json plus set-up time."""
    os.makedirs(rep_dir)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), name, str(seed), rep_dir,
             "1" if trace else "0"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"killed after {REP_TIMEOUT_S} s"}
    try:
        with open(os.path.join(rep_dir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return {"rc": None, "error": proc.stderr.strip()[-500:] or f"exit {proc.returncode}"}
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def check_rep(name: str, seed: int, rep: dict) -> int:
    """Failed points of one repetition, after the output check."""
    out = None
    if rep.get("rc") == 0:
        try:
            out = workloads.extract(name, os.path.join(rep["dir"], "payload"))
        except (OSError, ValueError, KeyError) as exc:
            rep["error"] = f"payload rejected: {exc}"
    ref = workloads.load_reference(name) if seed == 0 else None
    return workloads.failed_points(name, rep.get("rc"), out, ref)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def git_revision(root: str) -> str:
    head = _read(os.path.join(root, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        rev = _read(os.path.join(root, ".git", ref)).strip()
        if not rev:
            for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    rev = line.split()[0]
        head = rev
    return head or "unknown (not a git checkout)"


def environment(root: str) -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level")).strip()
        kind = _read(os.path.join(index, "type")).strip()
        size = _read(os.path.join(index, "size")).strip()
        caches.append(f"L{level} {kind} {size}")
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        blas = "unknown"
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {"git_revision": git_revision(root), "python": platform.python_version(),
            **versions, "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches, "blas": blas, "blas_threads": BLAS_THREADS}


def measure(name: str, seed: int, seconds: float, trace: bool, root: str, env: dict) -> dict:
    """Repeat the workload for `seconds`; return the run's summary."""
    run_dir = os.path.join(root, ".bench_runs", f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    reps, durations = [], []
    start = time.monotonic()
    # Start another repetition only while it is expected to end within `seconds`.
    while (len(reps) < MIN_REPS
           or time.monotonic() - start + statistics.median(durations) <= seconds):
        rep_dir = os.path.join(run_dir, f"rep{len(reps)}")
        traced = trace and len(reps) % 2 == 1
        t_rep = time.monotonic()
        rep = run_child(name, seed, rep_dir, traced, env)
        durations.append(time.monotonic() - t_rep)
        rep.update(dir=rep_dir, traced=traced)
        rep["failed"] = check_rep(name, seed, rep)
        reps.append(rep)
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    for i in range(SETUP_SAMPLES):
        rep = run_child("setup", seed, os.path.join(run_dir, f"setup{i}"), False, env)
        if "setup_s" in rep:
            setups.append(rep["setup_s"])

    attempted = workloads.POINTS[name] * len(reps)
    failed = sum(r["failed"] for r in reps)
    summary = {"workload": name, "seed": seed, "trace": trace, "inputs": workloads.inputs(name, seed),
               "environment": environment(root), "attempted": attempted, "failed": failed,
               "fail_frac": failed / attempted, "repetitions": reps, "setup_samples": setups}
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    if not trace:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain) if plain else None,
            "setup_s": statistics.median(setups) if setups else None,
            "cpu_s": statistics.median(r["cpu_s"] for r in plain) if plain else None,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain) if plain else None,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    else:
        traced = [r for r in reps if r["traced"] and "layers" in r]
        metrics = layer_summary(name, traced, plain)
        units = {m: unit for m, unit, _b, _moves in tracer.LAYER_METRICS}
    summary["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(os.path.join(run_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def layer_summary(name: str, traced: list, plain: list) -> dict:
    """Median self times, counts and the tracing overhead and span share."""
    if not traced:
        return {}
    out = {}
    for metric in traced[0]["layers"]:
        values = [r["layers"][metric] for r in traced]
        out[metric] = statistics.median(values) if metric.endswith(".self_s") else values[0]
        if not metric.endswith(".self_s") and len(set(values)) > 1:
            print(f"warning: count {metric} differs between traced repetitions: {values}")
    payloads = glob.glob(os.path.join(traced[0]["dir"], "payload", "*"))
    out["cli.payload_bytes"] = sum(os.path.getsize(p) for p in payloads) if name != "sandwich" else 0
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in plain) if plain else 0.0
    out["trace.span_share"] = statistics.median(r["span_share"] for r in traced)
    return {m: out[m] for m, _unit, _better, _moves in tracer.LAYER_METRICS}


def report(summary: dict) -> None:
    env = summary["environment"]
    print(f"== {summary['workload']} seed={summary['seed']} trace={int(summary['trace'])} "
          f"inputs={json.dumps(summary['inputs'])}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "caches")
          + " caches=" + ", ".join(env["caches"]))
    for i, r in enumerate(summary["repetitions"]):
        if "wall_s" in r and r.get("rc") is not None:
            line = (f"wall {r['wall_s']:.3f} s setup {r['setup_s']:.3f} s cpu {r['cpu_s']:.3f} s "
                    f"rss {r['peak_rss_mb']:.1f} MB")
        else:
            line = f"error: {r.get('error')}"
        print(f"rep {i}{' traced' if r['traced'] else ''}: {line} failed {r['failed']}")
    verdict = "PASS" if summary["failed"] == 0 else "FAIL"
    ref = "reference values and invariants" if summary["seed"] == 0 else "invariants"
    print(f"output check ({ref}): {verdict}, {summary['failed']} of {summary['attempted']} "
          f"points failed, fail_frac {summary['fail_frac']:.6g} ratio")
    for k, m in summary["metrics"].items():
        print(f"  {k:42s} {m['value']!r:>24} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zetalab", "cli.py")):
        print("error: run from the root of a zetalab checkout (src/zetalab not found)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summaries = [measure(n, args.seed, args.seconds, bool(args.trace), root, env) for n in names]
    for s in summaries:
        report(s)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": m for s in summaries for k, m in s["metrics"].items()}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": sum(s["attempted"] for s in summaries),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

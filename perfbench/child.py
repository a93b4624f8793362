"""One repetition of a workload in a fresh interpreter; started by run.py.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR TRACE

Imports zetalab.cli first (set-up ends there and its monotonic time is
reported), then runs the workload once and writes OUT_DIR/result.json with
the run's wall and CPU time and peak RSS.  With WORKLOAD "setup" it stops
after the import.  With TRACE 1 the public functions are wrapped by the
tracer, the spans go to OUT_DIR/trace.json and the per-layer metrics into
result.json.
"""

import sys
import time

import zetalab.cli  # noqa: F401  (set-up is the time to reach this point)

T_READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    name, seed, out_dir, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    result = {"t_ready": T_READY}
    if name != "setup":
        import tracer
        import workloads

        spec = workloads.inputs(name, seed)
        tr = tracer.Tracer(run_id=f"{name}-seed{seed}-{os.path.basename(out_dir)}")
        if trace:
            tr.install()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            result["rc"] = workloads.run(name, spec, os.path.join(out_dir, "payload"))
        except Exception as exc:  # reported as a failed repetition, not a crash
            result["rc"] = None
            result["error"] = f"{type(exc).__name__}: {exc}"
        t1, cpu1 = time.perf_counter(), _cpu_s()
        result.update(wall_s=t1 - t0, cpu_s=cpu1 - cpu0,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if trace:
            with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
                json.dump(tr.records(), fh)
            result["layers"] = tracer.layer_metrics(tr.spans, tr.counts)
            result["span_share"] = tracer.covered_share(tr.spans, t0, t1)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Span tracer that times zetalab's public functions from outside the package.

`install` replaces each function listed in `TARGETS` with a timing wrapper
at every module attribute that binds it, because modules such as
`selberg` and `lab` import functions by name and a wrapper placed only on
the defining module would miss those calls.  Methods are wrapped on their
class; generator functions get one span per `next()`.

Spans are kept in memory as (name, start, end, parent) and written out by
the caller when the run ends.  A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

from workloads import QUAD_TOL


def _count_log_deriv_band(c, args, kwargs, result):
    flags = result[1]
    c["zeta.log_deriv_band.points"] += int(flags.size)
    c["zeta.log_deriv_band.near_zero"] += int((flags == 1).sum())
    c["zeta.log_deriv_band.uncertified"] += int((flags == 2).sum())


def _count_segment(c, args, kwargs, item):
    c["arith.lambda_segments.prime_powers"] += int(item[0].size)


def _count_hardy_z(c, args, kwargs, result):
    c["zeta.hardy_z.calls"] += 1


def _count_zeros(c, args, kwargs, result):
    c["zeta.find_zero_ordinates.zeros"] += len(result)


def _count_nufft_add(c, args, kwargs, result):
    acc, phi = args[0], args[1]
    c["nufft.NufftSum.add.sources"] += int(phi.size)
    # Computed bytes: one bincount pass per real/imaginary part and grid
    # offset, each reading and writing a float64 grid of length Mr.
    c["nufft.NufftSum.add.grid_bytes"] += 2 * (2 * acc.spread + 1) * acc.Mr * 8


def _count_chf_product(c, args, kwargs, result):
    c["torus.chf_product.calls"] += 1


def _count_fourier(c, args, kwargs, result):
    c["bandlimit.fourier_transform.freqs"] += int(result[0].size)


def _count_chf_grid(c, args, kwargs, result):
    c["lab.empirical_chf_grid.terms"] += args[0].n_ok * result.shape[0] * result.shape[1]


def _count_rect(c, args, kwargs, result):
    quad_tol = kwargs.get("quad_tol", QUAD_TOL)
    key = "lab.rect_prob_from_chf.nodes_per_axis"
    c[key] = max(c[key], result.nodes_per_axis)
    key = "lab.rect_prob_from_chf.quad_margin"
    c[key] = max(c[key], result.doubling_delta / quad_tol)


# span name -> (module, attribute path, counter or None)
TARGETS = {
    "arith.lambda_segments": ("zetalab.arith", "lambda_segments", _count_segment),
    "arith.prime_powers_up_to": ("zetalab.arith", "prime_powers_up_to", None),
    "zeta.log_deriv_band": ("zetalab.zeta", "log_deriv_band", _count_log_deriv_band),
    "zeta.find_zero_ordinates": ("zetalab.zeta", "find_zero_ordinates", _count_zeros),
    "zeta.hardy_z": ("zetalab.zeta", "hardy_z", _count_hardy_z),
    "variance.make_context": ("zetalab.variance", "make_context", None),
    "selberg.explicit_formula_scan": ("zetalab.selberg", "explicit_formula_scan", None),
    "nufft.NufftSum.add": ("zetalab._nufft", "NufftSum.add", _count_nufft_add),
    "nufft.NufftSum.finish": ("zetalab._nufft", "NufftSum.finish", None),
    "torus.make_torus_model": ("zetalab.torus", "make_torus_model", None),
    "torus.chf_product": ("zetalab.torus", "chf_product", _count_chf_product),
    "bandlimit.fourier_transform": ("zetalab.bandlimit", "fourier_transform", _count_fourier),
    "lab.empirical_chf_grid": ("zetalab.lab", "empirical_chf_grid", _count_chf_grid),
    "lab.rect_prob_from_chf": ("zetalab.lab", "rect_prob_from_chf", _count_rect),
    "lab.sample_line": ("zetalab.lab", "sample_line", None),
    "cli.main": ("zetalab.cli", "main", None),
}

# Per-layer metrics: (name, unit, better, the end-to-end metric it should move).
LAYER_METRICS = [
    ("arith.lambda_segments.self_s", "s", "lower", "wall_s, peak_rss_mb on scan"),
    ("arith.lambda_segments.prime_powers", "count", "lower", "wall_s, peak_rss_mb on scan"),
    ("arith.prime_powers_up_to.self_s", "s", "lower", "wall_s on torus_chf"),
    ("zeta.log_deriv_band.self_s", "s", "lower",
     "wall_s on line_desk (~all) and sandwich; none on scan, torus_chf"),
    ("zeta.log_deriv_band.points", "count", "lower", "wall_s on line_desk, sandwich"),
    ("zeta.log_deriv_band.uncertified", "count", "lower", "fail_frac on line_desk, sandwich"),
    ("zeta.log_deriv_band.near_zero", "count", "lower", "fail_frac on line_desk, sandwich"),
    ("zeta.find_zero_ordinates.self_s", "s", "lower", "wall_s on scan only"),
    ("zeta.hardy_z.self_s", "s", "lower", "wall_s on scan only"),
    ("zeta.hardy_z.calls", "count", "lower", "wall_s on scan only"),
    ("zeta.hardy_z.calls_per_zero", "calls/zero", "lower", "wall_s on scan only"),
    ("variance.make_context.self_s", "s", "lower", "wall_s on line_desk, sandwich"),
    ("selberg.explicit_formula_scan.self_s", "s", "lower", "wall_s on scan"),
    ("nufft.NufftSum.add.self_s", "s", "lower", "wall_s on scan (line_desk once zeta uses it)"),
    ("nufft.NufftSum.add.sources", "count", "lower", "wall_s on scan"),
    ("nufft.NufftSum.add.grid_bytes", "B", "lower", "wall_s, peak_rss_mb on scan"),
    ("nufft.NufftSum.finish.self_s", "s", "lower", "wall_s on scan"),
    ("torus.make_torus_model.self_s", "s", "lower", "wall_s on torus_chf only"),
    ("torus.chf_product.self_s", "s", "lower", "wall_s on torus_chf only"),
    ("torus.chf_product.calls", "count", "lower", "wall_s on torus_chf only"),
    ("bandlimit.fourier_transform.self_s", "s", "lower", "wall_s on sandwich only"),
    ("bandlimit.fourier_transform.freqs", "count", "lower", "wall_s on sandwich only"),
    ("lab.empirical_chf_grid.self_s", "s", "lower", "wall_s on sandwich; none on line_desk"),
    ("lab.empirical_chf_grid.terms", "count", "lower", "wall_s on sandwich"),
    ("lab.rect_prob_from_chf.self_s", "s", "lower", "wall_s, fail_frac on sandwich"),
    ("lab.rect_prob_from_chf.nodes_per_axis", "count", "lower", "wall_s, fail_frac on sandwich"),
    ("lab.rect_prob_from_chf.quad_margin", "ratio", "lower", "fail_frac on sandwich"),
    ("lab.sample_line.self_s", "s", "lower", "wall_s on line_desk"),
    ("cli.main.self_s", "s", "lower", "wall_s on line_desk (payload writing)"),
    ("cli.payload_bytes", "B", "lower", "wall_s on line_desk"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced wall_s"),
    ("trace.span_share", "ratio", "higher", "share of wall_s inside named spans"),
]


class Tracer:
    """In-memory span recorder for one traced run of a workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """A wrapper around fn recording one span per call (per next() for generators)."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    if count is not None:
                        count(self.counts, args, kwargs, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target at each place it is bound (class or module attribute)."""
        for name, (modname, path, count) in TARGETS.items():
            owner = importlib.import_module(modname)
            *outer, leaf = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[leaf]
            wrapped = self.wrap(name, orig, count)
            if inspect.isclass(owner):
                setattr(owner, leaf, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "zetalab":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id}
                for n, s, e, p in self.spans]


def _union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _union_length(children[i], start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


def covered_share(spans, lo: float, hi: float) -> float:
    """Share of [lo, hi] covered by the root spans."""
    roots = [(s, e) for name, s, e, parent in spans if parent < 0]
    return _union_length(roots, lo, hi) / (hi - lo) if hi > lo else 0.0


def layer_metrics(spans, counts) -> dict:
    """Self times per span name plus counters, keyed by LAYER_METRICS names."""
    by_name = defaultdict(float)
    for span, st in zip(spans, self_times(spans)):
        by_name[span[0]] += st
    out = {}
    for name, _unit, _better, _moves in LAYER_METRICS:
        if name.endswith(".self_s"):
            out[name] = by_name.get(name[: -len(".self_s")], 0.0)
        elif name in counts:
            out[name] = counts[name]
    zeros = counts.get("zeta.find_zero_ordinates.zeros", 0)
    calls = counts.get("zeta.hardy_z.calls", 0)
    out["zeta.hardy_z.calls_per_zero"] = calls / zeros if zeros else 0.0
    for name, _unit, _better, _moves in LAYER_METRICS:
        if not name.startswith(("trace.", "cli.payload")):
            out.setdefault(name, 0)
    return out

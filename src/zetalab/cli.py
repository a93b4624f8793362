"""Command-line interface: wires JSON/flag configs to the library and
writes CSV/JSON artifacts.

Subcommands: variance, chf, dist, torus, bs, scan, zeros.  Each command
declares its own parameters in `_COMMANDS` and accepts only those plus
the common --config PATH (a JSON object of parameters), --out DIR,
--workers N, --seed S and --tol X; argparse rejects any other flag with
exit status 2.  Resolution order for every parameter: command-line
flag, then config file, then environment variable ZETALAB_<NAME>, then
the built-in default.  Config keys a command does not declare are
ignored, so one file can serve several commands.

Each handler cmd_<name>(params, workers, seed, tol) validates, computes
and returns (JSON body, {file name: table text}, hard invariants hold,
summary line); it writes nothing.  `main` alone writes <command>.json
and the tables, all at once, so an invalid config or a failed run never
leaves partial files; then it prints the line.  The exit code is 0 only
when the hard invariants of the run hold; deviations that the library
only reports (soft targets) never affect the exit code.  All floats are
written via repr and JSON keys are sorted, so reruns with the same
config and seed are byte-identical apart from the generated_at line.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import bandlimit, lab, selberg, torus, variance, zeta
from .errors import ZetalabError

_REQUIRED = object()  # default of a parameter the user must supply
_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)  # a negative value


def _resolve(table: dict, args: argparse.Namespace, config: dict) -> dict:
    """Each parameter of `table` (name -> default) from its flag, else the
    config, else ZETALAB_<NAME>, else its default, cast by `_PARAMS`."""
    resolved = {}
    for name, default in table.items():
        val = getattr(args, name)
        if val is None:
            val = config.get(name)
        if val is None:
            val = os.environ.get("ZETALAB_" + name.upper())
        if val is None:
            if default is _REQUIRED:
                raise ZetalabError(f"missing required parameter {name!r}")
            resolved[name] = default
            continue
        cast = _PARAMS[name][0]
        try:
            resolved[name] = cast(val)
        except (TypeError, ValueError):
            raise ZetalabError(f"parameter {name!r}: cannot read {val!r} as "
                               f"{cast.__name__}") from None
    return resolved


def _load_config(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise ZetalabError(f"config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ZetalabError("config file must contain a JSON object")
    return cfg


def _write_outputs(out_dir: str, files: dict) -> None:
    """Write all buffered outputs atomically: each file goes to a temporary
    sibling first, and only when every write succeeded are they renamed
    into place.  A failed write leaves no payload and no temporary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    moves = []
    try:
        for name, content in files.items():
            tmp = out / f".{name}.{os.getpid()}.tmp"
            moves.append((tmp, out / name))
            tmp.write_text(content, encoding="utf-8")
        for tmp, final in moves:
            os.replace(tmp, final)
    finally:
        for tmp, _ in moves:
            tmp.unlink(missing_ok=True)


def _csv(header: str, *columns) -> str:
    """A CSV table from equal-length columns: strings as they are, None as
    an empty cell, every other value as repr(float(value))."""
    cells = [[c if isinstance(c, str) else "" if c is None else repr(float(c))
              for c in col] for col in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def _context_from(p: dict, tol: float):
    return variance.make_context(T=p["T"], sigma=p["sigma"], psi=p["psi"],
                                 K_const=p["K_const"], tol=tol)


def cmd_variance(p: dict, workers: int, seed: int, tol: float):
    ctx = _context_from(p, tol)
    return ctx.as_dict(), {}, True, f"variance: sigma={ctx.sigma!r} V={ctx.V!r} psi={ctx.psi!r}"


def cmd_chf(p: dict, workers: int, seed: int, tol: float):
    method, N, tol = p["method"], p["n_moments"], zeta._check_tol(tol)
    if method not in ("product", "montecarlo", "moments"):
        raise ZetalabError(f"unknown chf method {method!r}")
    if method == "moments" and N not in (2, 4, 6):
        raise ZetalabError(f"N must be an even integer in [2, 6], got {N}")
    if p["n_axis"] is None:
        p["n_axis"] = 11 if method == "product" else 5
    if p["r_max"] is None:
        # For moments, the radius where the corner envelope
        # (6 sqrt(2) pi 2r)^N / (N/2)! equals tol.
        p["r_max"] = 1.0 if method != "moments" else (
            (tol * math.gamma(N / 2 + 1)) ** (1 / N) / (12 * math.sqrt(2) * math.pi))
    r_max = p["r_max"]
    if p["n_axis"] < 1 or not (math.isfinite(r_max) and r_max > 0):
        raise ZetalabError("chf grid requires n_axis >= 1 and r_max > 0")
    if not math.isfinite(2.0 * r_max):  # the axis' span, which np.linspace forms
        raise ZetalabError(f"--r_max {r_max:g} puts the chf axis past the float range")

    model = torus.make_torus_model(p["sigma"], p["x"])
    axis = np.linspace(-r_max, r_max, p["n_axis"])
    se = np.zeros((axis.size, axis.size))
    if method == "product":
        grid = torus.chf_product(model, axis, axis)
    elif method == "montecarlo":
        grid, se = torus.chf_montecarlo(model, axis, axis, n_samples=p["n_samples"], seed=seed)
    else:
        grid = torus.chf_by_moments(model, axis, axis, N=N)
    gauss = lab.gaussian_chf(axis[:, None], axis[None, :])
    dev = np.hypot(grid.real - gauss, grid.imag)  # |grid - gauss|, as scalar abs rounds it
    sup_dev = float(dev.max())
    hard_ok = not np.any(np.abs(grid) > 1.0 + 1e-9 + 3.0 * se)
    body = {
        "sigma": p["sigma"], "x": p["x"], "method": method,
        "V": model.V, "n_primes": model.n_primes(),
        "sup_abs_dev_from_gaussian": sup_dev,
        "modulus_bound_ok": hard_ok,
    }
    note = ""
    if method == "moments":
        # The envelope grows with |u| + |v|, so the grid's corners attain
        # its largest value.
        env = torus.chf_moments_envelope(r_max, r_max, N)
        body["max_moments_envelope"] = env
        note = f"; moment remainder envelope <= {env!r}"
    std_error = [None] * se.size if method != "montecarlo" else se.ravel()
    table = _csv("u,v,re,im,gaussian_re,abs_dev,std_error",
                 np.repeat(axis, axis.size), np.tile(axis, axis.size), grid.real.ravel(),
                 grid.imag.ravel(), gauss.ravel(), dev.ravel(), std_error)
    return body, {"chf.csv": table}, hard_ok, (
        f"chf[{method}]: sup |chf - gaussian| = {sup_dev!r} over [{-r_max},{r_max}]^2{note}")


def cmd_dist(p: dict, workers: int, seed: int, tol: float):
    chf_r = p["chf_r"]
    if p["chf_n"] < 1 or not (chf_r is None or (math.isfinite(chf_r) and chf_r > 0)):
        raise ZetalabError("chf deviation grid requires chf_n >= 1 and chf_r > 0")
    if chf_r is not None and not math.isfinite(2.0 * chf_r):  # the span np.linspace forms
        raise ZetalabError(f"--chf_r {chf_r:g} puts the chf axis past the float range")
    ctx = _context_from(p, tol)
    sampling = {"mode": p["mode"], "count": p["count"]}
    if p["mode"] == "random":
        sampling["seed"] = seed
    sset = lab.sample_line(ctx, t_lo=p["t_lo"], t_hi=p["t_hi"], sampling=sampling,
                           tol=tol, workers=workers)

    disk_rs = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    disks = [lab.disk_report(sset, r) for r in disk_rs]
    rects = [
        lab.rectangle_report(sset, -1.0, 1.0, -1.0, 1.0),
        lab.rectangle_report(sset, 0.0, 1.0, 0.0, 1.0),
        lab.rectangle_report(sset, -2.0, 2.0, -1.0, 1.0),
        lab.rectangle_report(sset, 0.0, 50.0, -50.0, 50.0),
    ]
    ks = lab.disk_cdf_sup(sset)
    axis = lab.chf_axis(ctx, chf_r, p["chf_n"])
    chf_dev = lab.chf_deviation_grid(sset, axis, axis)
    second = lab.second_moment_check(sset)

    # Hard invariants: empirical chf at the origin is exactly 1, the
    # disk CDF is monotone in r, and fractions are proper fractions.
    hard_ok = lab.empirical_chf(sset, 0.0, 0.0) == 1.0 + 0.0j
    fracs = [d.empirical_fraction for d in disks]
    hard_ok = hard_ok and all(b >= a for a, b in zip(fracs, fracs[1:]))
    hard_ok = hard_ok and all(0.0 <= f <= 1.0 for f in fracs)

    keys = ("u", "v", "re", "im", "gaussian", "abs_dev", "envelope")
    body = {
        "header": sset.header(),
        "disk_reports": [d.as_dict() for d in disks],
        "rectangle_reports": [r.as_dict() for r in rects],
        "disk_cdf_sup": ks,
        "chf_sup_abs_dev": chf_dev["sup_abs_dev"],
        "second_moment": second,
        "hard_invariants_ok": bool(hard_ok),
    }
    tables = {
        "dist_chf_dev.csv": _csv(",".join(keys), *([rec[k] for rec in chf_dev["records"]]
                                                   for k in keys)),
        "dist_samples.csv": lab.samples_csv_text(sset),
    }
    return body, tables, bool(hard_ok), (
        f"dist: n_ok={sset.n_ok} excluded={sset.excluded_fraction!r} "
        f"second_moment={second!r} disk_sup={ks['sup_dev']!r} "
        f"chf_sup={chf_dev['sup_abs_dev']!r}")


def cmd_torus(p: dict, workers: int, seed: int, tol: float):
    n_samples = p["n_samples"]
    model = torus.make_torus_model(p["sigma"], p["x"])

    moments = {}
    for m, k in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
        val = torus.torus_moment_exact(model, m, k)
        moments[f"{m},{k}"] = {"re": val.real, "im": val.imag}
    mc_val, mc_se = torus.chf_montecarlo(model, 0.5, 0.25, n_samples=n_samples, seed=seed)
    prod_val = torus.chf_product(model, 0.5, 0.25)
    bound_checks = [torus.moment_bound_check(model, k, n_samples=20_000,
                                             seed=seed) for k in (1, 2, 3)]

    # Hard invariants: first moments vanish identically, the MC and
    # quadrature chf agree within 3 standard errors, and the absolute
    # moments respect their factorial bound.
    hard_ok = moments["1,0"]["re"] == 0.0 and moments["1,0"]["im"] == 0.0
    hard_ok = hard_ok and moments["0,1"]["re"] == 0.0 and moments["0,1"]["im"] == 0.0
    hard_ok = hard_ok and abs(mc_val - prod_val) <= 3.0 * mc_se + 1e-12
    hard_ok = hard_ok and all(c["exact_within_bound"] and c["mc_within_bound"]
                              for c in bound_checks)

    body = {
        "sigma": p["sigma"], "x": p["x"], "V": model.V, "n_primes": model.n_primes(),
        "n_terms": int(model.term_value.size),
        "moments_exact": moments,
        "chf_product_at_half_quarter": {"re": prod_val.real, "im": prod_val.imag},
        "chf_montecarlo_at_half_quarter": {"re": mc_val.real, "im": mc_val.imag,
                                           "std_error": mc_se, "n_samples": n_samples},
        "moment_bound_checks": bound_checks,
        "hard_invariants_ok": bool(hard_ok),
    }
    return body, {}, bool(hard_ok), (
        f"torus: V={model.V!r} primes={model.n_primes()} "
        f"m11={moments['1,1']['re']!r} mc_vs_product="
        f"{abs(mc_val - prod_val)!r} (3se={3 * mc_se!r})")


def cmd_bs(p: dict, workers: int, seed: int, tol: float):
    a, b, delta = p["a"], p["b"], p["delta"]
    kinds = ("majorant", "minorant")
    # selberg_interval validates a, b and delta before any grid is built.
    Fs = [bandlimit.selberg_interval(a, b, delta, kind) for kind in kinds]
    xs = np.linspace(a - 5.0 / delta, b + 5.0 / delta, 401)
    xi = np.linspace(-2.5 * delta, 2.5 * delta, 201)

    results = {}
    hard_ok = True
    for kind, F in zip(kinds, Fs):
        excess = bandlimit.excess_integral(F)
        want = (1.0 if kind == "majorant" else -1.0) / delta
        verify = bandlimit.verify_bandlimit(F)
        dom = bandlimit.domination_report(F)
        hard_ok = hard_ok and abs(excess - want) <= 1e-6 * max(1.0, abs(want))
        hard_ok = hard_ok and dom["min_slack"] >= -1e-9
        hard_ok = hard_ok and verify["passed"]
        results[kind] = {"excess": excess, "expected_excess": want,
                         "verify": verify, "domination": dom}

    body = {"a": a, "b": b, "delta": delta,
            "results": results, "hard_invariants_ok": bool(hard_ok)}
    tables = {
        "bs_f.csv": _csv("kind,x,F", np.repeat(kinds, xs.size), np.tile(xs, 2),
                         np.concatenate([F(xs) for F in Fs])),
        "bs_fhat.csv": _csv("kind,xi,abs_f_hat", np.repeat(kinds, xi.size), np.tile(xi, 2),
                            np.abs(np.concatenate([F.hat(xi) for F in Fs]))),
    }
    return body, tables, bool(hard_ok), (
        f"bs: delta={delta!r} excess(majorant)={float(results['majorant']['excess'])!r} "
        f"(expected {1.0 / delta!r})")


# The highest ordinate the built-in zero search serves; above it a zero
# table must be supplied.
_ZERO_REACH = 1000.0


def cmd_scan(p: dict, workers: int, seed: int, tol: float):
    sigma, x, t_lo, t_hi, n_t = p["sigma"], p["x"], p["t_lo"], p["t_hi"], p["n_t"]
    if t_hi <= t_lo or n_t < 2:
        raise ZetalabError("scan requires t_hi > t_lo and n_t >= 2")

    if p["zeros_file"]:
        zeros = zeta.read_zero_table(p["zeros_file"])
    else:
        if t_hi > _ZERO_REACH:
            raise ZetalabError(f"computing zeros above t={_ZERO_REACH:.0f} here is too "
                               f"slow; supply zeros_file")
        zeros = zeta.find_zero_ordinates(t_hi + 5.0, tol=1e-9)
    t_grid = np.linspace(t_lo, t_hi, n_t)
    result = selberg.explicit_formula_scan(sigma, x, t_grid, zeros, tol=tol)

    # Hard invariant where the series converges: the residual is within 10x its tail past
    # x plus the certified errors of zeta'/zeta (tol) and of the polynomial.
    summary = result.summary
    max_res = summary["max_abs_residual"]
    hard_ok = True
    if sigma > 1.0 and max_res is not None:
        hard_ok = max_res <= (10.0 * summary["convergent_tail_bound"] + tol
                              + summary["poly_error_bound"])

    body = {"sigma": sigma, "x": x, "t_lo": t_lo, "t_hi": t_hi, "n_t": n_t,
            "zero_count": int(zeros.gamma.size),
            "summary": summary,
            "hard_invariants_ok": bool(hard_ok)}
    return body, {"scan.csv": selberg.scan_csv_text(result)}, bool(hard_ok), (
        f"scan: sigma={sigma!r} x={x!r} max_res={max_res!r}")


def cmd_zeros(p: dict, workers: int, seed: int, tol: float):
    t_max = p["t_max"]
    if t_max > _ZERO_REACH:
        raise ZetalabError(f"zero search is supported up to t_max = {_ZERO_REACH:.0f}")
    zeros = zeta.find_zero_ordinates(t_max, tol=tol)
    body = {"t_max": t_max, "tol": tol, "count": int(zeros.gamma.size),
            "coverage": float(zeros.coverage), "hard_invariants_ok": True}
    return body, {"zeros.txt": zeta.zero_table_text(zeros)}, True, (
        f"zeros: found {zeros.gamma.size} up to t={t_max!r}")


_PARAMS = {
    # name: (cast, help)
    "out": (str, "output directory"),
    "workers": (int, "worker processes; only dist --mode random uses them"),
    "seed": (int, "random seed"),
    "tol": (float, "absolute tolerance"),
    "sigma": (float, "real part of the sampling line"),
    "psi": (float, "regime parameter (2 sigma - 1) log T; alternative to sigma"),
    "T": (float, "height parameter"),
    "K_const": (float, "constant in the third threshold"),
    "x": (float, "prime cutoff"),
    "t_lo": (float, "lower end of the t range"),
    "t_hi": (float, "upper end of the t range"),
    "count": (int, "number of line samples"),
    "mode": (str, "sampling mode: grid or random"),
    "method": (str, "chf method: product, montecarlo, or moments"),
    "r_max": (float, "half-width of the (u, v) grid (default 1; for moments the "
                     "radius where the corner remainder envelope equals tol)"),
    "n_axis": (int, "points per (u, v) axis (default 11 for product, else 5)"),
    "n_samples": (int, "Monte Carlo sample count"),
    "n_moments": (int, "moment order for the chf series"),
    "a": (float, "interval left end"),
    "b": (float, "interval right end"),
    "delta": (float, "band limit"),
    "n_t": (int, "number of scan grid points"),
    "zeros_file": (str, "path to a zero-ordinate table"),
    "t_max": (float, "zero search height"),
    "chf_r": (float, "half-width of the chf deviation grid (default min(1, Omega))"),
    "chf_n": (int, "points per chf deviation axis"),
}

# Every command takes these; they stay out of the payload's params.
_COMMON = {"out": ".", "workers": 1, "seed": 0, "tol": 1e-9}
_CONTEXT = {"sigma": None, "psi": None, "T": _REQUIRED, "K_const": 1.0}

_COMMANDS = {
    # name: (handler, {parameter: default})
    "variance": (cmd_variance, _CONTEXT),
    "chf": (cmd_chf, {"sigma": _REQUIRED, "x": _REQUIRED, "method": "product",
                      "r_max": None, "n_axis": None, "n_samples": 50_000,
                      "n_moments": 6}),
    "dist": (cmd_dist, {**_CONTEXT, "t_lo": 50.0, "t_hi": None, "count": 20_000,
                        "mode": "grid", "chf_r": None, "chf_n": 11}),
    "torus": (cmd_torus, {"sigma": _REQUIRED, "x": _REQUIRED, "n_samples": 100_000}),
    "bs": (cmd_bs, {"a": -1.0, "b": 1.0, "delta": 4.0}),
    "scan": (cmd_scan, {"sigma": _REQUIRED, "x": _REQUIRED, "t_lo": 50.0,
                        "t_hi": 200.0, "n_t": 256, "zeros_file": None}),
    "zeros": (cmd_zeros, {"t_max": 100.0}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetalab",
        description="numerical laboratory for the value distribution of "
                    "zeta'/zeta near the critical line")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, table) in _COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", help="JSON config file")
        for flag in (*_COMMON, *table):
            sp.add_argument(f"--{flag}", help=_PARAMS[flag][1])
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # '--a -1e-1' -> '--a=-1e-1': argparse takes -1e-1 or -inf for a flag.
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and "=" not in argv[i - 1] and _NUMBER.match(argv[i]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = _build_parser().parse_args(argv)
    handler, table = _COMMANDS[args.command]
    try:
        config = _load_config(args.config or os.environ.get("ZETALAB_CONFIG"))
        common = _resolve(_COMMON, args, config)
        out = common.pop("out")
        if common["workers"] < 1:
            raise ZetalabError(f"workers must be >= 1, got {common['workers']}")
        params = _resolve(table, args, config)
        body, tables, ok, line = handler(params, **common)
        doc = {"command": args.command, "params": params, "generated_at":
               datetime.datetime.now(datetime.timezone.utc).isoformat(), **body}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        _write_outputs(out, {f"{args.command}.json": text, **tables})
    except ZetalabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    print(line)
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())

"""Tests for the command-line interface: parameter layering, exit codes,
artifact files, no-partial-output on failure, and byte-determinism of
reruns and worker counts."""

import csv
import datetime
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import zetalab
from zetalab import bandlimit, lab, torus, variance, zeta
from zetalab.cli import _COMMANDS, main


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _without_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.split("\n") if '"generated_at"' not in line
    )


def test_variance_command(tmp_path, capsys):
    rc = main(["variance", "--T", "1e5", "--psi", "15", "--out", str(tmp_path)])
    assert rc == 0
    doc = _read_json(tmp_path / "variance.json")
    ctx = variance.make_context(T=1.0e5, psi=15.0)
    assert doc["sigma"] == ctx.sigma
    assert doc["V"] == ctx.V
    # The body re-derives psi from sigma, so it matches the context's
    # round-tripped value; the exact user input lives under params.
    assert doc["psi"] == ctx.psi
    assert doc["params"]["psi"] == 15.0
    assert doc["params"]["T"] == 1e5
    assert doc["command"] == "variance"
    out = capsys.readouterr().out
    assert "variance: sigma=" in out


def test_out_of_regime_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["variance", "--T", "1000", "--psi", "0.9", "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_config_exits_2_without_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]", encoding="utf-8")
    out = tmp_path / "run"
    rc = main(["variance", "--config", str(bad), "--T", "1e5", "--psi", "15",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    rc = main(["variance", "--config", str(tmp_path / "absent.json"),
               "--T", "1e5", "--psi", "15", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    # A failing computation (reversed t range) must also leave nothing.
    rc = main(["dist", "--T", "1000", "--sigma", "2", "--t_lo", "500",
               "--t_hi", "100", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_parameter_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 1e4, "psi": 10.0}), encoding="utf-8")
    out = tmp_path / "a"
    # Flag beats config for psi; config supplies T.
    rc = main(["variance", "--config", str(cfg), "--psi", "15",
               "--out", str(out)])
    assert rc == 0
    doc = _read_json(out / "variance.json")
    assert doc["params"]["psi"] == 15.0
    assert doc["params"]["T"] == 1e4

    # Environment fills parameters that neither flag nor config provide,
    # including the output directory.
    env_out = tmp_path / "b"
    monkeypatch.setenv("ZETALAB_T", "1e3")
    monkeypatch.setenv("ZETALAB_PSI", "12")
    monkeypatch.setenv("ZETALAB_OUT", str(env_out))
    rc = main(["variance"])
    assert rc == 0
    doc = _read_json(env_out / "variance.json")
    assert doc["params"]["T"] == 1e3
    assert doc["params"]["psi"] == 12.0
    # Config still beats environment.
    rc = main(["variance", "--config", str(cfg), "--psi", "15",
               "--out", str(out)])
    doc = _read_json(out / "variance.json")
    assert doc["params"]["T"] == 1e4


def test_bs_command_and_rerun_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["bs", "--delta", "4", "--out", str(a)]) == 0
    assert main(["bs", "--delta", "4", "--out", str(b)]) == 0
    doc = _read_json(a / "bs.json")
    assert doc["hard_invariants_ok"]
    assert abs(doc["results"]["majorant"]["excess"] - 0.25) <= 1e-6
    assert abs(doc["results"]["minorant"]["excess"] + 0.25) <= 1e-6
    assert doc["results"]["majorant"]["verify"]["passed"]
    assert doc["results"]["majorant"]["domination"]["min_slack"] >= -1e-9
    for name in ("bs.json", "bs_f.csv", "bs_fhat.csv"):
        ta = (a / name).read_text(encoding="utf-8")
        tb = (b / name).read_text(encoding="utf-8")
        assert _without_timestamp(ta) == _without_timestamp(tb), name
    # |F_hat| comes from the closed form; the windowed quadrature that
    # verify_bandlimit checks it against agrees within its tail bound.
    with open(a / "bs_fhat.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for kind in ("majorant", "minorant"):
        F = bandlimit.selberg_interval(-1.0, 1.0, 4.0, kind)
        xi = np.array([float(r["xi"]) for r in rows if r["kind"] == kind])
        col = np.array([float(r["abs_f_hat"]) for r in rows if r["kind"] == kind])
        assert xi.size == 201 and np.array_equal(col, np.abs(F.hat(xi)))
        windowed = np.abs(bandlimit.fourier_transform(F, xi)[0])
        assert np.max(np.abs(col - windowed)) <= doc["results"][kind]["verify"]["tail_bound"]


def test_negative_values_in_exponent_notation(tmp_path, capsys):
    # argparse alone takes "-1e-1" or "-inf" after a flag for another flag.
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["bs", "--a", "-1e-1", "--out", str(a)]) == 0
    assert main(["bs", "--a=-1e-1", "--out", str(b)]) == 0
    assert _read_json(a / "bs.json")["params"]["a"] == -0.1
    for name in ("bs.json", "bs_f.csv", "bs_fhat.csv"):
        ta = (a / name).read_text(encoding="utf-8")
        tb = (b / name).read_text(encoding="utf-8")
        assert _without_timestamp(ta) == _without_timestamp(tb), name
    capsys.readouterr()
    assert main(["bs", "--b", "-inf", "--out", str(c)]) == 2
    assert capsys.readouterr().err == "error: b must be finite, got -inf\n"
    assert not c.exists()


def test_zeros_command(tmp_path):
    rc = main(["zeros", "--t_max", "30", "--out", str(tmp_path)])
    assert rc == 0
    doc = _read_json(tmp_path / "zeros.json")
    assert doc["count"] == 3
    lines = (tmp_path / "zeros.txt").read_text(encoding="ascii").strip().split("\n")
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 3
    gammas = [float(l.split()[1]) for l in data]
    for got, want in zip(gammas, (14.134725141734694, 21.022039638771555,
                                  25.010857580145689)):
        assert abs(got - want) <= 1e-6
    assert all(float(l.split()[0]) == 0.5 for l in data)
    # A coarse tol is used as given and recorded.
    assert main(["zeros", "--t_max", "40", "--tol", "1e-3", "--out", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "zeros.json")["tol"] == 0.001
    lines = (tmp_path / "zeros.txt").read_text(encoding="ascii").strip().split("\n")
    gammas = [float(l.split()[1]) for l in lines if not l.startswith("#")]
    assert len(gammas) == 6
    for n, got in enumerate(gammas, start=1):
        assert abs(got - float(mp.zetazero(n).imag)) <= 1e-3
    rc = main(["zeros", "--t_max", "5000", "--out", str(tmp_path)])
    assert rc == 2


def test_chf_command_product_and_montecarlo(tmp_path):
    out = tmp_path / "prod"
    rc = main(["chf", "--sigma", "0.9", "--x", "30", "--r_max", "0.02",
               "--n_axis", "3", "--out", str(out)])
    assert rc == 0
    doc = _read_json(out / "chf.json")
    assert doc["method"] == "product"
    assert doc["modulus_bound_ok"]
    assert len((out / "chf.csv").read_text().strip().split("\n")) == 10

    mc_a, mc_b = tmp_path / "mc_a", tmp_path / "mc_b"
    argv = ["chf", "--sigma", "0.9", "--x", "30", "--method", "montecarlo",
            "--n_samples", "2000", "--n_axis", "3", "--r_max", "0.5",
            "--seed", "7"]
    assert main(argv + ["--out", str(mc_a)]) == 0
    assert main(argv + ["--out", str(mc_b)]) == 0
    ta = _without_timestamp((mc_a / "chf.json").read_text())
    tb = _without_timestamp((mc_b / "chf.json").read_text())
    assert ta == tb
    assert (mc_a / "chf.csv").read_text() == (mc_b / "chf.csv").read_text()

    rc = main(["chf", "--sigma", "0.9", "--x", "30", "--method", "fft",
               "--out", str(tmp_path / "nope")])
    assert rc == 2
    assert not (tmp_path / "nope").exists()


def test_chf_command_moments(tmp_path, capsys):
    rc = main(["chf", "--sigma", "0.9", "--x", "30", "--method", "moments",
               "--n_axis", "3", "--r_max", "0.05", "--out", str(tmp_path)])
    assert rc == 0
    doc = _read_json(tmp_path / "chf.json")
    assert doc["method"] == "moments"
    rows = (tmp_path / "chf.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 9
    # The envelope is largest at the grid's corners, |u| + |v| = 0.1.
    env = torus.chf_moments_envelope(0.05, 0.05, 6)
    assert doc["max_moments_envelope"] == env
    assert f"envelope <= {env!r}" in capsys.readouterr().out

    # By default the grid's half-width is where the corner envelope is tol.
    out = tmp_path / "default"
    argv = ["chf", "--sigma", "0.75", "--x", "30", "--method", "moments"]
    assert main(argv + ["--out", str(out)]) == 0
    doc = _read_json(out / "chf.json")
    assert doc["modulus_bound_ok"]
    assert 0.5e-9 < doc["max_moments_envelope"] <= 1e-9 * (1 + 1e-12)
    assert doc["params"]["r_max"] < 1e-3

    # At r_max = 1 the truncated series is no chf (|value| far above 1):
    # the soft failure exits 1, and both payload files are still written.
    out = tmp_path / "wide"
    assert main(argv + ["--r_max", "1", "--out", str(out)]) == 1
    assert not _read_json(out / "chf.json")["modulus_bound_ok"]
    assert len((out / "chf.csv").read_text().strip().split("\n")) == 26

    # The moment table grows with the primes, not with their products, so x = 300 works.
    out = tmp_path / "x300"
    assert main(["chf", "--sigma", "0.75", "--x", "300", "--method", "moments",
                 "--out", str(out)]) == 0
    assert _read_json(out / "chf.json")["modulus_bound_ok"]


@pytest.mark.parametrize("method", ["moments", "product"])
def test_chf_command_rejects_tol_outside_its_range(tmp_path, capsys, method):
    # tol sets the moments grid's default radius; every method checks it as
    # scan, dist and variance do.
    out = tmp_path / "run"
    for bad, shown in (("1", "1"), ("nan", "nan"), ("-1", "-1")):
        rc = main(["chf", "--sigma", "0.75", "--x", "30", "--method", method,
                   "--tol", bad, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: tol must lie in [1e-15, 1e-6], got {shown}\n"
        assert not out.exists()


def test_chf_command_rejects_non_finite_r_max(tmp_path, capsys):
    out = tmp_path / "run"
    for bad in ("nan", "inf"):
        rc = main(["chf", "--sigma", "0.75", "--x", "50", "--r_max", bad,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: chf grid requires n_axis >= 1 and r_max > 0\n"
        assert not out.exists()


def test_chf_command_r_max_at_the_float_range(tmp_path, capsys):
    # The axis spans 2 r_max, which overflows at 1e308: one line that names
    # --r_max. At 8.9e307 the axis holds but the quadrature's phases overflow:
    # one line from chf_product. At 1e300 the Gaussian chf underflows to 0.
    # No run warns.
    argv = ["chf", "--sigma", "0.52", "--x", "1e5", "--n_axis", "2", "--r_max"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["1e308", "--out", str(tmp_path / "over")]) == 2
        assert capsys.readouterr().err == "error: --r_max 1e+308 puts the chf axis past the float range\n"
        assert main(argv + ["8.9e307", "--out", str(tmp_path / "over")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: chf_product is not finite at K = ") and err.count("\n") == 1, err
        assert not (tmp_path / "over").exists()
        assert main(argv + ["1e300", "--out", str(tmp_path / "far")]) == 0
    assert capsys.readouterr().err == ""
    doc = _read_json(tmp_path / "far" / "chf.json")
    assert doc["sup_abs_dev_from_gaussian"] == 0.0


def test_bs_band_limit_at_the_float_range(tmp_path, capsys):
    # fourier_transform's panels over the 1e3/delta window on each side
    # number about 7e3 at every delta; an absolute 1e-12 added to the
    # bandwidth made them about 2e-9/delta, past any memory below ~1e-16. A window
    # that is not finite, or that rounding loses beside [a, b], is refused
    # with one line naming the band limit. No run warns. The excess check is
    # relative, so an excess of 1/delta that is right to rounding passes.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in ("1e-10", "1e-20", "1e-300"):
            assert main(["bs", "--delta", delta, "--out", str(tmp_path / delta)]) == 0
            assert capsys.readouterr().out.startswith(f"bs: delta={float(delta)!r} excess(majorant)=")
        for argv in (["--delta", "1e-306"], ["--delta", "1e300"], ["--b", "1e300"],
                     ["--a", "-1e305", "--b", "1e305"]):
            assert main(["bs", *argv, "--out", str(tmp_path / "refused")]) == 2
            err = capsys.readouterr().err
            assert "band limit delta = " in err and err.count("\n") == 1, err
            assert not (tmp_path / "refused").exists()


def test_dist_chf_r_at_the_float_range(tmp_path, capsys):
    # Past |(u, v)| ~ 6 the Gaussian factor underflows to 0 and the envelope
    # is its limit psi^-10, where 0 * (|u| + |v|)^3 read nan. The axis spans
    # 2 chf_r, which overflows at 1e308: one line that names --chf_r.
    argv = ["dist", "--T", "1e3", "--psi", "5", "--count", "100", "--chf_r"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in ("1e103", "1e300"):
            assert main(argv + [r, "--out", str(tmp_path / r)]) == 0
            table = (tmp_path / r / "dist_chf_dev.csv").read_text()
            assert "nan" not in table and "inf" not in table
        assert main(argv + ["1e308", "--out", str(tmp_path / "over")]) == 2
    assert capsys.readouterr().err == "error: --chf_r 1e+308 puts the chf axis past the float range\n"
    assert not (tmp_path / "over").exists()


def test_dist_names_an_unknown_mode_on_an_empty_range(tmp_path, capsys):
    for t_hi in ("200", "100"):
        assert main(["dist", "--T", "1e3", "--psi", "5", "--t_lo", "100", "--t_hi", t_hi,
                     "--mode", "bogus", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: unknown sampling mode 'bogus'\n"


def test_bad_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    argv = ["variance", "--psi", "15", "--out", str(out)]

    def assert_one_line_error(rc):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert not out.exists()
        return err

    assert_one_line_error(main(["variance", "--T", "abc", "--psi", "15",
                                "--out", str(out)]))
    monkeypatch.setenv("ZETALAB_T", "abc")
    assert_one_line_error(main(argv))
    monkeypatch.delenv("ZETALAB_T")
    cfg = tmp_path / "cfg.json"
    for text in ('{"T": "abc", "psi": 15}', '{"workers": "x", "T": 1e5}', "{bad"):
        cfg.write_text(text, encoding="utf-8")
        assert_one_line_error(main(argv + ["--config", str(cfg)]))
    # A non-finite interval end or band limit is named before any work.
    for name in ("delta", "b"):
        err = assert_one_line_error(main(["bs", f"--{name}", "inf", "--out", str(out)]))
        assert err == f"error: {name} must be finite, got inf\n"
    # A required parameter with no flag, config key or environment variable.
    monkeypatch.delenv("ZETALAB_SIGMA", raising=False)
    err = assert_one_line_error(main(["scan", "--x", "100", "--out", str(out)]))
    assert err == "error: missing required parameter 'sigma'\n"

    # Flags another command declares are unknown here: argparse exits 2.
    for wrong in (["bs", "--T", "5"], ["variance", "--T", "1e5", "--psi", "15",
                                       "--x", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(wrong + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


_DIST = ["dist", "--T", "1e4", "--psi", "15", "--count", "64"]


@pytest.mark.parametrize("argv", [
    ["scan", "--sigma", "2", "--x", "nan"],
    ["scan", "--sigma", "2", "--x", "inf"],
    ["scan", "--sigma", "2", "--x", "1e200"],
    ["scan", "--sigma", "nan", "--x", "100"],
    ["chf", "--sigma", "0.6", "--x", "nan"],
    ["torus", "--sigma", "0.6", "--x", "nan"],
    _DIST + ["--chf_r", "nan"],
    _DIST + ["--chf_r", "inf"],
    _DIST + ["--chf_r", "0"],
    _DIST + ["--chf_r", "1", "--chf_n", "0"],
    ["dist", "--T", "1e3", "--sigma", "1", "--t_lo", "-1", "--t_hi", "1", "--count", "21"],
    ["dist", "--T", "1e3", "--sigma", "0.7", "--mode", "random", "--t_lo", "nan", "--count", "10"],
    ["dist", "--T", "1e3", "--sigma", "0.7", "--mode", "random", "--t_hi", "nan", "--count", "10"],
    ["dist", "--T", "1e3", "--sigma", "0.7", "--mode", "random", "--t_lo", "-inf", "--count", "10"],
    ["dist", "--T", "1e4", "--psi", "15", "--mode", "random", "--count", "-5"],
    ["variance", "--T", "inf", "--sigma", "0.7"],
    ["variance", "--T", "nan", "--sigma", "0.7"],
    ["variance", "--T", "1e5", "--sigma", "0.7", "--K_const", "nan"],
    # Sizes beyond any address space: numpy refuses them before allocating.
    _DIST + ["--count", "100000000000000000"],
    ["scan", "--sigma", "2", "--x", "100", "--n_t", "100000000000000000"],
    ["chf", "--sigma", "0.6", "--x", "100", "--n_axis", "100000000000000000"],
    *(["variance", "--T", "1e5", "--psi", "15", "--tol", bad] for bad in ("-1", "0", "nan", "inf")),
    *([*cmd, "--workers", bad] for bad in ("0", "-3")
      for cmd in (["variance", "--T", "1e5", "--psi", "15"], _DIST, ["bs"])),
], ids=" ".join)
def test_non_finite_or_degenerate_input_exits_2(tmp_path, capsys, argv):
    # A nan fails every comparison, so a check written as `x < 2` lets it
    # through to int() or into the results; an empty chf grid reads sup 0;
    # zeta'/zeta at the pole s = 1 is no sample.
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists()


def test_zeros_command_rejects_bad_tol(tmp_path, capsys):
    out = tmp_path / "run"
    for bad in ("0", "-1", "nan"):
        rc = main(["zeros", "--t_max", "40", "--tol", bad, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tol must be finite and > 0") and err.count("\n") == 1, err
        assert not out.exists()


def test_failed_write_leaves_no_files(tmp_path, monkeypatch):
    real_write = Path.write_text
    calls = []

    def second_write_fails(self, *args, **kwargs):
        calls.append(self)
        if len(calls) == 2:
            raise OSError("disk full")
        return real_write(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", second_write_fails)
    out = tmp_path / "run"
    assert main(["zeros", "--t_max", "30", "--out", str(out)]) == 2
    assert len(calls) == 2
    assert list(out.iterdir()) == []


def test_torus_command(tmp_path):
    rc = main(["torus", "--sigma", "0.75", "--x", "50", "--n_samples", "5000",
               "--out", str(tmp_path), "--seed", "3"])
    assert rc == 0
    doc = _read_json(tmp_path / "torus.json")
    assert doc["hard_invariants_ok"]
    m = doc["moments_exact"]
    assert m["1,0"] == {"re": 0.0, "im": 0.0}
    assert m["0,1"] == {"re": 0.0, "im": 0.0}
    assert abs(m["1,1"]["re"] - 2.0) <= 1e-14
    assert len(doc["moment_bound_checks"]) == 3


def test_scan_command(tmp_path):
    rc = main(["scan", "--sigma", "2", "--x", "100", "--t_lo", "30",
               "--t_hi", "60", "--n_t", "64", "--out", str(tmp_path)])
    assert rc == 0
    doc = _read_json(tmp_path / "scan.json")
    assert doc["hard_invariants_ok"]
    assert doc["summary"]["n_ok"] == 64
    csv_lines = (tmp_path / "scan.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 65

    # Zero tables can be supplied instead of recomputed.
    ztab = tmp_path / "zeros.txt"
    ztab.write_text(zeta.zero_table_text(zeta.find_zero_ordinates(66.0)), encoding="ascii")
    rc = main(["scan", "--sigma", "2", "--x", "100", "--t_lo", "30",
               "--t_hi", "60", "--n_t", "16", "--zeros_file", str(ztab),
               "--out", str(tmp_path / "z")])
    assert rc == 0

    rc = main(["scan", "--sigma", "2", "--x", "100", "--t_lo", "60",
               "--t_hi", "30", "--out", str(tmp_path / "bad")])
    assert rc == 2
    rc = main(["scan", "--sigma", "2", "--x", "100", "--t_hi", "5000",
               "--out", str(tmp_path / "toofar")])
    assert rc == 2
    assert not (tmp_path / "toofar").exists()


@pytest.mark.parametrize("table", [
    b"# coverage=60\n0.5 14.134725\n0.5 abc\n",
    b"# coverage=oops\n0.5 14.134725\n",
    b"# coverage=60\n0.5 14.134725\xe9\n",
    b"0.5 14.134725 21.02\n",
    # Neither lists a zero in (15, 55]; each once read as covering it.
    b"# coverage=nan\n0.5 14.134725\n",
    b"0.5 14.134725\n0.5 inf\n",
], ids=["cell", "coverage", "non-ascii", "three-columns", "nan-coverage", "inf-gamma"])
def test_scan_rejects_a_bad_zero_table(tmp_path, capsys, table):
    ztab, out = tmp_path / "zeros.txt", tmp_path / "run"
    ztab.write_bytes(table)
    rc = main(["scan", "--sigma", "2", "--x", "100", "--t_lo", "30", "--t_hi", "55",
               "--n_t", "16", "--zeros_file", str(ztab), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["14", "20"])
def test_scan_at_large_sigma(tmp_path, sigma):
    # The residual (3e-12 at sigma 14) is far above the series' tail past x (7e-35)
    # but within the certified errors of the two sides; at sigma 20 the
    # polynomial's stream stops below 4, before the first prime square.
    rc = main(["scan", "--sigma", sigma, "--x", "400", "--t_lo", "50", "--t_hi", "60",
               "--n_t", "16", "--out", str(tmp_path)])
    assert rc == 0
    doc = _read_json(tmp_path / "scan.json")
    assert doc["hard_invariants_ok"] and doc["summary"]["n_ok"] == 16
    if sigma == "20":
        assert doc["summary"]["poly_terms_to"] < 4


def test_scan_refuses_a_prime_stream_beyond_its_reach(tmp_path, capsys):
    # At sigma 1.2 and x = 1e4 the tail cut puts the stream's end at 9.9e11:
    # an hour of sieving. The refusal comes before the stream starts.
    out = tmp_path / "run"
    start = time.monotonic()
    assert main(["scan", "--sigma", "1.2", "--x", "1e4", "--t_lo", "50", "--t_hi", "60",
                 "--n_t", "20", "--out", str(out)]) == 2
    assert time.monotonic() - start < 10.0
    err = capsys.readouterr().err
    assert err == ("error: the prime stream would run to y=9.91e+11 (sigma=1.2, x=10000.0, "
                   "tol=1e-09), beyond its reach 1e+10\n")
    assert not out.exists()


def test_dist_with_every_point_refused_exits_2(tmp_path, capsys):
    # At psi 3 the grid certificate fails at every point of T = 1e5.
    out = tmp_path / "run"
    assert main(["dist", "--T", "1e5", "--psi", "3", "--count", "64", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: no ok sample among the 64 points "
                                       "(ok=0, near_zero=0, precision_fail=64)\n")
    assert not out.exists()


def test_dist_command_small(tmp_path):
    rc = main(["dist", "--T", "1000", "--sigma", "2", "--t_lo", "50",
               "--t_hi", "300", "--count", "1500", "--out", str(tmp_path)])
    assert rc == 0
    doc = _read_json(tmp_path / "dist.json")
    assert doc["hard_invariants_ok"]
    assert doc["header"]["n_total"] == 1500
    assert doc["header"]["excluded_fraction"] == 0.0
    assert len(doc["disk_reports"]) == 7
    assert len(doc["rectangle_reports"]) == 4
    assert doc["second_moment"] > 0.0
    assert doc["disk_cdf_sup"]["n_ok"] == 1500
    samples = (tmp_path / "dist_samples.csv").read_text().strip().split("\n")
    assert len(samples) == 1501
    assert samples[0] == "t,re,im,flag"
    # chf grid half-width override changes the deviation table size.
    rc = main(["dist", "--T", "1000", "--sigma", "2", "--t_lo", "50",
               "--t_hi", "300", "--count", "1500", "--chf_r", "1.0",
               "--chf_n", "5", "--out", str(tmp_path / "wide")])
    assert rc == 0
    dev = (tmp_path / "wide" / "dist_chf_dev.csv").read_text().strip().split("\n")
    assert len(dev) == 26


def test_dist_chf_r_axis_is_antisymmetric(tmp_path):
    # --chf_r at Omega of `dist --T 1e5 --psi 15`: the 11-point axis is
    # exactly antisymmetric (6 distinct |u|) and the tabulated grid Hermitian.
    omega = variance.make_context(psi=15.0, T=1.0e5).Omega
    assert main(["dist", "--T", "1e5", "--psi", "15", "--count", "300", "--chf_r", repr(omega),
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "dist_chf_dev.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    u, re, im = (np.array([float(r[k]) for r in rows]).reshape(11, 11) for k in ("u", "re", "im"))
    assert u[-1, 0] == omega and np.array_equal(u[:, 0], -u[::-1, 0])
    assert np.unique(np.abs(u)).size == 6
    assert np.array_equal(re, re[::-1, ::-1]) and np.array_equal(im, -im[::-1, ::-1])


def test_dist_chf_n_without_chf_r(tmp_path):
    # --chf_n sizes the default axis too, which ends at min(1, Omega).
    assert main(["dist", "--T", "1e4", "--psi", "15", "--count", "200", "--chf_n", "5",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "dist_chf_dev.csv", newline="", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    assert len(lines) == 26
    u = np.array([float(row.split(",")[0]) for row in lines[1:]]).reshape(5, 5)[:, 0]
    r = min(1.0, variance.make_context(psi=15.0, T=1.0e4).Omega)
    assert u[-1] == r and np.array_equal(u, -u[::-1])


def test_dist_worker_byte_determinism(tmp_path):
    argv = ["dist", "--T", "1000", "--sigma", "2", "--t_lo", "50",
            "--t_hi", "500", "--count", "2500"]
    one, two = tmp_path / "w1", tmp_path / "w2"
    assert main(argv + ["--workers", "1", "--out", str(one)]) == 0
    assert main(argv + ["--workers", "2", "--out", str(two)]) == 0
    for name in ("dist.json", "dist_chf_dev.csv", "dist_samples.csv"):
        ta = (one / name).read_text(encoding="utf-8")
        tb = (two / name).read_text(encoding="utf-8")
        if name == "dist.json":
            ta, tb = _without_timestamp(ta), _without_timestamp(tb)
            # The workers parameter is not part of the payload.
            assert '"workers"' not in ta
        assert ta == tb, name


_DRIVER_CASES = [
    (["variance", "--T", "1e5", "--psi", "15"], []),
    (["chf", "--sigma", "0.9", "--x", "30"], ["chf.csv"]),
    (["chf", "--sigma", "0.9", "--x", "30", "--method", "montecarlo", "--n_samples", "2000",
      "--n_axis", "3"], ["chf.csv"]),
    (["chf", "--sigma", "0.9", "--x", "30", "--method", "moments", "--r_max", "1"],
     ["chf.csv"]),
    (["dist", "--T", "1000", "--sigma", "2", "--t_lo", "50", "--t_hi", "300",
      "--count", "300"], ["dist_chf_dev.csv", "dist_samples.csv"]),
    (["torus", "--sigma", "0.75", "--x", "50", "--n_samples", "5000"], []),
    (["bs", "--delta", "4"], ["bs_f.csv", "bs_fhat.csv"]),
    (["scan", "--sigma", "2", "--x", "100", "--t_lo", "30", "--t_hi", "60", "--n_t", "16"],
     ["scan.csv"]),
    (["zeros", "--t_max", "30"], ["zeros.txt"]),
]


@pytest.mark.parametrize("argv, tables", _DRIVER_CASES,
                         ids=[" ".join(argv) for argv, _ in _DRIVER_CASES])
def test_driver_writes_payload_and_maps_verdict(tmp_path, capsys, argv, tables):
    # Every command's payload passes through `main`: exactly <command>.json
    # plus the command's tables, one summary line, and an exit code that is
    # 0 exactly when the command's hard flag holds.
    out = tmp_path / "run"
    rc = main(argv + ["--out", str(out)])
    command = argv[0]
    assert sorted(p.name for p in out.iterdir()) == sorted([f"{command}.json", *tables])
    doc = _read_json(out / f"{command}.json")
    assert doc["command"] == command
    assert set(doc["params"]) == set(_COMMANDS[command][1])
    assert datetime.datetime.fromisoformat(doc["generated_at"]).tzinfo is not None
    flag = {"variance": True, "chf": doc.get("modulus_bound_ok")}.get(
        command, doc.get("hard_invariants_ok"))
    assert flag in (True, False) and rc == (0 if flag else 1)
    printed = capsys.readouterr().out
    assert printed.startswith(command) and printed.count("\n") == 1
    if command == "chf":
        with open(out / "chf.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        u, v, re_, im, gauss, dev = (np.array([float(r[k]) for r in rows]) for k in
                                     ("u", "v", "re", "im", "gaussian_re", "abs_dev"))
        assert np.array_equal(gauss, lab.gaussian_chf(u, v))
        assert dev.tolist() == [abs(complex(a, b) - g) for a, b, g in zip(re_, im, gauss)]
        assert max(dev) == doc["sup_abs_dev_from_gaussian"]
        blank = doc["method"] != "montecarlo"
        assert all((r["std_error"] == "") == blank for r in rows)


_SUBCOMMANDS = ("variance", "chf", "dist", "torus", "bs", "scan", "zeros")


def _child_env():
    """Environment whose PYTHONPATH finds the zetalab this test imported.

    A relative PYTHONPATH entry (such as ``src``) stops resolving once the
    child runs in another directory, so the package's own parent directory
    goes first, as an absolute path; existing entries follow it.
    """
    root = str(Path(zetalab.__file__).resolve().parents[1])
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env


def test_console_entry_point(tmp_path):
    env = _child_env()
    proc = subprocess.run([sys.executable, "-m", "zetalab.cli", "variance",
                           "--T", "1e4", "--psi", "10", "--out", "."],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert "variance: sigma=" in proc.stdout
    # `python -m zetalab.cli` reaches zetalab.cli:main, the function that
    # [project.scripts] installs as the `zetalab` launcher.
    helped = subprocess.run([sys.executable, "-m", "zetalab.cli", "--help"],
                            capture_output=True, text=True, cwd=tmp_path,
                            env=env)
    assert helped.returncode == 0
    for name in _SUBCOMMANDS:
        assert name in helped.stdout


_IMPORT_GUARD = """
import sys
import zetalab.cli
heavy = ("scipy", "multiprocessing")
assert not [m for m in heavy if m in sys.modules], [m for m in heavy if m in sys.modules]
for i, argv in enumerate([
        ["dist", "--T", "1000", "--sigma", "2", "--t_lo", "50", "--t_hi", "300", "--count", "300"],
        ["scan", "--sigma", "2", "--x", "100", "--t_lo", "30", "--t_hi", "60", "--n_t", "16"],
        ["zeros", "--t_max", "30"],
        ["chf", "--sigma", "0.9", "--x", "30", "--method", "product", "--n_axis", "3"]]):
    assert zetalab.cli.main(argv + ["--out", f"run{i}"]) == 0, argv
assert "scipy" not in sys.modules
assert "numpy.ma" not in sys.modules
"""


def test_cli_runs_without_scipy(tmp_path):
    # scipy is loaded only by `bs` and band-limit verification; importing the
    # CLI and running the other commands must not pull it (or a process pool) in.
    # Nor numpy.ma, which np.quantile's first call imports (8-17 ms).
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr


_DEMOS = [
    ("torus_gaussian_limit.py", "x = ", 3),
    ("bandlimit_gallery.py", "passed: True", 1),
    ("desk_experiment.py", "sandwich from the chf:", 1),
    ("explicit_formula_scan.py", "points ok", 1),
    ("variance_profile.py", "direct sum to", 4),
    ("zero_hunt.py", "found 29 zeros", 1),
]


@pytest.mark.parametrize("demo, marker, count", _DEMOS, ids=[d for d, _, _ in _DEMOS])
def test_torus_demo_runs(tmp_path, demo, marker, count):
    path = Path(__file__).resolve().parents[1] / "demos" / demo
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    assert sum(line.lstrip().startswith(marker) for line in lines) == count


@pytest.mark.skipif(shutil.which("zetalab") is None,
                    reason="the zetalab launcher is not on PATH "
                           "(the package is not installed)")
def test_console_launcher(tmp_path):
    helped = subprocess.run(["zetalab", "--help"], capture_output=True,
                            text=True, cwd=tmp_path)
    assert helped.returncode == 0
    for name in _SUBCOMMANDS:
        assert name in helped.stdout

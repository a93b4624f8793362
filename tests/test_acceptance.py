"""Release acceptance suite: ten numbered end-to-end checks.

Each test exercises one full pipeline at desk scale against an
independent route (in-test sieves, mpmath at high precision, closed
forms, Monte Carlo, byte comparison of reruns) and asserts the wall
clock stays inside its budget.  The conftest reporter prints one
PASS/FAIL line per criterion at the end of the run.

Criterion 8's final clause asserts the approach to the Gaussian as T
grows through the exact random Euler product, whose distance to the
Gaussian is free of sampling noise, and bounds each draw's distance to
that product by the sampling error that 2e4 samples allow.
"""

import json
import math
import time

import numpy as np
import pytest

from zetalab import arith, bandlimit, lab, selberg, torus, variance, zeta
from zetalab.cli import main as cli_main


def _small_primes(limit):
    """Plain trial-division prime list, independent of the package sieve."""
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def test_criterion_01_arithmetic_exactness():
    t0 = time.perf_counter()
    limit = 100_000

    # Smallest-prime-factor sieve; spf[n] == 0 above means n is prime.
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p::p]
            sl[sl == 0] = p

    def lambda_oracle(n):
        if n == 1:
            return 0.0
        p = int(spf[n]) or n
        while n % p == 0:
            n //= p
        return math.log(p) if n == 1 else 0.0

    for n in range(1, limit + 1):
        assert arith.von_mangoldt(n) == lambda_oracle(n), n

    bound = 10_000
    # A prime either was never touched (above sqrt(limit)) or marked itself.
    primes = [p for p in range(2, bound + 1) if spf[p] in (0, p)]
    oracle = sorted((p**k, p, k)
                    for p in primes
                    for k in range(1, 14)
                    if p**k <= bound)
    tab = arith.prime_powers_up_to(bound)
    assert tab.value.tolist() == [v for v, _, _ in oracle]
    assert tab.prime.tolist() == [p for _, p, _ in oracle]
    assert tab.exponent.tolist() == [k for _, _, k in oracle]
    logs = np.array([math.log(p) for _, p, _ in oracle])
    assert float(np.max(np.abs(tab.log_prime - logs))) <= 4e-16 * math.log(bound)

    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_zeta_engine():
    import mpmath

    t0 = time.perf_counter()
    mpmath.mp.dps = 30
    assert abs(zeta.zeta(2.0 + 0.0j) - complex(mpmath.zeta(2))) <= 1e-12
    assert abs(zeta.zeta(0.0 + 0.0j) - complex(mpmath.zeta(0))) <= 1e-12
    assert abs(zeta.zeta_prime(2.0 + 0.0j)
               - complex(mpmath.zeta(2, derivative=1))) <= 1e-12

    worst = 0.0
    for sig in np.linspace(0.55, 3.0, 10):
        for t in np.linspace(1.0, 45.0, 10):
            s = complex(sig, t)
            worst = max(worst, abs(zeta.zeta(np.conj(s)) - np.conj(zeta.zeta(s))))
    assert worst <= 1e-13

    zl = zeta.find_zero_ordinates(100.0)
    assert len(zl.gamma) == 29
    # Smooth-count cross-check: the fluctuation term is well under 1/2 here.
    assert round(float(zeta.theta_riemann_siegel(100.0)) / math.pi + 1.0) == 29

    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_selberg_weight_and_scan():
    t0 = time.perf_counter()
    for x in (100.0, 1000.0):
        spec = selberg.SelbergWeightSpec(x=x)
        for value, _ in arith.lambda_segments(1, x**3):
            w = selberg.weight_w(value.astype(float), spec)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
        gaps = selberg.weight_branch_gaps(x)
        assert max(gaps.values()) < 1e-12

    zeros = zeta.find_zero_ordinates(1001.0)
    t_grid = np.linspace(50.0, 1000.0, 1000)
    result = selberg.explicit_formula_scan(2.0, 1000.0, t_grid, zeros)
    summary = result.summary
    assert summary["n_ok"] == 1000
    tail = summary["convergent_tail_bound"]
    assert tail is not None and tail > 0.0
    assert summary["max_abs_residual"] <= 10.0 * tail

    assert time.perf_counter() - t0 < 120.0


def test_criterion_04_torus_moments(model_075_300):
    t0 = time.perf_counter()
    model = model_075_300
    sigma, x = 0.75, 300

    # Independent diagonal-sum oracle for E|S|^2 = sum log^2 p (p^n)^(-2s) / V.
    terms = []
    for p in _small_primes(x):
        pk = p
        while pk <= x:
            terms.append(math.log(p) ** 2 * float(pk) ** (-2.0 * sigma))
            pk *= p
    oracle = math.fsum(terms) / model.V
    m11 = torus.torus_moment_exact(model, 1, 1)
    assert m11.imag == 0.0
    assert abs(m11.real - oracle) <= 1e-14

    assert torus.torus_moment_exact(model, 1, 0) == 0.0 + 0.0j
    assert torus.torus_moment_exact(model, 0, 1) == 0.0 + 0.0j

    checks = [torus.moment_bound_check(model, k, n_samples=100_000, seed=11)
              for k in (0, 1, 2, 3)]
    m22 = torus.torus_moment_exact(model, 2, 2).real
    c2 = checks[2]
    assert c2["exact"] == m22
    assert abs(c2["mc_estimate"] - m22) <= 3.0 * c2["mc_std_error"]
    for k, c in enumerate(checks):
        assert c["bound"] == 18.0**k * math.factorial(k)
        assert c["exact_within_bound"] and c["mc_within_bound"]

    assert time.perf_counter() - t0 < 120.0


def test_criterion_05_torus_gaussian_limit():
    t0 = time.perf_counter()
    schedule = [(0.6, 1.0e3), (0.55, 1.0e4), (0.52, 1.0e5)]
    models = [torus.make_torus_model(s, x) for s, x in schedule]
    # One fixed grid radius shared by every leg: the smallest of the
    # per-leg caps min(1, sqrt(V)/100), so each leg is evaluated inside
    # its own small-argument window and the sups are comparable.
    radius = min(min(1.0, math.sqrt(m.V) / 100.0) for m in models)
    assert abs(radius - 0.0215093247352353) < 1e-13
    axis = np.linspace(-radius, radius, 21)
    gauss = np.exp(-2.0 * math.pi**2
                   * (axis[:, None] ** 2 + axis[None, :] ** 2))
    sups = []
    for model in models:
        dev = 0.0
        for i, u in enumerate(axis):
            for j, v in enumerate(axis):
                val = torus.chf_product(model, float(u), float(v))
                dev = max(dev, abs(val - gauss[i, j]))
        sups.append(dev)
    assert sups[0] > sups[1] > sups[2], sups
    assert sups[2] <= 0.02
    assert time.perf_counter() - t0 < 300.0


def test_criterion_06_bandlimited_suite():
    t0 = time.perf_counter()
    for delta in (1.0, 4.0, 16.0):
        for kind in ("majorant", "minorant"):
            F = bandlimit.selberg_interval(-1.0, 1.0, delta, kind)
            report = bandlimit.domination_report(F)
            assert report["min_slack"] >= -1e-9
            excess = bandlimit.excess_integral(F)
            want = 1.0 / delta if kind == "majorant" else -1.0 / delta
            assert abs(excess - want) <= 1e-6
            cert = bandlimit.verify_bandlimit(F)
            assert cert["passed"]
            assert cert["max_out_of_band_abs"] <= 1e-4 * cert["f_hat0"]
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_statistics_selftest(gauss_100k):
    t0 = time.perf_counter()
    sset = gauss_100k

    disk = lab.disk_report(sset, 1.0)
    assert disk.gaussian_prediction == pytest.approx(1.0 - math.exp(-0.5),
                                                     abs=1e-15)
    assert abs(disk.empirical_fraction
               - disk.gaussian_prediction) <= 3.0 * disk.std_error
    disk2 = lab.disk_report(sset, 2.0)
    assert abs(disk2.empirical_fraction
               - disk2.gaussian_prediction) <= 3.0 * disk2.std_error

    rect = lab.rectangle_report(sset, -1.0, 1.0, -1.0, 1.0)
    assert rect.gaussian_prediction == pytest.approx(0.46606494267439227,
                                                     abs=1e-12)
    assert abs(rect.empirical_fraction
               - rect.gaussian_prediction) <= 3.0 * rect.std_error

    assert lab.empirical_chf(sset, 0.0, 0.0) == 1.0 + 0.0j
    assert 1.97 <= lab.second_moment_check(sset) <= 2.03
    assert time.perf_counter() - t0 < 30.0


# Regression bounds frozen from the reference run of the desk experiment
# (grid sampling, 2e4 points, t_lo = 50, chf grid |u|,|v| <= 1 at 11x11),
# with margin over the measured values at both heights.
FROZEN_EXCLUDED = 0.001
FROZEN_M2_DEV = 0.01
FROZEN_DISK_SUP = 0.025
FROZEN_CHF_SUP = 0.06


DESK_CHF_AXIS = np.linspace(-1.0, 1.0, 11)
# Chance that iid draws from the model break the sampling bound below.
GAP_FAILURE_PROB = 1e-3


def _desk_metrics(sset):
    deviation = lab.chf_deviation_grid(sset, DESK_CHF_AXIS, DESK_CHF_AXIS)
    return {
        "excluded": sset.excluded_fraction,
        "m2_dev": abs(lab.second_moment_check(sset) - 2.0),
        "disk_sup": lab.disk_cdf_sup(sset)["sup_dev"],
        "chf_sup": deviation["sup_abs_dev"],
    }


def _model_chf_grid(ctx):
    """Exact chf of the random Euler product on the desk grid.

    Primes up to 1e5, sigma from the context and the line's own V, so the
    model shares the normalizer of the line samples.
    """
    model = torus.make_torus_model(ctx.sigma, 1.0e5, V=ctx.V)
    return np.array([[torus.chf_product(model, float(u), float(v))
                      for v in DESK_CHF_AXIS] for u in DESK_CHF_AXIS])


def _sampling_bound(n):
    """Sup over the desk grid of |empirical chf - chf| for n iid draws.

    Hoeffding bounds the real and the imaginary part at each node (each a
    mean of n terms in [-1, 1]); a union bound over all of them holds with
    probability 1 - GAP_FAILURE_PROB, and the modulus is at most sqrt(2)
    times the bound on the parts.
    """
    parts = 2 * DESK_CHF_AXIS.size ** 2
    eps = math.sqrt(2.0 * math.log(2.0 * parts / GAP_FAILURE_PROB) / n)
    return math.sqrt(2.0) * eps


def test_criterion_08_line_desk_experiment(line_desk):
    """Frozen bounds at T = 1e5 and T = 4e5, then the approach to the Gaussian.

    The final clause compares the heights through the exact random Euler
    product (the model of zeta'/zeta = -S on the line): its sup distance
    to the Gaussian chf on the desk grid must strictly decrease from
    sigma(1e5) to sigma(4e5), as the (|u|+|v|)^3 V^(-3/2) term of the
    chf_deviation_grid envelope does when V grows.  The four desk metrics
    themselves are not compared across heights: at 2e4 samples their
    T-differences are far below their sampling scatter.  Each draw must
    instead sit as close to the model's chf as iid draws from the model
    would, up to GAP_FAILURE_PROB; the sign-flipped model, or one whose V
    is off by a factor of two, misses that bound at both heights.
    """
    t0 = time.perf_counter()
    metrics_1e5 = _desk_metrics(line_desk)
    ctx_4e5 = variance.make_context(psi=15.0, T=4.0e5)
    line_4e5 = lab.sample_line(ctx_4e5,
                               sampling={"mode": "grid", "count": 20_000})
    metrics_4e5 = _desk_metrics(line_4e5)

    for metrics in (metrics_1e5, metrics_4e5):
        assert metrics["excluded"] <= FROZEN_EXCLUDED
        assert metrics["m2_dev"] <= FROZEN_M2_DEV
        assert metrics["disk_sup"] <= FROZEN_DISK_SUP
        assert metrics["chf_sup"] <= FROZEN_CHF_SUP

    axis = DESK_CHF_AXIS
    gauss = lab.gaussian_chf(axis[:, None], axis[None, :])
    model_sup, gap, bound = {}, {}, {}
    for name, sset in (("T=1e5", line_desk), ("T=4e5", line_4e5)):
        model = _model_chf_grid(sset.context)
        model_sup[name] = float(np.max(np.abs(model - gauss)))
        # The chf of -S at (u, v) is the conjugate of the chf of S.
        empirical = lab.empirical_chf_grid(sset, axis, axis)
        gap[name] = float(np.max(np.abs(empirical - np.conj(model))))
        bound[name] = _sampling_bound(sset.n_ok)

    assert time.perf_counter() - t0 < 1800.0

    assert (model_sup["T=1e5"] > model_sup["T=4e5"]
            and all(gap[name] <= bound[name] for name in gap)), (
        f"model sup |chf - gaussian|: {model_sup}; "
        f"draw sup |empirical chf - model chf|: {gap} "
        f"(sampling bounds {bound})")


RECTANGLES = [
    (-1.0, 1.0, -1.0, 1.0),
    (0.0, 1.0, 0.0, 1.0),
    (-2.0, 2.0, -1.0, 1.0),
    (-1.0, 0.0, 0.0, 2.0),
    (0.5, 1.5, -0.5, 0.5),
]


def test_criterion_09_sandwich_contains_direct(line_desk):
    z = line_desk.ok_samples()
    rate_u = float(np.max(np.abs(z.real)))
    rate_v = float(np.max(np.abs(z.imag)))

    def chf(u_axis, v_axis):
        return lab.empirical_chf_grid(line_desk, u_axis, v_axis)

    for a, b, c, d in RECTANGLES:
        report = lab.rectangle_report(line_desk, a, b, c, d)
        F = bandlimit.selberg_interval(a, b, 4.0, "majorant")
        G = bandlimit.selberg_interval(c, d, 4.0, "majorant")
        sandwich = lab.rect_prob_from_chf(chf, F, G,
                                          osc_rate_u=rate_u,
                                          osc_rate_v=rate_v)
        slack = 2e-5 + 3.0 * report.std_error
        frac = report.empirical_fraction
        assert sandwich.lower - slack <= frac <= sandwich.upper + slack, (
            (a, b, c, d), sandwich.lower, frac, sandwich.upper)


def _drop_generated_at(text):
    return "\n".join(line for line in text.splitlines()
                     if '"generated_at"' not in line)


def test_criterion_10_determinism(tmp_path, ctx_desk, line_desk, gauss_100k):
    # Torus payload: same seed, workers 1 vs 2, byte-identical JSON
    # apart from the generated_at stamp.
    for workers, name in ((1, "w1"), (2, "w2")):
        rc = cli_main(["torus", "--sigma", "0.75", "--x", "300",
                       "--seed", "7", "--workers", str(workers),
                       "--out", str(tmp_path / name)])
        assert rc == 0
    doc_1 = (tmp_path / "w1" / "torus.json").read_text(encoding="utf-8")
    doc_2 = (tmp_path / "w2" / "torus.json").read_text(encoding="utf-8")
    assert _drop_generated_at(doc_1) == _drop_generated_at(doc_2)

    # Synthetic-Gaussian payload: fresh rerun with the same seed.
    rerun = lab.synthetic_gaussian_set(100_000, seed=0)
    for name in ("t_values", "samples", "flags"):
        assert getattr(gauss_100k, name).tobytes() == getattr(rerun, name).tobytes(), name
    reports = []
    for sset in (gauss_100k, rerun):
        reports.append(json.dumps(
            [lab.disk_report(sset, 1.0).as_dict(),
             lab.rectangle_report(sset, -1.0, 1.0, -1.0, 1.0).as_dict()],
            sort_keys=True))
    assert reports[0] == reports[1]

    # Desk-experiment payload: same grid, workers 1 vs 2.
    line_w2 = lab.sample_line(ctx_desk,
                              sampling={"mode": "grid", "count": 20_000},
                              workers=2)
    for name in ("t_values", "samples", "flags"):
        assert getattr(line_desk, name).tobytes() == getattr(line_w2, name).tobytes(), name
    axis = np.linspace(-1.0, 1.0, 11)
    grids = [json.dumps(lab.chf_deviation_grid(s, axis, axis), sort_keys=True)
             for s in (line_desk, line_w2)]
    assert grids[0] == grids[1]

"""Tests for the experiment engine: sample-set bookkeeping, empirical
statistics against the Gaussian limit on synthetic data, the chf-route
rectangle sandwich against direct counting, and line sampling in the
absolutely convergent strip."""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sp
from scipy.stats import kstest

from zetalab import lab, zeta
from zetalab.bandlimit import selberg_interval
from zetalab.errors import DomainError, QuadratureError
from zetalab.selberg import prime_poly
from zetalab.torus import make_torus_model
from zetalab.variance import make_context


def test_synthetic_set_bookkeeping(gauss_20k):
    s = gauss_20k
    assert s.n_total == 20_000
    assert s.n_ok == 20_000
    assert s.excluded_fraction == 0.0
    assert not s.warning
    assert s.flag_counts() == {"ok": 20_000, "near_zero": 0, "precision_fail": 0}
    head = s.header()
    assert head["sampling"]["mode"] == "synthetic-gaussian"
    assert "context" not in head
    again = lab.synthetic_gaussian_set(20_000, seed=0)
    assert np.array_equal(again.samples, s.samples)
    other = lab.synthetic_gaussian_set(20_000, seed=1)
    assert not np.array_equal(other.samples, s.samples)
    empty = lab.synthetic_gaussian_set(0)
    assert empty.n_total == 0 and empty.excluded_fraction == 0.0
    with pytest.raises(DomainError):
        lab.synthetic_gaussian_set(-1)


def test_flag_accounting_and_warning():
    n = 100
    flags = np.zeros(n, dtype=np.uint8)
    flags[:8] = lab.FLAG_NEAR_ZERO
    flags[8:20] = lab.FLAG_PRECISION
    samples = np.full(n, 0.3 + 0.4j)
    samples[flags != lab.FLAG_OK] = np.nan
    s = lab.LineSampleSet(context=None, t_values=np.arange(n, dtype=float),
                          samples=samples, flags=flags, sampling={"mode": "grid"})
    assert s.n_ok == 80
    assert abs(s.excluded_fraction - 0.2) <= 1e-15
    assert s.warning
    assert s.flag_counts() == {"ok": 80, "near_zero": 8, "precision_fail": 12}
    assert s.ok_samples().shape == (80,)
    assert np.all(np.isfinite(s.ok_samples()))
    with pytest.raises(DomainError):
        lab.LineSampleSet(context=None, t_values=np.arange(3, dtype=float),
                          samples=np.zeros(2, complex),
                          flags=np.zeros(2, np.uint8), sampling={})


def test_empirical_chf_at_origin_and_spots(gauss_100k):
    assert lab.empirical_chf(gauss_100k, 0.0, 0.0) == 1.0 + 0.0j
    for u, v in [(0.2, 0.0), (0.0, -0.3), (0.25, 0.25)]:
        emp = lab.empirical_chf(gauss_100k, u, v)
        want = float(lab.gaussian_chf(u, v))
        assert abs(emp - want) <= 4.0 / math.sqrt(100_000), (u, v)
    with pytest.raises(DomainError):
        lab.empirical_chf(lab.synthetic_gaussian_set(0), 0.1, 0.1)


def test_chf_grid_matches_pointwise_loop(gauss_20k, monkeypatch):
    axes = [
        ([-0.8, -0.3, 0.0, 0.4, 1.0], [-0.9, -0.1, 0.2, 0.5, 0.7, 0.85, 1.0]),
        # Exact +/- pairs, a 0, a repeated magnitude and an unpaired value
        # fold onto the distinct magnitudes of each axis.
        ([0.6, -0.3, 0.0, 0.3, -0.6, 0.3, 0.95], [-0.45, 0.45, 0.0, -0.45, -0.7]),
    ]
    for u, v in axes:
        u, v = np.array(u), np.array(v)
        grid = lab.empirical_chf_grid(gauss_20k, u, v)
        assert grid.shape == (u.size, v.size)
        for i in range(u.size):
            for j in range(v.size):
                want = lab.empirical_chf(gauss_20k, float(u[i]), float(v[j]))
                assert abs(grid[i, j] - want) <= 1e-12
        with monkeypatch.context() as m:
            m.setattr(lab, "_CHUNK", 1000)
            rechunked = lab.empirical_chf_grid(gauss_20k, u, v)
        assert np.max(np.abs(grid - rechunked)) <= 1e-12
    # The sandwich's quadrature nodes come in exact +/- pairs, so they fold,
    # 16 per panel of each half axis.
    for panels in (1, 2, 5, 128):
        u, w = lab._axis_nodes(4.0, panels)
        assert u.size == 32 * panels
        assert np.array_equal(u[::-1], -u)
        assert np.array_equal(w[::-1], w)


def _exact_rows_grid(sset, u, v):
    """The chf grid from cos/sin rows at every distinct |u| and |v|, summed
    chunk by chunk and folded by sign as the grid did before its nodes."""
    z, chunk = sset.ok_samples(), lab._CHUNK
    au, iu = np.unique(np.abs(u), return_inverse=True)
    av, iv = np.unique(np.abs(v), return_inverse=True)
    rows = lab._cos_sin_rows
    acc = sum(rows(au, z.real[i:i + chunk]) @ rows(av, z.imag[i:i + chunk]).T
              for i in range(0, z.size, chunk))
    (CC, CS), (SC, SS) = ((blk[np.ix_(iu, iv)] for blk in np.split(half, 2, axis=1))
                          for half in np.split(acc, 2))
    s, r = np.sign(u)[:, None], np.sign(v)
    return ((CC - s * r * SS) + 1j * (r * CS + s * SC)) / z.size


def test_chf_grid_by_interpolation_matches_exact_rows(gauss_20k):
    # Sandwich quadrature axes (the 64 nodes of the `sandwich` benchmark at
    # delta 1, and 128 to 1,024), on the samples and on copies scaled x2 and x5
    # (max |x| about 8.5 and 21): Chebyshev points in the range of |x| and
    # Lagrange rows against the rows at every distinct |u|, on every entry of a
    # 64-node axis and every seventh row and column of the others.  Only the
    # 64-node axis of the x2 and x5 copies needs as many points as twice its 32
    # |u| and takes the exact rows, so wide ranges meet the same bounds.
    z0 = gauss_20k.ok_samples()
    lifted = 0
    for scale in (1.0, 2.0, 5.0):
        sset = lab.LineSampleSet(context=None, t_values=gauss_20k.t_values, samples=scale * z0,
                                 flags=gauss_20k.flags, sampling={})
        for delta, panels in ((1.0, 2), (1.0, 4), (1.0, 8), (4.0, 16), (4.0, 32)):
            u, _ = lab._axis_nodes(delta, panels)
            lifted += lab._sample_nodes(np.unique(np.abs(u)), scale * z0.real) is not None
            grid = lab.empirical_chf_grid(sset, u, u)
            some = np.arange(u.size) if u.size <= 64 else np.r_[0:u.size:7, u.size - 1]
            want = _exact_rows_grid(sset, u[some], u[some])
            dev = np.max(np.abs(grid[np.ix_(some, some)] - want))
            assert dev <= 4 * lab._CHEB_TOL, (scale, delta, panels, dev)
            for i, j in ((0, 1), (u.size // 3, u.size - 1), (u.size // 2, u.size // 2)):
                want = lab.empirical_chf(sset, float(u[i]), float(u[j]))
                assert abs(grid[i, j] - want) <= 1e-12
    assert lifted == 13
    # An 11-point `chf_axis`, as `dist` tabulates, has 6 distinct |u| against at
    # least 16 points: the exact rows, bit for bit.
    axis = lab.chf_axis(None, 1.0, 11)
    assert lab._sample_nodes(np.unique(np.abs(axis)), gauss_20k.ok_samples().real) is None
    assert np.array_equal(lab.empirical_chf_grid(gauss_20k, axis, axis),
                          _exact_rows_grid(gauss_20k, axis, axis))


def test_chf_node_rule_meets_its_tolerance():
    # The rule's point count n, with the interpolant rebuilt in long double so
    # that the interpolation error alone shows (in double, rounding the points
    # and phases costs about eps 2 pi A R, as it does the exact rows): cos and
    # sin(2 pi a x) at frequencies a up to A, interpolated from n points in the
    # range [lo, hi] of |x|, on a fine x-grid of ranges from 0 and off it.
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("needs an extended long double")
    ld = np.longdouble
    pi = np.arccos(ld(-1))
    for A, R in ((1.0, 3.4), (4.0, 4.3), (4.0, 21.0), (0.3, 0.5)):
        a = np.linspace(0.0, A, 3000)
        for lo, hi in ((0.0, R), (0.5 * R, R), (R, 3.0 * R)):
            basis = lab._sample_nodes(a, np.array([-hi, lo, 0.5 * (lo + hi)]))
            assert basis is not None
            nodes, n = basis[0], basis[0].size
            assert n <= 1.2 * math.pi * A * (hi - lo) + 40, (A, R, lo, hi, n)
            theta = (np.arange(n) + ld(0.5)) * (pi / n)
            at = (ld(lo) + ld(hi)) / 2 + (ld(hi) - ld(lo)) / 2 * np.cos(theta)
            x = np.linspace(ld(lo), ld(hi), 2000)  # even: no x at the middle node of an odd n
            q = (-1.0) ** np.arange(n) * np.sin(theta) / (x[:, None] - at)
            for freq in (ld(A), ld(0.5 * A), ld(0.123 * A)):
                for f in (np.cos, np.sin):
                    err = np.max(np.abs((q @ f(2 * pi * freq * at)) / q.sum(axis=1)
                                        - f(2 * pi * freq * x)))
                    assert err <= lab._CHEB_TOL, (A, R, lo, hi, freq, f, err)
            # A sample on a node, or on its mirror, takes the unit column, negated
            # in the rows that carry sign(x).
            rows = lab._sample_rows(a, basis, np.r_[lo, nodes[5], -nodes[5], hi])
            assert np.array_equal(rows[:n, 1], np.arange(n) == 5)
            assert np.array_equal(rows[:, 2], np.r_[rows[:n, 1], -rows[n:, 1]])
    # A range of |x| of width 0, or one that needs as many points as twice the
    # axis' |u|, takes the exact rows.
    assert lab._sample_nodes(a, np.r_[np.full(7, 0.3), -0.3]) is None
    assert lab._sample_nodes(np.linspace(0.0, 4.0, 40), np.array([0.0, -21.0])) is None


def test_chf_grid_edge_cases_match_pointwise(gauss_20k, monkeypatch):
    # Each case against empirical_chf on every seventh row and column, in one
    # chunk and in chunks of 1000: all Re z equal (an exact u-axis beside an
    # interpolated v-axis), samples exactly on a Chebyshev point and on its
    # mirror, a single sample, and the sandwich's axis beside an 11-point one.
    u, _ = lab._axis_nodes(1.0, 4)
    z = gauss_20k.ok_samples()[:2500].copy()
    on_node = z.copy()
    nodes = lab._sample_nodes(np.unique(np.abs(u)), on_node.real)[0]
    on_node[1:3] = np.r_[nodes[7], -nodes[7]] + 1j * on_node[1:3].imag
    assert np.array_equal(lab._sample_nodes(np.unique(np.abs(u)), on_node.real)[0], nodes)
    eleven = np.linspace(-1.0, 1.0, 11)
    cases = [(0.7 + 1j * z.imag, u, u), (on_node, u, u),
             (np.array([0.3 - 0.4j]), u, u), (z, u, eleven)]
    for samples, ua, va in cases:
        sset = lab.LineSampleSet(context=None, t_values=np.arange(samples.size, dtype=float),
                                 samples=samples, flags=np.zeros(samples.size, np.uint8),
                                 sampling={})
        rows, cols = np.r_[0:ua.size:7, ua.size - 1], np.r_[0:va.size:7, va.size - 1]
        want = np.array([[lab.empirical_chf(sset, float(ua[i]), float(va[j])) for j in cols]
                         for i in rows])
        for chunk in (4096, 1000):
            monkeypatch.setattr(lab, "_CHUNK", chunk)
            grid = lab.empirical_chf_grid(sset, ua, va)
            assert np.max(np.abs(grid[np.ix_(rows, cols)] - want)) <= 1e-12, (samples.size, chunk)


def test_chf_grid_rejects_non_finite_axes(gauss_20k):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            lab.empirical_chf_grid(gauss_20k, [0.1, bad], [0.2])
        with pytest.raises(DomainError):
            lab.empirical_chf_grid(gauss_20k, [0.1], [bad])
    assert lab.empirical_chf_grid(gauss_20k, [], [0.2, 0.3]).shape == (0, 2)


def test_gaussian_chf_closed_form():
    assert lab.gaussian_chf(0.0, 0.0) == 1.0
    u, v = 0.3, -0.4
    want = math.exp(-2.0 * math.pi**2 * (u * u + v * v))
    assert abs(float(lab.gaussian_chf(u, v)) - want) <= 1e-16
    arr = lab.gaussian_chf(np.array([0.0, 0.5]), np.array([0.0, 0.5]))
    assert arr.shape == (2,) and arr[0] == 1.0


def test_chf_deviation_grid(gauss_20k, ctx_desk):
    axis = np.linspace(-1.0, 1.0, 11)
    axis = 0.5 * (axis - axis[::-1])
    out = lab.chf_deviation_grid(gauss_20k, axis, axis)
    assert len(out["records"]) == 121
    assert 0.0 < out["sup_abs_dev"] <= 0.04
    assert out["sup_dev_over_envelope"] is None
    assert out["n_ok"] == 20_000
    rec = out["records"][0]
    assert {"u", "v", "re", "im", "gaussian", "abs_dev"} <= set(rec)
    # With a context attached the report carries the theoretical envelope
    # (informational: sample noise dwarfs it at this scale).
    withctx = lab.synthetic_gaussian_set(2000, context=ctx_desk)
    axis = lab.chf_axis(ctx_desk, None, 11)
    out2 = lab.chf_deviation_grid(withctx, axis, axis)
    assert "envelope" in out2["records"][0]
    assert out2["sup_dev_over_envelope"] > 0.0
    # The columns are computed as arrays; every record equals the scalar
    # formulas bit for bit.
    V, psi = ctx_desk.V, ctx_desk.psi
    for rec in out2["records"]:
        u, v = rec["u"], rec["v"]
        gauss = float(lab.gaussian_chf(u, v))
        env = (gauss * ((abs(u) + abs(v)) ** 3 / V ** 1.5 + (u * u + v * v) / psi ** 10)
               + psi ** -10)
        assert rec["gaussian"] == gauss
        assert rec["abs_dev"] == abs(complex(rec["re"], rec["im"]) - gauss)
        assert rec["envelope"] == env
        assert rec["dev_over_envelope"] == rec["abs_dev"] / env
    assert out2["sup_abs_dev"] == max(rec["abs_dev"] for rec in out2["records"])
    assert out2["sup_dev_over_envelope"] == max(rec["dev_over_envelope"]
                                                for rec in out2["records"])


def test_chf_deviation_envelope_past_the_gaussian_underflow(ctx_desk):
    # Where the Gaussian factor underflows to 0 the envelope is its limit
    # psi^-10; (|u| + |v|)^3 overflows there, and 0 * inf read nan.
    sset = lab.synthetic_gaussian_set(200, context=ctx_desk)
    axis = np.array([-1e300, -1e103, -1.0, 0.0, 1.0, 1e103, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = lab.chf_deviation_grid(sset, axis, axis)
    V, psi = ctx_desk.V, ctx_desk.psi
    for rec in out["records"]:
        u, v = rec["u"], rec["v"]
        assert all(math.isfinite(x) for x in rec.values()), rec
        if rec["gaussian"] == 0.0:
            assert abs(u) + abs(v) >= 1e103 and rec["envelope"] == psi ** -10
        else:
            assert rec["envelope"] == (rec["gaussian"] * ((abs(u) + abs(v)) ** 3 / V ** 1.5
                                                          + (u * u + v * v) / psi ** 10)
                                       + psi ** -10)


def test_default_chf_axis_is_antisymmetric(ctx_desk):
    # r = Omega of `dist --T 1e5 --psi 15`, where linspace(-r, r, 11) is
    # not exactly antisymmetric: the axis folds to 6 distinct |u|, and the
    # grid is exactly Hermitian.
    axis = lab.chf_axis(ctx_desk, None, 11)
    out = lab.chf_deviation_grid(lab.synthetic_gaussian_set(2000, context=ctx_desk), axis, axis)
    u, v, re, im = (np.array([rec[k] for rec in out["records"]]).reshape(11, 11)
                    for k in ("u", "v", "re", "im"))
    assert u[-1, 0] == ctx_desk.Omega and np.array_equal(u[:, 0], -u[::-1, 0])
    assert np.array_equal(v[0], u[:, 0]) and np.unique(np.abs(u)).size == 6
    assert np.array_equal(re, re[::-1, ::-1]) and np.array_equal(im, -im[::-1, ::-1])


def test_rectangle_report_against_gaussian(gauss_100k):
    rep = lab.rectangle_report(gauss_100k, -1.0, 1.0, -1.0, 1.0)
    width = sp.ndtr(1.0) - sp.ndtr(-1.0)
    assert abs(rep.gaussian_prediction - width * width) <= 1e-15
    assert abs(rep.empirical_fraction - rep.gaussian_prediction) <= 3.0 * rep.std_error
    assert rep.n_ok == 100_000
    assert rep.error_scale is None
    skew = lab.rectangle_report(gauss_100k, -0.5, 1.2, 0.3, 2.0)
    want = (sp.ndtr(1.2) - sp.ndtr(-0.5)) * (sp.ndtr(2.0) - sp.ndtr(0.3))
    assert abs(skew.gaussian_prediction - want) <= 1e-15
    assert abs(skew.empirical_fraction - want) <= 3.0 * skew.std_error
    with pytest.raises(DomainError):
        lab.rectangle_report(gauss_100k, 1.0, -1.0, 0.0, 1.0)


def test_disk_report_against_gaussian(gauss_100k, ctx_desk):
    rep = lab.disk_report(gauss_100k, 1.0)
    assert abs(rep.gaussian_prediction - (1.0 - math.exp(-0.5))) <= 1e-15
    assert abs(rep.empirical_fraction - rep.gaussian_prediction) <= 3.0 * rep.std_error
    assert rep.extras == {}
    with pytest.raises(DomainError):
        lab.disk_report(gauss_100k, -0.5)
    # The small-radius ratio only unlocks once r exceeds 1/tOmega.
    withctx = lab.synthetic_gaussian_set(2000, context=ctx_desk)
    big_r = 1.5 / ctx_desk.tOmega
    rep2 = lab.disk_report(withctx, big_r)
    assert "small_r_fraction_over_r_sq" in rep2.extras
    assert rep2.error_scale is not None


def test_disk_cdf_sup_is_the_ks_statistic(gauss_20k):
    out = lab.disk_cdf_sup(gauss_20k)
    radii = np.abs(gauss_20k.ok_samples())
    ks = kstest(radii, lambda r: 1.0 - np.exp(-0.5 * r * r))
    assert abs(out["sup_dev"] - float(ks.statistic)) <= 1e-12
    assert out["n_ok"] == 20_000
    assert float(np.min(radii)) <= out["at_r"] <= float(np.max(radii))
    # Seeded Gaussian data sits well under the 0.05 play target.
    assert out["sup_dev"] <= 0.02


def test_disk_cdf_sup_takes_the_larger_side():
    # Every |z| <= 0.1: the empirical CDF runs above the Rayleigh one, and the
    # sup sits at the largest radius; every |z| >= 5: below it, at the smallest.
    rng = np.random.default_rng(5)
    for radii, at in ((rng.uniform(0.0, 0.1, 300), np.max), (rng.uniform(5.0, 7.0, 300), np.min)):
        z = radii * np.exp(2j * np.pi * rng.uniform(size=radii.size))
        sset = lab.LineSampleSet(context=None, t_values=np.arange(z.size, dtype=float),
                                 samples=z, flags=np.zeros(z.size, np.uint8), sampling={})
        out = lab.disk_cdf_sup(sset)
        # Brute force: just below and at each jump point of the empirical CDF.
        n, jumps = z.size, sorted(np.abs(z).tolist())
        brute = max(abs(k / n - (1.0 - math.exp(-0.5 * r * r)))
                    for i, r in enumerate(jumps) for k in (i, i + 1))
        assert out["sup_dev"] == pytest.approx(brute, abs=1e-15)
        assert out["at_r"] == float(at(np.abs(z))) and out["sup_dev"] > 0.99


def test_second_moment(gauss_100k):
    m2 = lab.second_moment_check(gauss_100k)
    z = gauss_100k.ok_samples()
    assert m2 == float(np.mean(np.abs(z) ** 2))
    assert 1.97 <= m2 <= 2.03


def test_every_statistic_refuses_a_set_without_ok_samples():
    flags = np.array([1, 2, 1, 1, 2, 1, 2], np.uint8)
    refused = lab.LineSampleSet(context=None, t_values=np.arange(7.0),
                                samples=np.full(7, np.nan + 0j), flags=flags, sampling={})
    stats = (lambda s: s.ok_samples(),
             lambda s: lab.empirical_chf(s, 0.1, 0.2),
             lambda s: lab.empirical_chf_grid(s, [0.1], [0.2]),
             lambda s: lab.rectangle_report(s, -1.0, 1.0, -1.0, 1.0),
             lambda s: lab.disk_report(s, 1.0),
             lambda s: lab.disk_cdf_sup(s),
             lambda s: lab.second_moment_check(s))
    for sset, msg in ((refused, "no ok sample among the 7 points "
                                "(ok=0, near_zero=4, precision_fail=3)"),
                      (lab.synthetic_gaussian_set(0), "no ok sample among the 0 points "
                                                      "(ok=0, near_zero=0, precision_fail=0)")):
        for stat in stats:
            with pytest.raises(DomainError) as exc:
                stat(sset)
            assert str(exc.value) == msg


def _flagged_set(context):
    """500 seeded Gaussian samples, 111 of them flagged (near zero or uncertified)."""
    base = lab.synthetic_gaussian_set(500, seed=3, context=context)
    flags = base.flags.copy()
    flags[::7] = lab.FLAG_NEAR_ZERO
    flags[3::11] = lab.FLAG_PRECISION
    return lab.LineSampleSet(context=context, t_values=base.t_values,
                             samples=np.where(flags == lab.FLAG_OK, base.samples, np.nan),
                             flags=flags, sampling=base.sampling)


def test_region_reports_pinned(ctx_desk):
    # Exact values from before the two reports shared one builder.  A context adds
    # the error scales and, at r >= 1/tOmega (about 9359 here), the small-radius ratio.
    want = [
        {"region": {"type": "rectangle", "a": -0.5, "b": 1.25, "c": -1.0, "d": 0.75},
         "empirical_fraction": 0.31876606683804626, "gaussian_prediction": 0.36010924851738724,
         "std_error": 0.023627043319406075},
        {"region": {"type": "disk", "r": 1.0}, "empirical_fraction": 0.35732647814910024,
         "gaussian_prediction": 0.3934693402873666, "std_error": 0.02429701951331666},
        {"region": {"type": "disk", "r": 20000.0}, "empirical_fraction": 1.0,
         "gaussian_prediction": 1.0, "std_error": 0.0},
    ]
    scales = [852691.6603686977, 419786.66356612806, 83961530579861.28]
    for ctx in (None, ctx_desk):
        sset = _flagged_set(ctx)
        got = [lab.rectangle_report(sset, -0.5, 1.25, -1.0, 0.75).as_dict(),
               lab.disk_report(sset, 1.0).as_dict(),
               lab.disk_report(sset, 2.0e4).as_dict()]
        expect = [{**w, "excluded_fraction": 0.22199999999999998, "n_ok": 389,
                   "error_scale": None if ctx is None else scale}
                  for w, scale in zip(want, scales)]
        if ctx is not None:
            expect[2]["small_r_fraction_over_r_sq"] = 2.5e-09
        assert got == expect


def test_sample_line_in_convergent_strip():
    ctx = make_context(T=1000.0, sigma=2.0)
    s = lab.sample_line(ctx, t_lo=50.0, t_hi=100.0,
                        sampling={"mode": "grid", "count": 300})
    assert s.n_ok == 300
    assert s.t_values[0] == 50.0 and s.t_values[-1] == 100.0
    # |zeta'/zeta(2+it)| is at most its value at t = 0, about 0.5700.
    raw_max = float(np.max(np.abs(s.samples))) * math.sqrt(ctx.V)
    assert raw_max <= 0.5700
    head = s.header()
    assert head["context"]["sigma"] == 2.0
    assert head["excluded_fraction"] == 0.0


def test_sample_line_modes_and_gates():
    ctx = make_context(T=1000.0, sigma=2.0)
    rnd = lab.sample_line(ctx, t_lo=50.0, t_hi=100.0,
                          sampling={"mode": "random", "count": 64, "seed": 9})
    assert rnd.n_total == 64
    assert np.all(np.diff(rnd.t_values) >= 0.0)
    assert np.all((rnd.t_values >= 50.0) & (rnd.t_values <= 100.0))
    rnd2 = lab.sample_line(ctx, t_lo=50.0, t_hi=100.0,
                           sampling={"mode": "random", "count": 64, "seed": 9})
    assert np.array_equal(rnd.samples, rnd2.samples)
    empty = lab.sample_line(ctx, t_lo=80.0, t_hi=80.0)
    assert empty.n_total == 0 and not empty.warning
    with pytest.raises(DomainError):
        lab.sample_line(ctx, t_lo=100.0, t_hi=50.0)
    for lo, hi in ((math.nan, 100.0), (50.0, math.nan), (-math.inf, 100.0), (50.0, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            lab.sample_line(ctx, t_lo=lo, t_hi=hi, sampling={"mode": "random", "count": 8})
    with pytest.raises(DomainError, match="hexagonal"):
        lab.sample_line(ctx, sampling={"mode": "hexagonal"})
    with pytest.raises(DomainError, match="hexagonal"):  # the mode is checked before the range
        lab.sample_line(ctx, t_lo=80.0, t_hi=80.0, sampling={"mode": "hexagonal"})
    with pytest.raises(DomainError):
        lab.sample_line(ctx, t_hi=100.0, sampling={"mode": "grid", "count": -5})
    with pytest.raises(DomainError, match="count"):
        lab.sample_line(ctx, t_hi=100.0, sampling={"mode": "random", "count": -5})
    with pytest.raises(DomainError):
        lab.sample_line(ctx, t_hi=zeta.HEIGHT_CAP * 2.0)


def test_sample_line_worker_invariance():
    # Grids take one log_deriv_band call; random t goes through its band
    # route over a process pool.
    ctx = make_context(T=1000.0, sigma=2.0)
    for spec in ({"mode": "grid", "count": 4100},
                 {"mode": "random", "count": 4100, "seed": 3}):
        one = lab.sample_line(ctx, t_lo=50.0, t_hi=1000.0, sampling=spec, workers=1)
        two = lab.sample_line(ctx, t_lo=50.0, t_hi=1000.0, sampling=spec, workers=2)
        assert np.array_equal(one.samples, two.samples)
        assert np.array_equal(one.flags, two.flags)


def _sandwich_at(chf, F, G, panels):
    """(lower, upper) from the sandwich's three sums on `panels` panels per half
    axis, xi = 0 on a panel edge, with no bound."""
    u, wu = lab._axis_nodes(F.delta, panels)
    v, wv = lab._axis_nodes(G.delta, panels)
    M = chf(u, v)
    fp, fm = (wu * H.hat(u) for H in (F, selberg_interval(F.a, F.b, F.delta, "minorant")))
    gp, gm = (wv * H.hat(v) for H in (G, selberg_interval(G.a, G.b, G.delta, "minorant")))
    pp = (fp @ M @ gp).real
    return (fm @ M @ gp).real + (fp @ M @ gm).real - pp, pp


def _assert_within_bound(sw, chf, F, G, quad_tol=2e-5):
    # The certificate against an independent reference at four times the nodes.
    lower, upper = _sandwich_at(chf, F, G, sw.nodes_per_axis // 8)
    assert sw.quad_bound <= quad_tol / 4, (sw, quad_tol)
    assert abs(sw.lower - lower) <= sw.quad_bound, (sw, lower)
    assert abs(sw.upper - upper) <= sw.quad_bound, (sw, upper)


def test_rect_prob_from_chf_gaussian_route():
    # Exact Gaussian chf in, sandwich out; must bracket the closed-form
    # rectangle probability with the 1/delta-scale width.  Off the real axis the
    # Gaussian grows like exp(2 pi^2 b^2) <= exp(2 pi |b| pi delta) for |b| < delta,
    # so its rate is pi delta.
    F = selberg_interval(-1.0, 1.0, 4.0, "majorant")
    rate = 4.0 * math.pi
    calls = []

    def chf(u, v):
        calls.append(u.size)
        return np.exp(-2.0 * np.pi**2 * (u[:, None] ** 2 + v[None, :] ** 2))

    sw = lab.rect_prob_from_chf(chf, F, F, osc_rate_u=rate, osc_rate_v=rate)
    assert calls == [sw.nodes_per_axis]  # one chf grid per sandwich
    P = float((sp.ndtr(1.0) - sp.ndtr(-1.0)) ** 2)
    assert sw.lower <= P <= sw.upper
    assert sw.width <= 0.2
    assert sw.doubling_delta == sw.quad_bound
    _assert_within_bound(sw, chf, F, F)
    with pytest.raises(DomainError):
        lab.rect_prob_from_chf(
            chf, selberg_interval(-1.0, 1.0, 4.0, "minorant"), F)

    # A law at Re z = +-24 grows like exp(2 pi |b| 24) in u, beside the Gaussian's share.
    def chf24(u, v):
        return chf(u, v) * np.cos(48.0 * np.pi * u)[:, None]

    for quad_tol in (2e-5, 1e-10):
        sw = lab.rect_prob_from_chf(chf24, F, F, osc_rate_u=24.0 + rate, osc_rate_v=rate,
                                    quad_tol=quad_tol)
        _assert_within_bound(sw, chf24, F, F, quad_tol)
    # Past 4,096 nodes per axis the bound is out of reach: one line names it,
    # quad_tol/4 and both rates, before any chf grid.
    calls.clear()
    for kwargs, match in (({"osc_rate_u": 1e4}, r"osc_rate_u 10000, osc_rate_v 6\)"),
                          ({"quad_tol": 1e-300}, r"quad_tol/4 = 2\.5e-301 ")):
        with pytest.raises(QuadratureError, match=r"^chf-quadrature bound \S+ at 4096 nodes "
                                                  r"per axis exceeds .*" + match):
            lab.rect_prob_from_chf(chf, F, F, **kwargs)
    assert calls == []
    # A nan tolerance would make the bound's check vacuous.
    for bad in (float("nan"), float("inf"), 0.0, -1e-5):
        with pytest.raises(DomainError):
            lab.rect_prob_from_chf(chf, F, F, quad_tol=bad)
    for name in ("osc_rate_u", "osc_rate_v"):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(DomainError):
                lab.rect_prob_from_chf(chf, F, F, **{name: bad})


def test_rect_prob_from_chf_brackets_direct_count(gauss_20k):
    # The empirical chf is the exact chf of the empirical measure, so the
    # sandwich must bracket the direct count up to quadrature error alone.
    F = selberg_interval(-1.0, 1.0, 4.0, "majorant")

    def chf(u, v):
        return lab.empirical_chf_grid(gauss_20k, u, v)

    sw = lab.rect_prob_from_chf(chf, F, F)
    frac = lab.rectangle_report(gauss_20k, -1.0, 1.0, -1.0, 1.0).empirical_fraction
    assert sw.lower - 2e-5 <= frac <= sw.upper + 2e-5
    assert sw.width <= 0.2
    # Independent oracle: by Fourier inversion the sandwich integrals are
    # sample means of the majorant and minorant products in closed form.
    F_minus = selberg_interval(-1.0, 1.0, 4.0, "minorant")
    z = gauss_20k.ok_samples()
    fp, gp = F(z.real), F(z.imag)
    fm, gm = F_minus(z.real), F_minus(z.imag)
    assert abs(sw.upper - np.mean(fp * gp)) <= 2e-5
    assert abs(sw.lower - np.mean(fm * gp + fp * gm - fp * gp)) <= 2e-5


def test_sandwich_kink_sits_on_a_panel_edge(line_desk):
    # Criterion 9's five rectangles on the desk set, and (-0.5, 0.5, -2, 2), which
    # with (-2, 2, -1, 1) once had an odd number of panels over [-4, 4] on one
    # axis, so that the kink of the majorants' transforms at 0 fell inside a
    # panel (brackets 4-5e-7 off); mirrored panels put 0 on an edge, and each
    # bracket lies within its certified bound of a reference at four times the nodes.
    z = line_desk.ok_samples()

    def chf(u, v):
        return lab.empirical_chf_grid(line_desk, u, v)

    for a, b, c, d in ((-1.0, 1.0, -1.0, 1.0), (0.0, 1.0, 0.0, 1.0), (-2.0, 2.0, -1.0, 1.0),
                       (-1.0, 0.0, 0.0, 2.0), (0.5, 1.5, -0.5, 0.5), (-0.5, 0.5, -2.0, 2.0)):
        F, G = selberg_interval(a, b, 4.0, "majorant"), selberg_interval(c, d, 4.0, "majorant")
        sw = lab.rect_prob_from_chf(chf, F, G, osc_rate_u=float(np.max(np.abs(z.real))),
                                    osc_rate_v=float(np.max(np.abs(z.imag))))
        _assert_within_bound(sw, chf, F, G)


def test_time_average_matches_torus_moments(model_075_300):
    t_grid = np.linspace(0.0, 2000.0, 4096)
    poly = prime_poly(0.75, t_grid, 300.0)
    base = lab.time_vs_torus_moments(poly, model_075_300, 0, 0)
    assert base["time_avg_re"] == 1.0 and base["torus_re"] == 1.0
    first = lab.time_vs_torus_moments(poly, model_075_300, 1, 0)
    assert first["abs_discrepancy"] <= 0.01
    second = lab.time_vs_torus_moments(poly, model_075_300, 1, 1)
    assert abs(second["torus_re"] - 2.0) <= 1e-12
    assert second["abs_discrepancy"] <= 0.05
    assert second["n_samples"] == 4096
    with pytest.raises(DomainError):
        lab.time_vs_torus_moments(poly, model_075_300, 3, 0)
    with pytest.raises(DomainError):
        lab.time_vs_torus_moments(np.zeros(0), model_075_300, 1, 1)


def test_sample_prime_poly_small_case():
    # x = 5: terms 2, 3, 4, 5 with coefficients log 2, log 3, log 2, log 5.
    t = np.array([0.0, 1.7])
    got = prime_poly(1.0, t, 5.0)
    want0 = (math.log(2) / 2 + math.log(3) / 3 + math.log(2) / 4
             + math.log(5) / 5)
    assert abs(got[0] - want0) <= 1e-14
    direct = sum(
        c / n * complex(math.cos(1.7 * math.log(n)), -math.sin(1.7 * math.log(n)))
        for n, c in [(2, math.log(2)), (3, math.log(3)), (4, math.log(2)),
                     (5, math.log(5))]
    )
    assert abs(got[1] - direct) <= 1e-13


def test_samples_csv_text():
    s = lab.synthetic_gaussian_set(5, seed=3)
    flags = s.flags.copy()
    flags[2] = lab.FLAG_NEAR_ZERO
    flags[4] = lab.FLAG_PRECISION
    samples = s.samples.copy()
    samples[2] = np.nan
    flagged = lab.LineSampleSet(context=None, t_values=s.t_values,
                                samples=samples, flags=flags,
                                sampling=s.sampling)
    text = lab.samples_csv_text(flagged)
    lines = text.strip().split("\n")
    assert lines[0] == "t,re,im,flag"
    assert len(lines) == 6
    parts = lines[1].split(",")
    assert float(parts[0]) == 0.0
    assert float(parts[1]) == samples[0].real  # repr round-trips exactly
    excluded = lines[3].split(",")
    assert excluded[1] == "" and excluded[2] == "" and excluded[3] == "1"
    # Byte for byte the element-wise writer.
    want = [f"{float(t)!r},{float(z.real)!r},{float(z.imag)!r},0" if fl == lab.FLAG_OK
            else f"{float(t)!r},,,{int(fl)}" for t, z, fl in zip(s.t_values, samples, flags)]
    assert text == "\n".join(["t,re,im,flag", *want]) + "\n"

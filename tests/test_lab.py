"""Tests for the experiment engine: sample-set bookkeeping, empirical
statistics against the Gaussian limit on synthetic data, the chf-route
rectangle sandwich against direct counting, and line sampling in the
absolutely convergent strip."""

import math

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


def test_chf_grid_matches_pointwise_loop(gauss_20k):
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
        rechunked = lab.empirical_chf_grid(gauss_20k, u, v, chunk=1000)
        assert np.max(np.abs(grid - rechunked)) <= 1e-12
    # The sandwich's quadrature nodes come in exact +/- pairs, so they fold.
    for level in (1, 2):
        u, w = lab._axis_nodes(4.0, 9.3, level)
        assert np.array_equal(u[::-1], -u)
        assert np.array_equal(w[::-1], w)


def _exact_rows_grid(sset, u, v, chunk=4096):
    """The chf grid from cos/sin rows at every distinct |u| and |v|, summed
    chunk by chunk and folded by sign as the grid did before its nodes."""
    z = sset.ok_samples()
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
    # The sandwich's quadrature axes, on the samples and on a copy scaled x5
    # (max |x| about 21, so 5x the nodes): Chebyshev nodes and lifts against
    # the rows at every distinct |u|, on every seventh row and column.
    z0 = gauss_20k.ok_samples()
    lifted = 0
    for scale in (1.0, 5.0):
        sset = lab.LineSampleSet(context=None, t_values=gauss_20k.t_values, samples=scale * z0,
                                 flags=gauss_20k.flags, sampling={})
        x_max = float(np.max(np.abs(sset.ok_samples().real)))
        for delta in (1.0, 4.0):
            for level in (1, 2):
                u, _ = lab._axis_nodes(delta, 6.0, level)
                lifted += lab._chf_nodes(np.unique(np.abs(u)), x_max)[1] is not None
                grid = lab.empirical_chf_grid(sset, u, u)
                some = np.r_[0:u.size:7, u.size - 1]
                want = _exact_rows_grid(sset, u[some], u[some])
                dev = np.max(np.abs(grid[np.ix_(some, some)] - want))
                assert dev <= 4e-15, (scale, delta, level, dev)
                for i, j in ((0, 1), (u.size // 3, u.size - 1), (u.size // 2, u.size // 2)):
                    want = lab.empirical_chf(sset, float(u[i]), float(u[j]))
                    assert abs(grid[i, j] - want) <= 1e-12
    assert lifted >= 6
    # An 11-point axis, as `dist` tabulates, has fewer distinct |u| than nodes:
    # the exact rows, bit for bit.
    axis = np.linspace(-1.0, 1.0, 11)
    assert np.array_equal(lab.empirical_chf_grid(gauss_20k, axis, axis),
                          _exact_rows_grid(gauss_20k, axis, axis))


def test_chf_node_rule_meets_its_tolerance():
    # The rule's node count n, with the interpolant rebuilt in long double so
    # that the interpolation error alone shows (in double, rounding the nodes
    # and phases costs about eps 2 pi A R, as it does the exact rows): cos and
    # sin(2 pi a x) at x = +-R, lifted from n nodes, on a fine a-grid.
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("needs an extended long double")
    ld = np.longdouble
    pi = np.arccos(ld(-1))
    for A, R in ((1.0, 3.4), (4.0, 4.3), (4.0, 21.0), (0.3, 0.5)):
        a = np.linspace(0.0, A, 3000)  # even: no a at the middle node of an odd n
        nodes, lift = lab._chf_nodes(a, R)
        assert lift is not None and nodes.size < 400
        theta = (np.arange(nodes.size) + ld(0.5)) * (pi / nodes.size)
        at = ld(A) * (1 + np.cos(theta)) / 2
        q = (-1.0) ** np.arange(nodes.size) * np.sin(theta) / (a.astype(ld)[:, None] - at)
        for x in (-R, R):
            for f in (np.cos, np.sin):
                err = np.max(np.abs((q @ f(2 * pi * ld(x) * at)) / q.sum(axis=1)
                                    - f(2 * pi * ld(x) * a.astype(ld))))
                assert err <= lab._CHEB_TOL, (A, R, x, f, err)
        # A magnitude that equals a node takes the unit row.
        b = np.sort(np.r_[a, nodes[5]])
        row = lab._chf_nodes(b, R)[1][np.searchsorted(b, nodes[5])]
        assert np.array_equal(row, np.arange(nodes.size) == 5)


def test_chf_grid_rejects_non_finite_axes_and_bad_chunk(gauss_20k):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            lab.empirical_chf_grid(gauss_20k, [0.1, bad], [0.2])
        with pytest.raises(DomainError):
            lab.empirical_chf_grid(gauss_20k, [0.1], [bad])
    for chunk in (0, -4, 2.5):
        with pytest.raises(DomainError):
            lab.empirical_chf_grid(gauss_20k, [0.1], [0.2], chunk=chunk)
    assert lab.empirical_chf_grid(gauss_20k, [], [0.2, 0.3]).shape == (0, 2)


def test_gaussian_chf_closed_form():
    assert lab.gaussian_chf(0.0, 0.0) == 1.0
    u, v = 0.3, -0.4
    want = math.exp(-2.0 * math.pi**2 * (u * u + v * v))
    assert abs(float(lab.gaussian_chf(u, v)) - want) <= 1e-16
    arr = lab.gaussian_chf(np.array([0.0, 0.5]), np.array([0.0, 0.5]))
    assert arr.shape == (2,) and arr[0] == 1.0


def test_chf_deviation_grid(gauss_20k, ctx_desk):
    out = lab.chf_deviation_grid(gauss_20k)
    assert len(out["records"]) == 121
    assert 0.0 < out["sup_abs_dev"] <= 0.04
    assert out["sup_dev_over_envelope"] is None
    assert out["n_ok"] == 20_000
    rec = out["records"][0]
    assert {"u", "v", "re", "im", "gaussian", "abs_dev"} <= set(rec)
    # With a context attached the report carries the theoretical envelope
    # (informational: sample noise dwarfs it at this scale).
    withctx = lab.synthetic_gaussian_set(2000, context=ctx_desk)
    out2 = lab.chf_deviation_grid(withctx)
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


def test_default_chf_axis_is_antisymmetric(ctx_desk):
    # r = Omega of `dist --T 1e5 --psi 15`, where linspace(-r, r, 11) is
    # not exactly antisymmetric: the axis folds to 6 distinct |u|, and the
    # grid is exactly Hermitian.
    out = lab.chf_deviation_grid(lab.synthetic_gaussian_set(2000, context=ctx_desk))
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


def test_second_moment(gauss_100k):
    m2 = lab.second_moment_check(gauss_100k)
    z = gauss_100k.ok_samples()
    assert m2 == float(np.mean(np.abs(z) ** 2))
    assert 1.97 <= m2 <= 2.03


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
    by_dt = lab.sample_line(ctx, t_lo=50.0, t_hi=100.0,
                            sampling={"mode": "grid", "dt": 0.5})
    assert by_dt.n_total == 101
    assert by_dt.t_values[1] - by_dt.t_values[0] == 0.5
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
    with pytest.raises(DomainError):
        lab.sample_line(ctx, sampling={"mode": "hexagonal"})
    with pytest.raises(DomainError):
        lab.sample_line(ctx, t_hi=100.0, sampling={"mode": "grid", "dt": -1.0})
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


def test_rect_prob_from_chf_gaussian_route():
    # Exact Gaussian chf in, sandwich out; must bracket the closed-form
    # rectangle probability with the 1/delta-scale width.
    F = selberg_interval(-1.0, 1.0, 4.0, "majorant")

    def chf(u, v):
        return np.exp(-2.0 * np.pi**2 * (u[:, None] ** 2 + v[None, :] ** 2))

    sw = lab.rect_prob_from_chf(chf, F, F)
    P = float((sp.ndtr(1.0) - sp.ndtr(-1.0)) ** 2)
    assert sw.lower <= P <= sw.upper
    assert sw.width <= 0.2
    assert sw.doubling_delta <= 2e-5
    assert sw.details["lower_coarse"] <= sw.details["upper_coarse"]
    with pytest.raises(DomainError):
        lab.rect_prob_from_chf(
            chf, selberg_interval(-1.0, 1.0, 4.0, "minorant"), F)
    with pytest.raises(QuadratureError):
        lab.rect_prob_from_chf(chf, F, F, quad_tol=1e-16)
    # A nan tolerance would make the doubling check vacuous.
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


def test_write_samples_csv(tmp_path):
    s = lab.synthetic_gaussian_set(5, seed=3)
    flags = s.flags.copy()
    flags[2] = lab.FLAG_NEAR_ZERO
    samples = s.samples.copy()
    samples[2] = np.nan
    flagged = lab.LineSampleSet(context=None, t_values=s.t_values,
                                samples=samples, flags=flags,
                                sampling=s.sampling)
    path = tmp_path / "samples.csv"
    lab.write_samples_csv(flagged, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,re,im,flag"
    assert len(lines) == 6
    parts = lines[1].split(",")
    assert float(parts[0]) == 0.0
    assert float(parts[1]) == samples[0].real  # repr round-trips exactly
    excluded = lines[3].split(",")
    assert excluded[1] == "" and excluded[2] == "" and excluded[3] == "1"

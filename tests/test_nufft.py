"""NufftSum against independent references: mpmath for one unit source at
unwrapped phases, long-double direct sums for dense cells on grids at, near
and far from t = 0, and the same sources reordered or split into batches."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab._nufft import (_BETA, RELATIVE_ACCURACY, TAYLOR_ACCURACY, NufftSum, _es_nodes,
                            _offset, dirichlet_bound, dirichlet_masses, dirichlet_sum,
                            exp_sum_direct, grid_step)
from zetalab.arith import lambda_segments

BOUND = RELATIVE_ACCURACY + TAYLOR_ACCURACY


def _prime_power_sources(sigma=1.0):
    """Frequencies log n and real weights Lambda(n) n^-sigma, n in (1e7, 1.1e7]."""
    (value, logp), = lambda_segments(10**7, 11 * 10**6, segment_size=10**6)
    ell = np.log(value.astype(np.float64))
    return ell, logp * np.exp(-sigma * ell)


def _dense_sources(dt, t0=60.0, sigma=1.0):
    """Phases dt log n and Lambda-like weights for the prime powers in (1e7, 1.1e7]."""
    ell, w = _prime_power_sources(sigma)
    return dt * ell, w * np.exp(-1j * t0 * ell)


def _direct_long_double(ell, w, t):
    """sum_k w_k exp(-i t_j ell_k) in long double, for float64 ell and w."""
    ph = np.outer(np.asarray(t, dtype=np.longdouble), ell.astype(np.longdouble))
    w = np.asarray(w, dtype=np.complex128)
    re, im = w.real.astype(np.longdouble), w.imag.astype(np.longdouble)
    cos, sin = np.cos(ph), np.sin(ph)
    return (cos @ re + sin @ im).astype(np.float64) + 1j * (cos @ im - sin @ re).astype(np.float64)


def _run(n_out, batches):
    """The modes sum_k c_k exp(-i j phi_k), j < n_out: t0 = 0 and dt = 1."""
    acc = NufftSum(0.0, 1.0, n_out)
    for phi, c in batches:
        acc.add(phi, c)
    return acc.finish()


@pytest.mark.parametrize("n_out", [257, 1500, 20000])
def test_unit_source_matches_mpmath(n_out):
    # One source, so nothing cancels: the gridding error shows in full.
    # The phases are unwrapped, up to 800 rad either way.
    rng = np.random.default_rng(n_out)
    modes = [n_out - 1, n_out - 2] + rng.integers(0, n_out, 6).tolist()
    for phi in (-799.3, -3.1, 0.7, 2.0 * math.pi, 123.456, 799.9):
        out = _run(n_out, [(np.array([phi]), np.array([1.0 + 0.0j]))])
        for j in modes:
            with mp.workdps(40):
                want = complex(mp.exp(-1j * j * mp.mpf(phi)))
            assert abs(out[j] - want) <= RELATIVE_ACCURACY, (phi, j)


@pytest.mark.parametrize("n_out", [257, 1001, 1500, 20000])
def test_unit_source_error_is_a_tenth_of_the_bound(n_out):
    # The ES kernel leaves RELATIVE_ACCURACY a factor 10 of room on one unit
    # source, at the band's ends (modes 0 and n_out - 1, the kernel's worst)
    # and either side of its centre jc, for odd and even n_out.
    jc = NufftSum(0.0, 1.0, n_out).jc
    worst = 0.0
    for phi in (-799.3, -3.1, 0.7, 2.0 * math.pi, 123.456, 799.9):
        out = _run(n_out, [(np.array([phi]), np.array([1.0 + 0.0j]))])
        for j in (0, jc - 1, jc, n_out - 1):
            with mp.workdps(40):
                want = complex(mp.exp(-1j * j * mp.mpf(phi)))
            worst = max(worst, abs(out[j] - want))
    assert worst <= RELATIVE_ACCURACY / 10


def test_kernel_transform_matches_mpmath_quad():
    # 2 int_0^1 exp(beta (sqrt(1 - z^2) - 1)) cos(xi z) dz at 0, the middle and
    # both ends of the band k alpha, k = j - jc, j < n_out.
    acc = NufftSum(0.0, 1.0, 1500)
    xi = np.array([0.0, -acc.jc, acc.n_out // 2 - acc.jc, acc.n_out - 1 - acc.jc]) * acc.alpha
    z, wphi = _es_nodes()
    got = np.cos(np.outer(xi, z)) @ wphi
    for x, g in zip(xi, got):
        with mp.workdps(30):
            want = 2 * mp.quad(lambda z: mp.exp(_BETA * (mp.sqrt(1 - z * z) - 1)) * mp.cos(x * z),
                               [0, 0.5, 0.9, 0.99, 1])
        assert abs(g - want) <= 1e-14 * abs(want), x


@pytest.mark.parametrize("n_out", [1, 257, 1500])
def test_stencil_and_grid_size(n_out):
    # The benchmark's tracer reads spread and Mr: one source lands on
    # 2 spread + 1 grid points of a grid of Mr >= 4 n_out, a multiple of 8.
    acc = NufftSum(0.0, 1.0, n_out)
    acc.add(np.array([0.3]), np.array([1.0]))
    assert acc.spread == 6 and acc.Mr % 8 == 0 and acc.Mr >= 4 * n_out
    assert np.count_nonzero(acc._grid) == 2 * acc.spread + 1


@pytest.mark.parametrize("n_out, dt", [(1000, 0.25), (257, 0.9)])
def test_dense_cells_match_long_double(n_out, dt):
    # Near 1e7 consecutive prime powers are ~1e-6 rad apart, so every cell
    # (width 0.2 / max|t_j| = 0.2 / (n_out - 1) here) holds hundreds of sources.
    phi, c = _dense_sources(dt)
    modes = np.arange(n_out - 16, n_out)
    out = _run(n_out, [(phi, c)])
    want = _direct_long_double(phi, c, modes)
    assert np.max(np.abs(out[modes] - want)) <= BOUND * np.sum(np.abs(c))


def test_order_and_batching_agree():
    # Dense cells plus three isolated sources appended out of order (so the
    # add sorts), then the same sources permuted, and split into two batches
    # at an index inside a dense cell.
    phi, c = _dense_sources(0.25)
    phi = np.concatenate([phi, [-7.5, 0.01, 40.0]])
    c = np.concatenate([c, [0.3, -0.2j, 0.1 + 0.1j]])
    total = np.sum(np.abs(c))
    whole = _run(1000, [(phi, c)])
    perm = np.random.default_rng(7).permutation(phi.size)
    cut = phi.size // 3
    for batches in ([(phi[perm], c[perm])], [(phi[:cut], c[:cut]), (phi[cut:], c[cut:])]):
        assert np.max(np.abs(_run(1000, batches) - whole)) <= BOUND * total
    modes = np.arange(1000 - 16, 1000)
    assert np.max(np.abs(whole[modes] - _direct_long_double(phi, c, modes))) <= BOUND * total


@pytest.mark.parametrize("t0, dt, n_out", [
    (0.0, 0.25, 1000),
    (1.0e4, 1.0e-3, 1000),  # far from 0: cells 2e-5 wide in log n, about 12 sources each
    # Cells of one or two sources: each centre's twist rounds t0 c unless
    # it takes t0 c exactly (1.84 of the bound with a plain product, 0.68 exact).
    (1.0e5, 1.0e-2, 1000),
    (-300.0, 0.6, 1000),  # the grid crosses 0; max|t_j| sits at t0
    (7.0, 0.0, 16),  # dt = 0: every t_j is t0
    (0.0, 0.0, 16),  # max|t_j| = 0: one cell per unit of log n
])
def test_real_weights_on_a_grid_match_long_double(t0, dt, n_out):
    # The sum form: real weights Lambda(n) n^-1 at frequencies log n; the
    # twist exp(-i t0 log n) is taken inside add, at cell centres for dense cells.
    ell, w = _prime_power_sources()
    acc = NufftSum(t0, dt, n_out)
    acc.add(ell, w)
    out = acc.finish()
    modes = np.unique(np.r_[np.arange(8), np.arange(n_out - 8, n_out)])
    t = np.longdouble(t0) + np.longdouble(dt) * modes.astype(np.longdouble)
    assert np.max(np.abs(out[modes] - _direct_long_double(ell, w, t))) <= BOUND * np.sum(w)


@pytest.mark.parametrize("budget, orders", [(1e-4, 3), (1e-6, 4), (1e-9, 6), (1e-13, 8)])
def test_budgeted_add_within_its_budget(budget, orders):
    # The scan's t range over (1e7, 1.1e7]: the fewest Taylor orders whose
    # remainder fits the budget, and an error of at most the budget plus the
    # NUFFT certificate against the direct sum.
    ell, w = _prime_power_sources()
    t = 50.0 + 0.25 * np.arange(1000)  # exact in binary, so t_j = t0 + j dt in both sums
    acc = NufftSum(50.0, 0.25, t.size)
    acc.add(ell, w, tol=budget)
    assert acc._grid.shape[0] == orders and 0.0 < acc.taylor_bound <= budget
    modes = np.unique(np.r_[np.arange(8), np.arange(t.size - 8, t.size)])
    err = np.max(np.abs(acc.finish()[modes] - exp_sum_direct(ell, w, t[modes])))
    assert err <= budget + RELATIVE_ACCURACY * np.sum(w)


@pytest.mark.parametrize("lone", [0, 400])
def test_budgeted_add_within_dirichlet_bound(lone):
    # The scan's density (t up to 300, prime powers near 1e7): every cell
    # dense, then the same stream with lone sources beside it (log n for n <
    # 400, each alone in its cell). The NUFFT, spending a 1e-9 budget, stays
    # within dirichlet_bound of the direct sum at every t.
    ell, w = _prime_power_sources()
    small = np.log(np.arange(2.0, 2.0 + lone))
    ell, w = np.concatenate((small, ell)), np.concatenate((np.full(lone, 1e-4), w))
    t = np.linspace(50.0, 300.0, 1000)
    acc = NufftSum(*grid_step(t), t.size, shape=(1,))
    acc.add(ell, w[None], tol=1e-9)
    assert 0.0 < acc.taylor_bound <= 1e-9 and acc._grid.shape[0] == 6
    bound = dirichlet_bound(t, dirichlet_masses([(ell, w[None])]), acc.taylor_bound)[0]
    err = np.abs(acc.finish()[0] - exp_sum_direct(ell, w, t))
    assert np.all(err <= bound)


def test_budgeted_add_is_sharp_at_a_cell_edge():
    # Two unit sources near the top edge of one cell reach |t_j delta| = 0.0996
    # at the last mode: the error there nearly attains the remainder bound
    # spent, so the orders kept are the fewest that fit.
    width = 0.2 / 999
    ell = (7.0 + np.array([0.998, 0.999])) * width
    for budget, orders in ((1e-3, 3), (1e-6, 5), (1e-9, 7)):
        acc = NufftSum(0.0, 1.0, 1000)
        acc.add(ell, np.ones(2), tol=budget)
        err = abs(acc.finish()[-1] - exp_sum_direct(ell, np.ones(2), np.array([999.0]))[0])
        assert acc._grid.shape[0] == orders
        assert 0.9 * acc.taylor_bound <= err <= acc.taylor_bound + 2 * RELATIVE_ACCURACY <= budget


def test_add_without_budget_keeps_nine_orders_in_default_cells():
    # tol=None keeps nine orders in cells 0.2 / max|t_j| wide: bit for bit the
    # budgeted add whose budget just admits nine orders, and the one whose
    # budget nine orders do not fit. All three charge the nine-order remainder.
    ell, w = _prime_power_sources()
    nine = 0.1**9 / math.factorial(9) * np.sum(w)
    plain = NufftSum(50.0, 0.25, 1000)
    plain.add(ell, w)
    assert plain._grid.shape[0] == 9
    assert plain.taylor_bound == pytest.approx(nine, rel=1e-12)
    for budget in (1.01 * nine, 0.5 * nine):
        budgeted = NufftSum(50.0, 0.25, 1000)
        budgeted.add(ell, w, tol=budget)
        assert budgeted._grid.shape[0] == 9
        assert np.array_equal(plain.finish(), budgeted.finish())
        assert budgeted.taylor_bound == pytest.approx(nine, rel=1e-12)
    with pytest.raises(ValueError):
        plain.add(ell, w, tol=0.0)


@settings(max_examples=200, deadline=None)
@given(t_lo=st.floats(0.0, 1e7 - 1.0), frac=st.floats(0.0, 1.0), n=st.integers(16, 30_000),
       seed=st.integers(0, 2**32 - 1))
def test_grid_step_accepts_sample_line_grids_and_rejects_random_t(t_lo, frac, n, seed):
    # The t that lab.sample_line builds for a count, for a spacing dt, and
    # for random mode, on [t_lo, t_hi] below the height cap 1e7, spans >= 1.
    t_hi = t_lo + 1.0 + frac * (1e7 - 1.0 - t_lo)
    by_count = np.linspace(t_lo, t_hi, n)
    dt = (t_hi - t_lo) / (n - 1)
    by_dt = t_lo + dt * np.arange(int(math.floor((t_hi - t_lo) / dt)) + 1)
    for t in (by_count, by_dt):  # by_dt may come out one point short of n
        want = (t[0], (t[-1] - t[0]) / (t.size - 1)) if t.size >= 16 else None
        assert grid_step(t) == want
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    assert grid_step(np.sort(t_lo + (t_hi - t_lo) * rng.random(n))) is None


# An inexact linspace near t = 1e5 and its four points farthest off t0 + j dt.
LINE = np.linspace(1e5, 1e5 + 250.0, 1000)
FAR = np.sort(np.argsort(-np.abs(_offset(LINE, grid_step(LINE))))[:4])


def _row_blocks(ell, w0, R):
    """The blocks (ell, rows w0 ell^r, r < R), in two batches."""
    rows, cut = np.multiply.accumulate([w0] + [ell] * (R - 1)), ell.size // 3
    return [(ell[:cut], rows[:, :cut]), (ell[cut:], rows[:, cut:])]


def _mp_rows(ell, w0, R, t):
    """sum_k w0_k ell_k^r exp(-i t_j ell_k), r < R, in 30 digits at the float ell, w0 and t."""
    with mp.workdps(30):
        terms = [(mp.mpf(float(a)), mp.mpf(float(b))) for a, b in zip(ell, w0)]
        return np.array([[complex(mp.fsum(b * a**r * mp.expj(-mp.mpf(float(tj)) * a)
                                          for a, b in terms)) for tj in t] for r in range(R)])


@pytest.mark.parametrize("R", [3, 1])
def test_dirichlet_sum_moves_grid_rows_to_the_exact_t(R):
    # Frequencies 2^-4..2^3 make t ell, t0 ell and dt ell exact, so no rounding
    # of a phase hides in the comparison: the rows, at points where delta is
    # about 7e-12, are within their bounds on both routes, and the last row
    # misses the grid point's value by more than its NUFFT certificate, so its
    # |delta| B_R charge is needed.
    ell, w0 = 2.0 ** np.arange(-4.0, 4.0), np.linspace(1.0, 2.0, 8)
    want, B = _mp_rows(ell, w0, R, LINE[FAR]), dirichlet_masses(_row_blocks(ell, w0, R))
    grid, grid_bound = (a[:, FAR] for a in dirichlet_sum(_row_blocks(ell, w0, R), LINE))
    direct, direct_bound = dirichlet_sum(_row_blocks(ell, w0, R), LINE[FAR])
    assert np.all(np.abs(_offset(LINE, grid_step(LINE))[FAR]) > 5e-12)
    assert np.all(np.abs(grid - want) <= grid_bound)
    assert np.all(np.abs(direct - want) <= direct_bound)
    assert np.max(np.abs(grid[-1] - want[-1])) > 10 * RELATIVE_ACCURACY * B[-2]


@pytest.mark.parametrize("R", [3, 1])
def test_dirichlet_sum_of_log_rows_against_mpmath(R):
    # Rows n^-0.6 log^r n, n < 1000. Near t = 1e5 the double phases t log n
    # err by up to eps |t| log n per term, which no returned bound covers yet:
    # the comparison allows eps max|t| B_{r+1} beside the bound.
    ell = np.log(np.arange(1.0, 1000.0))
    w0 = np.exp(-0.6 * ell)
    want, B = _mp_rows(ell, w0, R, LINE[FAR]), dirichlet_masses(_row_blocks(ell, w0, R))
    rounding = np.finfo(float).eps * LINE[-1] * B[1:, None]
    for t, cols in ((LINE, FAR), (LINE[FAR], slice(None))):
        S, bound = dirichlet_sum(_row_blocks(ell, w0, R), t)
        assert np.all(np.abs(S[:, cols] - want) <= bound[:, cols] + rounding)


def test_dirichlet_sum_of_an_empty_stream_is_zero():
    for t in (LINE, LINE[FAR]):
        S, bound = dirichlet_sum(iter([]), t)
        assert S.shape == bound.shape == (1, t.size) and not S.any() and not bound.any()

"""Tests for the smoothing weight, the local threshold, the prime-power
Dirichlet polynomial (against an arbitrary-precision oracle and against
direct sums over the prime-power table on both evaluation routes), and
explicit-formula residual scans."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab._nufft import RELATIVE_ACCURACY, TAYLOR_ACCURACY, exp_sum_direct, grid_step
from zetalab.arith import lambda_segments, prime_powers_up_to
from zetalab.errors import CoverageError, DomainError
from zetalab.selberg import (
    ScanResult,
    _TAIL_STEP,
    SelbergWeightSpec,
    _poly_sum,
    _psi_floor,
    _quantiles,
    _tail_cut,
    convergent_tail_bound,
    explicit_formula_scan,
    prime_poly,
    sigma_xt,
    weight_branch_gaps,
    weight_w,
)
from zetalab.zeta import find_zero_ordinates, make_zero_list


def _table_sum(sigma, x, t, weighted):
    """Direct sum over the materialized prime-power table (to x^3 if weighted)."""
    table = prime_powers_up_to(x**3 if weighted else x)
    v = table.value.astype(np.float64)
    amp = weight_w(v, SelbergWeightSpec(x=x)) if weighted else 1.0
    return exp_sum_direct(np.log(v), amp * table.log_prime * v**-sigma, t)


def _weight_oracle(n, x):
    """Branch formulas evaluated in 50-digit arithmetic."""
    with mp.workdps(50):
        L = mp.log(x)
        ell = mp.log(n)
        if ell <= L:
            return mp.mpf(1)
        if ell <= 2 * L:
            return ((3 * L - ell) ** 2 - 2 * (2 * L - ell) ** 2) / (2 * L * L)
        if ell <= 3 * L:
            return (3 * L - ell) ** 2 / (2 * L * L)
        return mp.mpf(0)


def _primes_upto(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def test_weight_matches_oracle_on_log_grid():
    spec = SelbergWeightSpec(x=100.0)
    # Sample points spread across all four branches, including irrational
    # positions relative to the breakpoints.
    pts = [3.0, 99.0, 100.0, 101.0, 316.0, 1000.0 * math.e, 9999.0,
           10000.0, 10001.0, 10**2.5, 999999.0, 10**6, 10**6 + 1.0, 1e9]
    for n in pts:
        got = weight_w(n, spec)
        want = float(_weight_oracle(n, 100.0))
        assert abs(got - want) <= 1e-13, n


def test_weight_pinned_interior_values():
    spec = SelbergWeightSpec(x=100.0)
    # Closed forms at n = x^{3/2} and n = x^{5/2}: 7/8 and 1/8.
    assert abs(weight_w(10.0**3, spec) - 0.875) <= 1e-13
    assert abs(weight_w(10.0**5, spec) - 0.125) <= 1e-13
    # Breakpoint values 1, 1/2, 0.
    assert weight_w(100.0, spec) == 1.0
    # n = x gives exactly 1 also where math.log(x) and np.log(x) differ in the last bit.
    for x in (9170.0, 19143.0, 94869.0):
        assert weight_w(x, SelbergWeightSpec(x=x)) == 1.0
    assert abs(weight_w(10.0**4, spec) - 0.5) <= 1e-13
    assert weight_w(10.0**6 + 1e-3, spec) <= 1e-12


def test_weight_in_unit_interval_on_prime_powers():
    # x = 100 fits in the table; x = 1000 reaches 1e9 and must stream.
    from zetalab.arith import lambda_segments, prime_powers_up_to

    spec = SelbergWeightSpec(x=100.0)
    table = prime_powers_up_to(100.0**3)
    w = weight_w(table.value.astype(np.float64), spec)
    assert np.all((w >= 0.0) & (w <= 1.0))

    spec = SelbergWeightSpec(x=1000.0)
    for value, _ in lambda_segments(1, 1000.0**3):
        w = weight_w(value.astype(np.float64), spec)
        assert np.all((w >= 0.0) & (w <= 1.0))


def test_weight_branch_gaps_normalized_are_rounding_level():
    for x in (100.0, 1000.0, 12345.0):
        gaps = weight_branch_gaps(x)
        assert gaps["at_x"] <= 1e-12
        assert gaps["at_x2"] <= 1e-12
        assert gaps["at_x3"] <= 1e-12


def test_weight_domain_errors():
    with pytest.raises(DomainError):
        SelbergWeightSpec(x=9.0)
    spec = SelbergWeightSpec(x=50.0)
    with pytest.raises(DomainError):
        weight_w(0.5, spec)


@settings(max_examples=60, deadline=None)
@given(
    n1=st.floats(min_value=1.0, max_value=1e9),
    n2=st.floats(min_value=1.0, max_value=1e9),
)
def test_weight_is_nonincreasing_and_bounded(n1, n2):
    spec = SelbergWeightSpec(x=200.0)
    lo, hi = sorted((n1, n2))
    w_lo = weight_w(lo, spec)
    w_hi = weight_w(hi, spec)
    assert 0.0 <= w_hi <= w_lo + 1e-12
    assert w_lo <= 1.0


def test_sigma_xt_floor_without_qualifying_zeros():
    x = 1000.0
    L = math.log(x)
    # On-line zeros never push the threshold above its floor 1/2 + 4/log x.
    zeros = make_zero_list([(0.5, float(g)) for g in range(2, 120)],
                           coverage=150.0)
    got = sigma_xt(x, 60.0, zeros)
    assert abs(got - (0.5 + 4.0 / L)) <= 1e-15
    empty = make_zero_list([], coverage=100.0)
    assert abs(sigma_xt(x, 50.0, empty) - (0.5 + 4.0 / L)) <= 1e-15


def test_sigma_xt_window_edge_is_sharp():
    x = 1000.0
    L = math.log(x)
    win = x ** 0.9 / L  # qualifying radius of a beta = 0.8 zero
    zeros = make_zero_list([(0.8, 50.0)], coverage=250.0)
    inside = sigma_xt(x, 50.0 + 0.999 * win, zeros)
    outside = sigma_xt(x, 50.0 + 1.001 * win, zeros)
    assert abs(inside - 1.1) <= 1e-12
    assert abs(outside - (0.5 + 4.0 / L)) <= 1e-15
    # The reflected ordinate -gamma qualifies through |t + gamma|.
    conj = sigma_xt(x, win - 50.0 - 0.1, zeros)
    assert abs(conj - 1.1) <= 1e-12


def test_sigma_xt_gates():
    zeros = make_zero_list([(0.8, 50.0)], coverage=100.0)
    # Coverage must reach t plus the widest window (about 72.6 here).
    with pytest.raises(CoverageError):
        sigma_xt(1000.0, 50.0, zeros)
    with pytest.raises(DomainError):
        sigma_xt(1.5, 10.0, zeros)
    with pytest.raises(DomainError):
        sigma_xt(1000.0, -3.0, zeros)
    # Arrays are gated as a whole.
    with pytest.raises(DomainError):
        sigma_xt(1000.0, np.array([5.0, 0.0, 10.0]), zeros)
    wide = make_zero_list([(0.8, 50.0)], coverage=250.0)
    with pytest.raises(CoverageError):
        sigma_xt(1000.0, np.array([5.0, 150.0, 180.0]), wide)


def test_threshold_exceedance_measure_matches_window_geometry():
    # One off-line zero among on-line ones: the set of t where the threshold
    # exceeds its floor is exactly that zero's qualifying window. At this
    # scale the window covers about 7% of [1000, 2000]; the far-zero bound
    # for such exceedances is vacuous here, so the sharp geometric statement
    # is the one worth checking.
    x = 1000.0
    L = math.log(x)
    floor = 0.5 + 4.0 / L
    pairs = [(0.5, float(g)) for g in range(2, 2001) if g != 997]
    pairs.append((0.8, 997.0))
    zeros = make_zero_list(pairs, coverage=2100.0)
    win = x ** 0.9 / L
    t_grid = np.arange(1000.0, 2000.0 + 1e-9, 0.25)
    pointwise = np.array([sigma_xt(x, float(t), zeros) for t in t_grid])
    assert type(sigma_xt(x, 1500.0, zeros)) is float
    # The array call gives the scalar calls' thresholds bit for bit.
    assert np.array_equal(sigma_xt(x, t_grid, zeros), pointwise)
    exceed = pointwise > floor + 1e-12
    measured = np.count_nonzero(exceed) * 0.25
    expected = (997.0 + win) - 1000.0  # window clipped to the range
    assert abs(measured - expected) <= 0.5
    assert measured / 1000.0 < 0.08


def test_weighted_poly_matches_mp_oracle():
    x = 30.0
    s = 1.5 + 7.0j
    got = prime_poly(s.real, s.imag, x, weighted=True)

    with mp.workdps(30):
        acc = mp.mpc(0)
        ms = mp.mpc(s.real, s.imag)
        for p in _primes_upto(int(x**3)):
            logp = mp.log(int(p))
            pk = int(p)
            while pk <= x**3:
                w = _weight_oracle(pk, x)
                acc += w * logp * mp.exp(-ms * mp.log(pk))
                pk *= int(p)
        want = complex(acc)
    assert abs(got - want) <= 5e-13


def test_plain_poly_small_cases():
    # By hand: primes 2, 3, 5, 7 and powers 4, 8, 9 up to 10.
    s = 2.0 + 0.0j
    want = (
        math.log(2) * (1 / 4 + 1 / 16 + 1 / 64)
        + math.log(3) * (1 / 9 + 1 / 81)
        + math.log(5) / 25
        + math.log(7) / 49
    )
    got = prime_poly(s.real, s.imag, 10.0)
    assert abs(got - want) <= 1e-14
    assert prime_poly(s.real, s.imag, 1.5) == 0.0


def test_grid_poly_nufft_route_matches_scalar_route():
    # Equispaced grids take the NUFFT path over streamed sieve segments;
    # the reference sums the materialized table directly.
    sigma, x = 1.2, 50.0
    t = np.linspace(10.0, 20.0, 64)
    grid = prime_poly(sigma, t, x, weighted=True)
    direct = _table_sum(sigma, x, t, weighted=True)
    assert np.max(np.abs(grid - direct)) <= 1e-8


def test_grid_poly_direct_route_matches_scalar_route():
    # Short non-equispaced grids fall back to direct summation.
    sigma, x = 1.2, 50.0
    t = np.array([3.0, 4.5, 7.1, 12.9, 13.0, 29.7])
    grid = prime_poly(sigma, t, x, weighted=True)
    direct = _table_sum(sigma, x, t, weighted=True)
    assert np.max(np.abs(grid - direct)) <= 1e-11


def test_grid_poly_drifted_grid_takes_direct_route():
    # Steps after the first stretched by 9e-10 (relative): not equispaced,
    # so no NUFFT evaluation at t0 + j dt; linspace grids still take it.
    sigma, x = 1.2, 50.0
    steps = np.diff(np.linspace(50.0, 300.0, 1000))
    steps[1:] *= 1.0 + 9e-10
    t = np.concatenate([[50.0], 50.0 + np.cumsum(steps)])
    assert grid_step(t) is None
    want = _table_sum(sigma, x, t, weighted=True)
    assert np.max(np.abs(prime_poly(sigma, t, x, weighted=True) - want)) <= 1e-12
    # The plain sum to x = 300 takes the same two routes.
    want = _table_sum(sigma, 300.0, t, weighted=False)
    assert np.max(np.abs(prime_poly(sigma, t, 300.0) - want)) <= 1e-12
    grid = np.linspace(0.0, 2000.0, 4096)
    sum_abs = _table_sum(sigma, 300.0, np.zeros(1), False)[0].real  # every c > 0
    err = np.max(np.abs(prime_poly(sigma, grid, 300.0) - _table_sum(sigma, 300.0, grid, False)))
    assert err <= (RELATIVE_ACCURACY + TAYLOR_ACCURACY) * sum_abs
    for a, b, n in ((50.0, 300.0, 1000), (50.0, 1e5, 1500), (1e4, 1e4 + 300.0, 1000),
                    (50.0, 1000.0, 1000), (50.0, 4e5, 20000), (0.0, 2000.0, 4096)):
        assert grid_step(np.linspace(a, b, n)) is not None


def test_grid_poly_degenerate_grids():
    # grid_step accepts a constant t with dt = 0, and all-zero t has
    # max|t_j| = 0, where NufftSum's cells stop narrowing (one unit of log n).
    for t in (np.zeros(16), np.full(16, 7.0)):
        assert grid_step(t) == (t[0], 0.0)
        for weighted in (False, True):
            want = _table_sum(1.5, 50.0, t, weighted)
            assert np.max(np.abs(prime_poly(1.5, t, 50.0, weighted) - want)) <= 1e-12


def test_prime_poly_rejects_non_finite_input():
    for sigma, t in ((math.nan, 1.0), (math.inf, 1.0), (2.0, [1.0, math.inf]),
                     (2.0, np.append(np.linspace(1.0, 2.0, 31), math.nan))):
        with pytest.raises(DomainError):
            prime_poly(sigma, t, 50.0)
    for tol in (-1e-9, math.nan, math.inf):
        with pytest.raises(DomainError):
            _poly_sum(2.0, np.ones(1), 50.0, True, tol)


@pytest.mark.parametrize("sigma, x", [(2.0, 100.0), (1.5, 50.0), (1.2, 30.0)])
def test_tail_cut_bounds_the_measured_tail(sigma, x):
    # Each cut's bound fits its budget and dominates the tail it drops,
    # sum_{y < n <= x^3} Lambda(n) w_x(n) n^-sigma.
    top = x**3
    table = prime_powers_up_to(top)
    v = table.value.astype(np.float64)
    c = weight_w(v, SelbergWeightSpec(x=x)) * table.log_prime * v**-sigma
    whole = _tail_cut(sigma, x, math.inf)[1]
    cuts = set()
    for frac in (1e-1, 1e-2, 1e-3, 1e-4):
        y, bound = _tail_cut(sigma, x, frac * whole)
        assert 1.0 < y < top and bound <= frac * whole
        tail = math.fsum(c[v > y])
        assert tail <= bound
        # From y = 563 on, psi(y) is charged at y (1 - 1/(2 log y)): within 2x of the tail.
        assert y < 563 or bound <= 2.0 * tail
        cuts.add(y)
    assert len(cuts) == 4
    # No cut without a budget, or for sigma < 0, where n^-sigma grows.
    assert _tail_cut(sigma, x, 0.0) == (top, 0.0)
    assert _tail_cut(-0.5, x, 1.0) == (top, 0.0)


def test_psi_floor_holds_on_the_tail_nodes():
    # The exact psi, from the streamed log p, is at least the floor _tail_cut
    # charges at every node y = e^{k h} in [41, 6.4e7], the scan benchmark's range.
    top = 6.4e7
    u = np.exp(np.arange(0.0, math.log(top), _TAIL_STEP))
    u = u[u >= 41.0]
    psi = np.zeros_like(u)
    for value, logp in lambda_segments(1, top):
        psi += np.append(0.0, np.cumsum(logp))[np.searchsorted(value, u, side="right")]
    floor = _psi_floor(u)
    assert np.all(floor > 0.0) and np.all(psi >= floor)
    assert np.all(_psi_floor(np.array([1.0, 2.0, 40.9])) == 0.0)


@pytest.mark.parametrize("sigma, x, t, tol", [
    (2.0, 400.0, np.linspace(50.0, 300.0, 1000), 1e-9),  # the scan benchmark's grid
    (1.2, 50.0, np.linspace(10.0, 20.0, 64), 1e-4),
    (1.2, 50.0, np.array([3.0, 4.5, 7.1, 12.9, 13.0, 29.7]), 1e-4),  # direct route
])
def test_budgeted_poly_within_a_quarter_of_tol(sigma, x, t, tol):
    full = prime_poly(sigma, t, x, weighted=True)
    cut, y, bound = _poly_sum(sigma, t, x, True, tol)
    assert y < x**3
    if (sigma, x, tol) == (2.0, 400.0, 1e-9):
        assert y <= 2.8e7  # the scan benchmark's cut
    assert np.max(np.abs(cut - full)) <= min(tol / 4, bound)
    assert bound <= tol / 4 + RELATIVE_ACCURACY * _table_sum(sigma, x, np.zeros(1), True)[0].real


def test_scan_in_convergent_region():
    zeros = find_zero_ordinates(62.0)
    t = np.linspace(30.0, 60.0, 200)
    res = explicit_formula_scan(2.0, 100.0, t, zeros)
    assert isinstance(res, ScanResult)
    assert res.summary["n_ok"] == 200
    assert res.summary["n_flagged_sigma_gate"] == 0
    assert res.summary["n_flagged_near_zero"] == 0
    ctb = convergent_tail_bound(2.0, 100.0)
    assert res.summary["convergent_tail_bound"] == ctb
    assert res.summary["max_abs_residual"] <= 10.0 * ctb
    assert res.summary["ratio_max"] <= 1.0
    assert np.all(np.isfinite(res.residual))


def test_scan_reports_the_poly_budget_it_spent():
    # The scan cuts its polynomial at poly_terms_to < x^3 and reports a bound
    # that covers the move from the full sum and stays near tol/4.
    zeros = find_zero_ordinates(62.0)
    t = np.linspace(30.0, 60.0, 200)
    res = explicit_formula_scan(2.0, 100.0, t, zeros, tol=1e-9)
    y, bound = res.summary["poly_terms_to"], res.summary["poly_error_bound"]
    assert 1e5 < y < 1e6 and 1e-12 < bound <= 1e-9 / 4 + 1e-12
    assert np.max(np.abs(res.poly - prime_poly(2.0, t, 100.0, weighted=True))) <= bound


def test_scan_flags_points_below_threshold():
    zeros = find_zero_ordinates(62.0)
    t = np.linspace(30.0, 60.0, 64)
    # Threshold floor at x = 100 is 1/2 + 4/log 100, about 1.37.
    res = explicit_formula_scan(0.9, 100.0, t, zeros)
    assert res.summary["n_flagged_sigma_gate"] == 64
    assert res.summary["n_ok"] == 0
    assert np.all(np.isnan(res.residual.real))
    assert res.summary["ratio_max"] is None


def test_scan_input_gates():
    zeros = find_zero_ordinates(40.0)
    with pytest.raises(CoverageError):
        explicit_formula_scan(2.0, 100.0, np.linspace(30.0, 90.0, 32), zeros)
    with pytest.raises(DomainError):
        explicit_formula_scan(2.0, 100.0, np.array([3.0, 2.0, 5.0]), zeros)
    with pytest.raises(DomainError):
        explicit_formula_scan(2.0, 100.0, np.array([-1.0, 2.0]), zeros)
    with pytest.raises(DomainError):
        explicit_formula_scan(2.0, 100.0, np.zeros((2, 2)), zeros)


def test_convergent_tail_bound_actually_bounds():
    from zetalab.arith import lambda_segments

    for sigma, x in ((2.0, 100.0), (1.5, 300.0)):
        tail = 0.0
        for value, logp in lambda_segments(x, 10_000_000.0):
            tail += float(np.sum(logp * value.astype(np.float64) ** -sigma))
        assert tail <= convergent_tail_bound(sigma, x)
    with pytest.raises(DomainError):
        convergent_tail_bound(1.0, 100.0)


def test_quantiles_match_numpy_bit_for_bit():
    # One sort and numpy's linear rule: n in {1, 2, 3}, indices (n - 1) q that
    # are integral (q = 0.5 at n = 3 and 1001, q = 0.9 and 0.99 at n = 101),
    # ties, and a NaN, which numpy's quantile returns at every q.
    rng = np.random.default_rng(7)
    qs = (0.0, 0.5, 0.9, 0.99, 1.0, 0.25, 0.7)
    cases = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
             for n in (1, 2, 3, 4, 5, 10, 101, 999, 1000, 1001) for _ in range(20)]
    cases += [np.round(rng.standard_normal(50), 1), np.full(7, 0.3), np.array([2.0, 1.0, 2.0, 1.0])]
    cases += [rng.exponential(size=n) for n in range(1, 40)]
    for v in cases:
        got = _quantiles(v, qs)
        want = [float(np.quantile(v, q)) for q in qs]
        assert [g.hex() for g in got] == [w.hex() for w in want], v
    for n in (1, 2, 3, 50):
        v = rng.random(n)
        v[rng.integers(n)] = np.nan
        assert all(math.isnan(g) for g in _quantiles(v, qs))

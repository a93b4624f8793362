"""Zeta engine: values, derivatives, Hardy Z, zero location.

Reference values come from mpmath (tests only; the engine itself never
imports it) either live on small grids or as pinned 40-digit constants.
"""

import math
import re
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import zeta as zt
from zetalab._nufft import RELATIVE_ACCURACY, NufftSum, exp_sum_direct
from zetalab.errors import (
    CoverageError,
    DomainError,
    NearZeroError,
    PoleError,
    PrecisionError,
)

mp.mp.dps = 30

GAMMA_1 = 14.134725141734693790
GAMMA_2 = 21.022039638771554993
GAMMA_3 = 25.010857580145688764
SIGMA_1E5 = 0.5 + 15.0 / (2.0 * math.log(1.0e5))  # the desk line at T = 1e5, psi = 15


def test_zeta_pinned_values():
    assert abs(zt.zeta(2.0) - 1.6449340668482264365) <= 1e-13
    assert abs(zt.zeta(0.0) - (-0.5)) <= 1e-13
    assert abs(zt.zeta(0.5) - (-1.4603545088095868129)) <= 1e-13
    # Deep left of the strip the Euler-Maclaurin sum cancels ~N^{1+|sigma|}
    # ulps, so only looser tolerances are certifiable there.
    assert abs(zt.zeta(-2.5, tol=1e-7) - 0.0085169287778503305) <= 1e-7
    assert abs(zt.zeta(complex(0.75, 5.0))
               - complex(0.7322122488042882922, 0.2037932027641261802)) <= 1e-12


def test_zeta_against_mpmath_grid():
    rng = np.random.default_rng(7)
    sigmas = rng.uniform(-1.0, 3.0, size=25)
    ts = rng.uniform(-40.0, 40.0, size=25)
    for sig, t in zip(sigmas, ts):
        s = complex(sig, t)
        want = complex(mp.zeta(mp.mpc(sig, t)))
        got = zt.zeta(s, tol=1e-9)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_zeta_derivatives_against_mpmath():
    pts = [2.0, complex(1.5, 3.0), complex(0.6, 12.0), complex(1.1, 7.0)]
    for s in pts:
        d1 = complex(mp.zeta(mp.mpc(s), derivative=1))
        d2 = complex(mp.zeta(mp.mpc(s), derivative=2))
        assert abs(zt.zeta_prime(s) - d1) <= 1e-10 * max(1.0, abs(d1))
        assert abs(zt.zeta_second(s) - d2) <= 1e-9 * max(1.0, abs(d2))
    assert abs(zt.zeta_prime(2.0) - (-0.93754825431584375370)) <= 1e-13


def test_zeta_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = complex(rng.uniform(-1.0, 2.5), rng.uniform(0.1, 60.0))
        assert abs(zt.zeta(np.conj(s), tol=1e-10) - np.conj(zt.zeta(s, tol=1e-10))) <= 1e-13


def test_log_deriv_pinned():
    assert abs(zt.log_deriv(2.0) - (-0.56996099309453280640)) <= 1e-12
    assert abs(zt.log_deriv(1.5) - (-1.5052353557882679194)) <= 1e-12


def test_log_deriv_against_mpmath():
    for s in [complex(0.8, 20.0), complex(1.2, 100.0), complex(0.55, 33.3)]:
        want = complex(mp.zeta(mp.mpc(s), derivative=1) / mp.zeta(mp.mpc(s)))
        assert abs(zt.log_deriv(s) - want) <= 1e-9 * max(1.0, abs(want))


def test_pole_and_domain_errors():
    with pytest.raises(PoleError):
        zt.zeta(1.0)
    with pytest.raises(DomainError):
        zt.zeta(complex(-4.5, 1.0))
    with pytest.raises(PrecisionError):
        zt.zeta(complex(0.6, 2.0e7))
    with pytest.raises(DomainError):
        zt.zeta(2.0, tol=0.0)


def test_line_evaluators_refuse_the_pole_and_non_finite_input():
    # Raised by _truncation, before any sum: no NaN comes back with flag 0.
    with pytest.raises(PoleError):
        zt.log_deriv_band(1.0, [0.0])
    with pytest.raises(PoleError):
        zt.log_deriv_band(1.0, np.linspace(-299.0, 0.0, 300))  # in the second block
    with pytest.raises(PoleError):
        zt.log_deriv_band(1.0, np.linspace(-1.0, 1.0, 3))
    # A grid long enough for the NUFFT route (N > BAND): t[1000] == 0.0.
    grid = np.linspace(-2000.0, 2000.0, 2001)
    assert grid[1000] == 0.0
    with pytest.raises(PoleError):
        zt.log_deriv_band(1.0, grid)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            zt.log_deriv_band(0.7, [50.0, bad])
        with pytest.raises(DomainError, match="finite"):
            zt._truncation(0.7, np.array([bad]), 1e-9, 1)
    for bad in (math.nan, math.inf):  # sigma = -inf fails the range checks first
        with pytest.raises(DomainError, match="sigma must be finite"):
            zt.log_deriv_band(bad, [50.0])
        with pytest.raises(DomainError, match="sigma must be finite"):
            zt.log_deriv_band(bad, np.linspace(50.0, 60.0, 3))
        with pytest.raises(DomainError, match="sigma must be finite"):
            zt.log_deriv_band(bad, np.linspace(2000.0, 2100.0, 300))
        with pytest.raises(DomainError, match="sigma must be finite"):
            zt.zeta(complex(bad, 3.0))


def test_euler_maclaurin_table():
    # B_2k/(2k)! for k = 1..15 within 1 ulp; Stirling's five entries as they
    # were before the table grew, so theta is unchanged bit for bit.
    assert len(zt._EM_COEFF) == 15
    for k, c in enumerate(zt._EM_COEFF, start=1):
        want = mp.bernoulli(2 * k) / mp.factorial(2 * k)
        assert abs(mp.mpf(c) - want) <= np.spacing(abs(c)), k
    assert zt._STIRLING == (1.0 / 6.0 / 2.0, -1.0 / 30.0 / 24.0 * 2, 1.0 / 42.0 / 720.0 * 24,
                            -1.0 / 30.0 / 40320.0 * 720, 5.0 / 66.0 / 3628800.0 * 40320)


def test_truncation_is_short_on_the_desk_line():
    # Fourteen corrections meet tol 1e-9 at N ~ 0.3-0.4 max|t|.
    N, rems = zt._truncation(SIGMA_1E5, np.linspace(50.0, 1.0e5, 1500), 1e-9, 1)
    assert N <= 40_000
    assert all(np.all(r <= 0.25e-9) for r in rems)


def test_line_evaluators_against_mpmath_near_1e5():
    # Only flag-0 values are checked; sigma <= 0.75 near 1e5 is left out
    # because the phase rounding of t log n can exceed tol there.
    def check(t, values, flags):
        for u, got, flag in zip(t, values, flags):
            if flag == 0:
                s = mp.mpc(SIGMA_1E5, float(u))
                want = complex(mp.zeta(s, derivative=1) / mp.zeta(s))
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), u

    t = np.linspace(9.0e4, 1.0e5, 64)
    check(t, *zt.log_deriv_band(SIGMA_1E5, t, tol=1e-9))
    t = np.sort(np.random.default_rng(15).uniform(9.0e4, 1.0e5, 16))
    check(t, *zt.log_deriv_band(SIGMA_1E5, t, tol=1e-9))


def test_scalar_engine_at_height_lands_within_tol_or_refuses():
    # One comparison of N against 2N guards scalar values at height: each
    # call is within tol of mpmath or raises PrecisionError, fast either way.
    for t in (1e4 + 0.37, 1e5 + 0.37):
        s = complex(0.6, t)
        for f, d in ((zt.zeta, 0), (zt.zeta_prime, 1)):
            want = complex(mp.zeta(mp.mpc(0.6, t), derivative=d))
            for tol in (1e-12, 1e-9):
                try:
                    got = f(s, tol=tol)
                except PrecisionError:
                    continue
                assert abs(got - want) <= tol
    start = time.perf_counter()
    with pytest.raises(PrecisionError):
        zt.zeta_prime(complex(0.6, 1e6 + 0.37), tol=1e-9)
    assert time.perf_counter() - start < 10.0
    values, flags = zt.log_deriv_band(0.75, np.empty(0))
    assert values.shape == flags.shape == (0,)


def test_log_deriv_near_zero_guard():
    # |zeta'| ~ 0.79 at the first zero, so 5e-11 off the line leaves
    # |zeta| ~ 4e-11, under the 1e-10 guard.
    with pytest.raises(NearZeroError) as exc:
        zt.log_deriv(complex(0.5 + 5e-11, GAMMA_1))
    assert exc.value.t == pytest.approx(GAMMA_1)
    with pytest.raises(DomainError):
        zt.log_deriv(complex(0.5, 100.0))


def test_log_deriv_band_matches_scalar():
    t = np.linspace(40.0, 45.0, 77)
    values, flags = zt.log_deriv_band(0.9, t, tol=1e-10)
    assert flags.tolist() == [0] * 77
    for i in (0, 13, 38, 76):
        assert abs(values[i] - zt.log_deriv(complex(0.9, t[i]), tol=1e-10)) <= 5e-9
    t = np.sort(np.random.default_rng(17).uniform(40.0, 2000.0, 300))
    values, flags = zt.log_deriv_band(0.9, t, tol=1e-10)
    assert flags.tolist() == [0] * 300
    for i in (0, 101, 255, 256, 299):
        assert abs(values[i] - zt.log_deriv(complex(0.9, t[i]), tol=1e-10)) <= 5e-9


def test_log_deriv_band_partition_invariance():
    # Bitwise identity holds for t that is not a grid, split at multiples
    # of the 256-point band (the parallel sampler splits only random t,
    # and only there).
    t = np.sort(np.random.default_rng(16).uniform(50.0, 300.0, 1024))
    full, flags_full = zt.log_deriv_band(0.75, t)
    parts, flags_parts = [], []
    for lo in range(0, 1024, 256):
        v, f = zt.log_deriv_band(0.75, t[lo : lo + 256])
        parts.append(v)
        flags_parts.append(f)
    assert np.array_equal(np.concatenate(parts), full, equal_nan=True)
    assert np.array_equal(np.concatenate(flags_parts), flags_full)
    # Misaligned partitions of a grid re-pick truncations; values still
    # agree within the certified tolerance budget.
    t = np.linspace(50.0, 300.0, 1024)
    full = zt.log_deriv_band(0.75, t)[0]
    mis = np.concatenate([zt.log_deriv_band(0.75, c)[0] for c in np.array_split(t, 7)])
    assert np.max(np.abs(mis - full)) <= 1e-6


def test_log_deriv_band_flags_near_zero():
    # A band straddling the first zero ordinate very close to the line.
    t = np.array([GAMMA_1 - 0.5, GAMMA_1, GAMMA_1 + 0.5])
    values, flags = zt.log_deriv_band(0.5 + 5e-11, t)
    assert flags[1] == 1 and np.isnan(values[1].real)
    assert flags[0] == 0 and flags[2] == 0


def test_nufft_shared_sums_match_single_and_direct():
    rng = np.random.default_rng(5)
    phi = rng.uniform(0.0, 2.0 * math.pi, 3000)
    c = rng.standard_normal((2, 3000)) + 1j * rng.standard_normal((2, 3000))
    both = NufftSum(257, shape=(2,))
    both.add(phi, c)
    out = both.finish()
    assert out.shape == (2, 257)
    for row in range(2):
        one = NufftSum(257)
        one.add(phi, c[row])
        assert np.array_equal(one.finish(), out[row])
        want = exp_sum_direct(phi, c[row], np.arange(257.0))
        assert np.max(np.abs(out[row] - want)) <= RELATIVE_ACCURACY * np.sum(np.abs(c[row]))
    with pytest.raises(ValueError):
        both.add(phi, c[0])


@pytest.mark.parametrize("t_grid, sigmas, picks", [
    (np.linspace(1.0e4, 1.0e4 + 300.0, 1000), (0.75, SIGMA_1E5), (0, 377, 999)),
    (np.linspace(1.0e5 - 900.0, 1.0e5, 600), (0.75, SIGMA_1E5), (0, 377, 599)),
    # t[909] = 90995.5: log_deriv_band's rounding error there is 1.3e-9.
    (np.linspace(50.0, 1.0e5, 1000), (0.75,), (909,)),
])
def test_log_deriv_grid_against_mpmath(t_grid, sigmas, picks):
    for sigma in sigmas:
        values, flags = zt.log_deriv_band(sigma, t_grid, tol=1e-9)
        assert np.all(flags == 0)
        for i in picks:
            s = mp.mpc(sigma, float(t_grid[i]))
            want = complex(mp.zeta(s, derivative=1) / mp.zeta(s))
            assert abs(values[i] - want) <= 1e-9, (sigma, t_grid[i])


@pytest.mark.parametrize("sigma, t_hi", [(0.75, 2.0e4), (SIGMA_1E5, 1.0e5)])
def test_log_deriv_grid_matches_band(sigma, t_hi):
    # A linspace takes the grid route; the band route is called directly.
    # Both carry the rounding of phases t log n, which the remainder
    # certificates leave out; at sigma = 0.75 it takes the band route 1.3e-9
    # from zeta'/zeta near t = 9.1e4 (see the mpmath test), so the
    # comparison there stops at 2e4.
    t = np.linspace(50.0, t_hi, 1000)
    grid, flags_grid = zt.log_deriv_band(sigma, t)
    vals, rems = zt._em_bands(sigma, t, 1e-9, 1)
    band, flags_band = zt._quotient(*vals, rems, 1e-9)
    assert np.array_equal(flags_grid, flags_band)
    assert np.max(np.abs(grid - band)) <= 1e-9


def _takes_nufft(monkeypatch, sigma, t) -> bool:
    """Whether log_deriv_band(sigma, t) adds any source to a NufftSum."""
    adds = []

    class Counting(NufftSum):
        def add(self, phi, c):
            adds.append(phi.size)
            super().add(phi, c)

    monkeypatch.setattr(zt, "NufftSum", Counting)
    zt.log_deriv_band(sigma, t)
    return bool(adds)


def test_log_deriv_band_routes_grids_with_long_main_sums_to_the_nufft(monkeypatch):
    # The desk line (N ~ 3.9e4 terms) takes the NUFFT. A grid whose main sum
    # is at most BAND terms (1000 points of [50, 300] at sigma = 2: N = 94),
    # a grid under 16 points and random t take the band loop.
    assert _takes_nufft(monkeypatch, SIGMA_1E5, np.linspace(50.0, 1.0e5, 1500))
    assert zt._truncation(2.0, np.array([300.0]), 1e-9, 1)[0] <= zt.BAND
    assert not _takes_nufft(monkeypatch, 2.0, np.linspace(50.0, 300.0, 1000))
    assert not _takes_nufft(monkeypatch, SIGMA_1E5, np.linspace(9.0e4, 1.0e5, 15))
    t = np.sort(np.random.default_rng(18).uniform(9.0e4, 1.0e5, 300))
    assert not _takes_nufft(monkeypatch, SIGMA_1E5, t)


# The 704th zero ordinate, rounded to a double; |zeta'| there is 2.18.
GAMMA_704 = 1067.4188601209646


def test_log_deriv_grid_flags_near_zero(monkeypatch):
    # t[256] == GAMMA_704 exactly: 1.0 and GAMMA_704 - 1.0 are exact doubles.
    # N = 419 > BAND, so the grid route takes it; 1e-11 off the line
    # |zeta| ~ 2.2e-11 there, under the 1e-10 guard.
    t = np.linspace(GAMMA_704 - 1.0, GAMMA_704 + 1.0, 513)
    assert t[256] == GAMMA_704
    assert _takes_nufft(monkeypatch, 0.5 + 1e-11, t)
    values, flags = zt.log_deriv_band(0.5 + 1e-11, t)
    assert flags[256] == 1 and np.isnan(values[256].real)
    assert np.count_nonzero(flags) == 1
    vals, rems = zt._em_bands(0.5 + 1e-11, t, 1e-9, 1)
    assert np.array_equal(flags, zt._quotient(*vals, rems, 1e-9)[1])
    # A short grid near the first zero takes the band loop and flags it too.
    t = np.linspace(GAMMA_1 - 1.0, GAMMA_1 + 1.0, 33)
    assert t[16] == GAMMA_1
    values, flags = zt.log_deriv_band(0.5 + 5e-11, t)
    assert flags[16] == 1 and np.isnan(values[16].real)
    assert np.count_nonzero(flags) == 1
    # One point is no grid: the band route takes it.
    one, flag = zt.log_deriv_band(0.75, t[:1])
    assert flag.tolist() == [0]
    assert abs(one[0] - zt.log_deriv(complex(0.75, t[0]))) <= 1e-9
    with pytest.raises(DomainError):
        zt.log_deriv_band(0.5, t)


def test_theta_riemann_siegel_pinned():
    assert abs(zt.theta_riemann_siegel(20.0) - 1.1868948084444840448) <= 1e-12
    grid = zt.theta_riemann_siegel(np.array([10.0, 20.0, 30.0]))
    assert grid.shape == (3,)
    assert abs(grid[1] - 1.1868948084444840448) <= 1e-12


def test_theta_riemann_siegel_against_mpmath():
    t = np.array([0.0, 0.5, -0.5, 1.0, 5.0, 14.134725, 19.9, 20.0, 100.0, 305.73,
                  1e4, 1e5, 1e6])
    # One shift count per call is set by min |t|, so the whole array (shifted
    # as for t = 0) and each point alone take different paths.
    for got, u in zip(zt.theta_riemann_siegel(t), t):
        for value in (got, zt.theta_riemann_siegel(float(u))):
            want = mp.siegeltheta(float(u))
            bound = 4.0 * np.spacing(abs(float(want))) + 2e-15
            assert abs(mp.mpf(float(value)) - want) <= bound, u


def test_hardy_z_and_theta_reject_bad_t():
    for bad, word in [(math.nan, "nan"), (math.inf, "inf"), (np.array([20.0, -math.inf]), "-inf"),
                      (np.array([[20.0, 30.0]]), "shape (1, 2)")]:
        for f in (zt.hardy_z, zt.theta_riemann_siegel):
            with pytest.raises(DomainError, match=re.escape(word)):
                f(bad)


def test_hardy_z_real_and_pinned():
    z18 = zt.hardy_z(18.0)
    assert isinstance(z18, float)
    assert abs(z18 - 2.3367996899169519091) <= 1e-10
    # |Z(t)| = |zeta(1/2 + it)|
    for t in (17.0, 23.0, 40.0):
        assert abs(abs(zt.hardy_z(t)) - abs(zt.zeta(complex(0.5, t)))) <= 1e-10


def test_find_zero_ordinates_first_three():
    zeros = zt.find_zero_ordinates(26.0)
    assert zeros.gamma.size == 3
    for got, want in zip(zeros.gamma, (GAMMA_1, GAMMA_2, GAMMA_3)):
        assert abs(got - want) <= 1e-9
    assert np.all(zeros.beta == 0.5)
    assert zeros.coverage >= 26.0


def test_hardy_z_array_matches_scalar_calls():
    t = np.sort(np.random.default_rng(5).uniform(15.0, 300.0, size=40))
    for tol in (1e-12, 1e-9):
        z = zt.hardy_z(t, tol)
        assert z.shape == t.shape and z.dtype == np.float64
        one = np.array([zt.hardy_z(float(u), tol) for u in t])
        assert np.all(np.abs(z - one) <= tol)
    with pytest.raises(PrecisionError):
        zt.hardy_z(np.array([100.0, 2.0e7]))


def test_find_zero_ordinates_against_mpmath():
    zeros = zt.find_zero_ordinates(305.0)
    for n in (1, 2, 3, 50, 100, 141):
        assert abs(zeros.gamma[n - 1] - float(mp.zetazero(n).imag)) <= 1e-9
    # Zero 142 sits at 305.72891, just below 305.73: that count is accepted
    # only after both grid refinements.
    for t_max in (26.0, 100.0, 305.0, 305.73):
        assert len(zt.find_zero_ordinates(t_max)) == int(mp.nzeros(t_max))
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            zt.find_zero_ordinates(40.0, tol=bad)


def test_count_zeros_above():
    zeros = zt.make_zero_list(
        [(0.5, 14.1), (0.7, 21.0), (0.5, 25.0), (0.9, 30.0)], coverage=40.0
    )
    assert zt.count_zeros_above(0.6, 28.0, zeros) == 1
    assert zt.count_zeros_above(0.6, 40.0, zeros) == 2
    with pytest.raises(CoverageError):
        zt.count_zeros_above(0.6, 50.0, zeros)


def test_zero_table_roundtrip(tmp_path):
    zeros = zt.find_zero_ordinates(22.0)
    path = tmp_path / "zeros.txt"
    zt.write_zero_table(path, zeros)
    text = path.read_text()
    assert "np.float64" not in text
    back = zt.read_zero_table(path)
    assert np.array_equal(back.gamma, zeros.gamma)
    assert np.array_equal(back.beta, zeros.beta)
    assert back.coverage == zeros.coverage


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-0.5, max_value=2.5),
    st.floats(min_value=0.5, max_value=80.0),
)
def test_conjugate_symmetry_property(sigma, t):
    s = complex(sigma, t)
    assert abs(zt.zeta(np.conj(s), tol=1e-9) - np.conj(zt.zeta(s, tol=1e-9))) <= 1e-13

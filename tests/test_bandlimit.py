"""Tests for the extremal band-limited majorants/minorants: the signum
approximant against its literal partial-fraction series, domination and
excess-integral certificates, the windowed Fourier transform against a
quadrature oracle, and the closed-form transform against both."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from zetalab.bandlimit import (
    BandlimitedFunction,
    _analytic_tail,
    beurling_B,
    domination_report,
    excess_integral,
    fourier_transform,
    selberg_interval,
    verify_bandlimit,
)
from zetalab.errors import DomainError, QuadratureError


def _b_literal(y, N=200_000):
    """The defining partial-fraction series, truncated at N terms.

    Tail after N is below 4|y|/(N - |y|)^2, about 1e-9 here; fsum keeps
    the truncation the only error. Independent of the closed form used in
    the implementation.
    """
    n = np.arange(0, N + 1, dtype=np.float64)
    minus = math.fsum(((y - n) ** -2.0).tolist())
    plus = math.fsum(((y + np.arange(1, N + 1)) ** -2.0).tolist())
    return (math.sin(math.pi * y) / math.pi) ** 2 * (minus - plus + 2.0 / y)


def _sinc_sq_tail_oracle(W):
    """Closed form of the integral of sinc^2 over [W, infinity)."""
    z = 2.0 * math.pi * W
    si, _ = sici(z)
    return ((1.0 - math.cos(z)) / z + (0.5 * math.pi - si)) / math.pi


def test_signum_approximant_matches_literal_series():
    for y in (0.3, 0.5, 1.2, 2.5, 3.7, 7.77, 9.5, -0.25, -1.3, -6.6):
        assert abs(beurling_B(y) - _b_literal(y)) <= 1e-9, y


def test_signum_approximant_integer_values():
    # sgn at nonzero integers, 1 at the origin; exact by sinc vanishing.
    assert beurling_B(0.0) == 1.0
    for k in (1, 2, 5):
        assert beurling_B(float(k)) == 1.0
        assert beurling_B(float(-k)) == -1.0


def test_signum_approximant_dominates_and_decays():
    y = np.linspace(-50.0, 50.0, 20_001)
    slack = beurling_B(y) - np.sign(y)
    assert float(np.min(slack)) >= -1e-13
    assert abs(beurling_B(1000.5) - 1.0) <= 1e-5
    # Vectorized and scalar evaluation agree bitwise.
    sample = np.array([-2.3, -0.4, 0.0, 0.7, 4.2])
    vec = beurling_B(sample)
    assert all(vec[i] == beurling_B(float(sample[i])) for i in range(5))


def test_signum_excess_integral_is_one():
    main, quad_err = quad(
        lambda y: beurling_B(y) - math.copysign(1.0, y), -100.0, 100.0,
        limit=4000,
    )
    total = main + 2.0 * _sinc_sq_tail_oracle(100.0)
    assert quad_err < 1e-7
    assert abs(total - 1.0) <= 1e-6


def test_interval_constructor_gates():
    with pytest.raises(DomainError):
        selberg_interval(1.0, 0.0, 4.0)
    with pytest.raises(DomainError):
        selberg_interval(-1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        selberg_interval(-1.0, 1.0, 4.0, kind="sandwich")
    for args, name in (((-1.0, 1.0, math.inf), "delta"),
                       ((-1.0, math.inf, 4.0), "b"),
                       ((-math.inf, 1.0, 4.0), "a"),
                       ((math.nan, 1.0, 4.0), "a")):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            selberg_interval(*args)
    F = selberg_interval(-1.0, 1.0, 4.0)
    assert isinstance(F, BandlimitedFunction)
    assert F.exact_integral() == 2.25


def test_domination_on_dense_grid():
    for kind in ("majorant", "minorant"):
        F = selberg_interval(-1.0, 1.0, 4.0, kind)
        rep = domination_report(F)
        assert rep["min_slack"] >= -1e-9
        # Slack sits under the two-bump sinc^2 envelope with constant 1,
        # and the construction is sharp enough to nearly attain it.
        assert rep["envelope_const"] <= 1.0 + 1e-9
        assert rep["envelope_const"] >= 0.9


def test_majorant_sandwiches_indicator_pointwise():
    up = selberg_interval(-1.0, 1.0, 4.0, "majorant")
    lo = selberg_interval(-1.0, 1.0, 4.0, "minorant")
    x = np.linspace(-6.0, 6.0, 5001)
    ind = up.indicator(x)
    assert np.all(up(x) >= ind - 1e-12)
    assert np.all(lo(x) <= ind + 1e-12)
    assert np.all(up(x) >= lo(x) - 1e-12)
    # Midpoint value hugs the indicator from above.
    mid = selberg_interval(-1.0, 1.0, 3.7, "majorant")(0.0)
    assert 1.0 <= mid <= 1.01


def test_excess_integral_attains_optimum():
    for delta in (1.0, 4.0, 16.0):
        up = excess_integral(selberg_interval(-1.0, 1.0, delta, "majorant"))
        lo = excess_integral(selberg_interval(-1.0, 1.0, delta, "minorant"))
        assert abs(up - 1.0 / delta) <= 1e-6
        assert abs(lo + 1.0 / delta) <= 1e-6
    # Exact halving in delta, far below the 1e-6 certificate.
    e1 = excess_integral(selberg_interval(0.0, 3.0, 2.0, "majorant"))
    e2 = excess_integral(selberg_interval(0.0, 3.0, 4.0, "majorant"))
    assert abs(e2 / e1 - 0.5) <= 1e-4
    # A window that is not positive or finite, or that rounding loses beside [a, b].
    for window in (-1.0, 0.0, math.nan, math.inf, 1e-300):
        with pytest.raises(DomainError, match="band limit delta = 2"):
            excess_integral(selberg_interval(0.0, 3.0, 2.0), window=window)


def test_degenerate_point_interval():
    F = selberg_interval(0.5, 0.5, 4.0, "majorant")
    assert F.exact_integral() == 0.25
    assert abs(excess_integral(F) - 0.25) <= 1e-6
    assert domination_report(F)["min_slack"] >= -1e-9
    assert F(0.5) >= 1.0


def test_fourier_transform_matches_quad_oracle():
    F = selberg_interval(-1.0, 1.0, 4.0, "majorant")
    xi0 = 2.8
    W = 12.5
    vals, tail_bound = fourier_transform(F, [xi0], window=W)
    re, _ = quad(
        lambda x: F(x) * math.cos(2 * math.pi * xi0 * x), -1 - W, 1 + W,
        limit=4000,
    )
    im, _ = quad(
        lambda x: -F(x) * math.sin(2 * math.pi * xi0 * x), -1 - W, 1 + W,
        limit=4000,
    )
    assert abs(vals[0] - complex(re, im)) <= 1e-10
    assert 0.0 < tail_bound < 0.01
    with pytest.raises(DomainError):
        fourier_transform(F, [1.0], window=0.0)


HAT_CASES = [(-1.0, 1.0, 4.0), (-1.0, 1.0, 1.0), (0.0, 3.0, 2.0),
             (0.5, 0.5, 4.0), (0.5, 1.5, 16.0), (-2.0, 1.0, 1.0)]


def test_hat_exact_identities():
    for a, b, delta in HAT_CASES:
        for kind in ("majorant", "minorant"):
            F = selberg_interval(a, b, delta, kind)
            assert F.hat(0.0) == F.exact_integral()
            outside = delta * np.array([1.0, 1.0 + 1e-12, 1.3, 2.5, 40.0])
            assert np.all(F.hat(outside) == 0.0)
            assert np.all(F.hat(-outside) == 0.0)
            xi = delta * np.linspace(-1.2, 1.2, 97)
            assert np.array_equal(F.hat(-xi), np.conj(F.hat(xi)))
            assert F.hat(xi).shape == xi.shape


def test_hat_matches_windowed_transform():
    # Away from xi = 0 and |xi| = delta the discarded tails oscillate, so the
    # windowed transform's error falls like 1/W^2: a 10x window cuts the gap
    # by ~100x.  At xi = 0 and |xi| = delta a non-oscillating part of the tail
    # remains and the error falls like 1/W; at xi = 0 the analytic tail
    # integral closes the gap to rounding.
    rel = np.array([0.1, 0.3, 0.5, 0.8, 0.95, 1.05, 1.3])
    for a, b, delta in HAT_CASES:
        for kind in ("majorant", "minorant"):
            F = selberg_interval(a, b, delta, kind)
            xi = delta * np.concatenate([-rel[::-1], [-1.0, 0.0, 1.0], rel])
            exact = F.hat(xi)
            W = 1e3 / delta  # fourier_transform's default window
            wide, tail_bound = fourier_transform(F, xi)
            vals, _ = fourier_transform(F, xi, window=0.1 * W)
            gap = np.abs(vals - exact)
            gap_wide = np.abs(wide - exact)
            assert np.max(gap_wide) <= tail_bound
            oscillating = np.abs(np.abs(xi) - delta) > 1e-12 * delta
            oscillating &= xi != 0.0
            assert np.all(gap[oscillating] >= 50.0 * gap_wide[oscillating])
            assert np.all(gap[~oscillating] >= 9.0 * gap_wide[~oscillating])
            zero = int(np.flatnonzero(xi == 0.0)[0])
            closed = wide[zero].real + _analytic_tail(F, F.a - W, F.b + W)
            assert abs(closed - exact[zero].real) <= 1e-12


def test_verify_bandlimit_report(monkeypatch):
    for kind in ("majorant", "minorant"):
        F = selberg_interval(-1.0, 1.0, 4.0, kind)
        rep = verify_bandlimit(F)
        assert rep["passed"]
        assert rep["closed_form_ok"]
        assert 0.0 < rep["closed_form_max_dev"] <= rep["tail_bound"]
        assert rep["f_hat0_abs_error"] <= 1e-5
        assert rep["max_out_of_band_abs"] <= rep["out_of_band_threshold"]
        assert rep["max_out_of_band_abs"] <= 1e-6
        assert rep["conj_symmetry_max_dev"] <= 1e-12
        assert rep["expected_f_hat0"] == F.exact_integral()
    # A closed form with the wrong phase fails the cross-check and the report.
    exact_hat = BandlimitedFunction.hat
    monkeypatch.setattr(BandlimitedFunction, "hat",
                        lambda self, xi: np.conj(exact_hat(self, xi)))
    rep = verify_bandlimit(selberg_interval(0.0, 3.0, 2.0))
    assert not rep["closed_form_ok"] and not rep["passed"]
    assert rep["closed_form_max_dev"] > 1.0


def test_verify_bandlimit_window_too_small():
    F = selberg_interval(-1.0, 1.0, 4.0, "majorant")
    with pytest.raises(QuadratureError):
        verify_bandlimit(F, window=0.05)

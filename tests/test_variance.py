"""Variance normalizer V(sigma) and the experiment context thresholds."""

import math

import mpmath as mp
import pytest

from zetalab.errors import DomainError, OutOfRegimeError
from zetalab.variance import (
    VarianceContext,
    direct_partial_sum,
    make_context,
    threshold_formulas,
    variance,
)

mp.mp.dps = 30


def _vm_mp(n: int):
    # Independent von Mangoldt for the mpmath oracle sum.
    m, p, d = n, None, 2
    while d * d <= m:
        if m % d == 0:
            p = d
            while m % d == 0:
                m //= d
            break
        d += 1
    if p is None:
        p = n
    return mp.log(p) if m == 1 or p == n else mp.mpf(0)


def test_variance_pinned_v1():
    V, bound = variance(1.0)
    assert abs(V - 0.4026049101142073) <= max(bound, 1e-11)
    assert bound < 1e-9


def test_variance_against_mpmath_oracle():
    # sigma = 1: direct 30-digit summation of Lambda^2(n)/n^2 with a rigorous
    # tail bracket (integral comparison), fully independent of the engine.
    cutoff = 200_000
    s = mp.fsum(_vm_mp(n) ** 2 / mp.mpf(n) ** 2 for n in range(2, cutoff + 1))
    # tail < sum_{n>cutoff} log^2(n)/n^2 < (log^2 c + 2 log c + 2)/c
    lc = mp.log(cutoff)
    tail = (lc * lc + 2 * lc + 2) / cutoff
    V, bound = variance(1.0)
    assert abs(V - 0.5 * float(s)) <= 0.5 * float(tail) + bound


@pytest.mark.parametrize("sigma", [0.75, 0.9, 1.2, 2.0])
def test_variance_against_direct_partial_sum(sigma):
    # The direct partial sum converges for sigma well above 1/2 and acts as
    # the independent cross-check of the analytic identity route.
    V, bound = variance(sigma)
    direct = direct_partial_sum(sigma, 2_000_000)
    w = 2.0 * sigma
    c = 2_000_000.0
    lc = math.log(c)
    tail = 0.5 * (lc**2 + 2 * lc / (w - 1) + 2 / (w - 1) ** 2) * c ** (1.0 - w) / (w - 1)
    assert abs(V - direct) <= tail + bound


def test_variance_tail_certificate_recheck():
    # Re-summing with a doubled internal cutoff moves V by less than the
    # reported truncation bound.
    V1, bound = variance(0.6, tol=1e-9)
    V2, _ = variance(0.6, tol=1e-11)
    assert abs(V2 - V1) <= bound


def test_variance_domain():
    with pytest.raises(DomainError):
        variance(0.5)
    with pytest.raises(DomainError):
        variance(2.5)


def test_variance_frozen_table():
    frozen = {
        0.51: 1249.270450548884,
        0.52: 311.8215691769261,
        0.55: 49.4467863524534,
        0.6: 12.09057433478505,
        0.75: 1.795711291995616,
        1.0: 0.4026049101142073,
    }
    for sigma, want in frozen.items():
        V, bound = variance(sigma)
        assert abs(V - want) <= max(10 * bound, 1e-9 * want)


def test_make_context_psi_inversion():
    ctx = make_context(T=1e5, psi=10.0)
    assert ctx.sigma == 0.5 + 10.0 / (2.0 * math.log(1e5))
    assert abs(ctx.psi - 10.0) <= 1e-12


def test_make_context_sigma_form():
    ctx = make_context(T=1e4, sigma=0.6)
    assert ctx.psi == pytest.approx(0.2 * math.log(1e4), rel=1e-15)
    assert ctx.psi == pytest.approx(1.8420680743952365, rel=1e-12)


def test_make_context_recomputation_closure():
    ctx = make_context(T=1e5, psi=15.0)
    psi, Omega, bOmega, tOmega = threshold_formulas(
        ctx.sigma, ctx.T, ctx.K_const, ctx.V
    )
    assert (psi, Omega, bOmega, tOmega) == (ctx.psi, ctx.Omega, ctx.bOmega, ctx.tOmega)
    assert isinstance(ctx, VarianceContext)


def test_make_context_gates():
    with pytest.raises(OutOfRegimeError):
        make_context(T=1e3, psi=0.9)
    with pytest.raises(DomainError):
        make_context(T=10.0)  # neither sigma nor psi
    with pytest.raises(DomainError):
        make_context(T=1e4, sigma=0.7, psi=3.0)  # both
    with pytest.raises(DomainError):
        make_context(T=10.0, sigma=0.7)  # T below e^e
    with pytest.raises(DomainError):
        make_context(T=1e4, sigma=2.5)
    # A NaN fails every comparison and an infinite T passes T >= e^e; both
    # used to give a context with psi inf or NaN, and K_const NaN a NaN tOmega.
    for T, K_const in ((math.inf, 1.0), (math.nan, 1.0), (1e5, math.nan), (1e5, -math.inf)):
        with pytest.raises(DomainError):
            make_context(T=T, sigma=0.7, K_const=K_const)


def test_threshold_ordering_by_v_branch():
    # bOmega/Omega = min(V^{3/2}, r)/min(V^{1/2}, r): V <= 1 pushes bOmega
    # under Omega and V >= 1 the other way.
    small = make_context(T=1e5, sigma=1.0)  # V ~ 0.40
    assert small.bOmega <= small.Omega
    big = make_context(T=1e5, sigma=0.6)  # V ~ 12.1
    assert big.bOmega >= big.Omega
    assert big.tOmega > 0


def test_scaling_law_fixed_psi():
    # For fixed psi, V (2 sigma - 1)^2 -> 1/2 as T grows, with a deviation
    # band that shrinks in (2 sigma - 1).
    devs = []
    for T in (1e4, 1e6, 1e8):
        ctx = make_context(T=T, psi=10.0)
        devs.append(abs(2.0 * ctx.V * (2.0 * ctx.sigma - 1.0) ** 2 - 1.0))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.12


def test_context_as_dict_roundtrip():
    ctx = make_context(T=1e5, psi=15.0)
    d = ctx.as_dict()
    assert d["sigma"] == ctx.sigma and d["V"] == ctx.V
    assert set(d) == {
        "sigma", "T", "V", "psi", "Omega", "bOmega", "tOmega",
        "K_const", "truncation_bound",
    }

"""Prime-power arithmetic: sieve, von Mangoldt, segment iteration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab.arith import (
    TableCapError,
    chebyshev_psi,
    lambda_segments,
    prime_powers_up_to,
    segment_starts,
    sieve_primes,
    von_mangoldt,
)
from zetalab.errors import DomainError

# Independent factorization oracle: trial division, no shared code with the
# sieve-based paths under test.


def _vm_bruteforce(n: int) -> float:
    if n < 2:
        return 0.0
    m, p, d = n, None, 2
    while d * d <= m:
        if m % d == 0:
            p = d
            while m % d == 0:
                m //= d
            break
        d += 1
    if p is None:
        return math.log(n)
    return math.log(p) if m == 1 else 0.0


def test_sieve_small():
    assert sieve_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert sieve_primes(1).size == 0
    assert sieve_primes(2).tolist() == [2]


def test_sieve_counts():
    # pi(10^k) for k = 1..6
    for limit, count in [(10, 4), (100, 25), (10**4, 1229), (10**6, 78498)]:
        assert sieve_primes(limit).size == count


def test_von_mangoldt_against_bruteforce():
    for n in range(1, 3000):
        assert von_mangoldt(n) == pytest.approx(_vm_bruteforce(n), abs=1e-15)


def test_von_mangoldt_values():
    assert von_mangoldt(1) == 0.0
    assert von_mangoldt(2) == pytest.approx(math.log(2), rel=1e-15)
    assert von_mangoldt(1024) == pytest.approx(math.log(2), rel=1e-15)
    assert von_mangoldt(243) == pytest.approx(math.log(3), rel=1e-15)
    assert von_mangoldt(6) == 0.0
    with pytest.raises(DomainError):
        von_mangoldt(0)


def test_von_mangoldt_positive_iff_prime_power():
    table = prime_powers_up_to(500)
    tabled = set(int(v) for v in table.value)
    for n in range(1, 501):
        assert (von_mangoldt(n) > 0) == (n in tabled)


def test_prime_power_table_structure():
    table = prime_powers_up_to(100)
    # 25 primes, 10 squares+ (4,8,16,32,64,9,27,81,25,49)
    assert table.value.size == 35
    assert np.all(np.diff(table.value) > 0)
    expected = table.prime.astype(np.float64) ** table.exponent
    assert np.array_equal(expected.astype(np.int64), table.value)
    assert np.allclose(table.log_prime, np.log(table.prime))


def test_prime_power_table_bruteforce_small():
    table = prime_powers_up_to(1000)
    oracle = sorted(n for n in range(2, 1001) if _vm_bruteforce(n) > 0)
    assert table.value.tolist() == oracle


def test_prime_power_table_cap():
    with pytest.raises(TableCapError):
        prime_powers_up_to(2.0e8)


def test_prime_power_table_domain():
    with pytest.raises(DomainError):
        prime_powers_up_to(1.0)


def test_lambda_segments_match_scalar():
    got = {}
    for value, logp in lambda_segments(1, 10**4, segment_size=997):
        for v, lg in zip(value.tolist(), logp.tolist()):
            got[v] = lg
    want = {n: von_mangoldt(n) for n in range(2, 10**4 + 1) if von_mangoldt(n)}
    assert got.keys() == want.keys()
    for n in got:
        assert got[n] == pytest.approx(want[n], rel=1e-15)


def test_lambda_segments_half_open_range():
    # (lo, hi]: lo itself excluded, hi included when it is a prime power
    vals = np.concatenate([v for v, _ in lambda_segments(5, 25, segment_size=7)])
    assert vals.tolist() == [7, 8, 9, 11, 13, 16, 17, 19, 23, 25]
    assert list(lambda_segments(50, 50)) == []


def test_lambda_segments_free_the_sieve_before_each_yield():
    # The consumer holds one pair while the next segment is sieved. The
    # stream's frame then keeps neither the 1 MB sieve mask nor the pre-merge
    # primes; when it kept them the peak over these four segments was 7.9 MB.
    tracemalloc.start()
    try:
        stream = lambda_segments(1, 2.67e7)
        for _ in range(4):
            held = next(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held[0].size == held[1].size and peak < 7.5e6, peak


@pytest.mark.parametrize("hi, want", [(2, [2]), (3, [2, 3]), (3.9, [2, 3])])
def test_lambda_segments_below_the_first_prime_square(hi, want):
    # Below 4 there is no base prime, so no higher prime power to merge.
    segments = list(lambda_segments(1, hi))
    assert [v.tolist() for v, _ in segments] == [want]
    assert [g.tolist() for _, g in segments] == [[math.log(p) for p in want]]


@pytest.mark.parametrize("segment_size", [7, 997, 15014, 15015, 15016])
def test_lambda_segments_match_table(segment_size):
    # Segment edges against the odd-only sieve's 15015-periodic wheel, and
    # starts at and next to the wheel primes it adds back.
    table = prime_powers_up_to(10**5)
    for lo in (0, 1, 2, 3, 13, 14):
        segments = list(lambda_segments(lo, 10**5, segment_size=segment_size))
        keep = table.value > lo
        assert np.array_equal(np.concatenate([v for v, _ in segments]), table.value[keep])
        assert np.array_equal(np.concatenate([g for _, g in segments]), table.log_prime[keep])
        # One segment per start, each holding values in [start, start + segment_size).
        starts = segment_starts(lo, 10**5, segment_size)
        assert len(segments) == len(starts)
        for (v, _), s in zip(segments, starts):
            assert np.all((v >= s) & (v < s + segment_size))


@pytest.mark.parametrize("lo, segment_size, first_edges", [
    (0, 728, (2, 729)),  # 3^6 closes the first segment [2, 729]
    (0, 1023, (2, 1024)),  # 2^10 closes [2, 1024]
    (728, 296, (729, 1024)),  # both edges of [729, 1024]
    (1023, 1000, (1024, 2017)),  # 2^10 opens [1024, 2023]
    (2**19, 2**18, (524309, 786431)),
])
def test_lambda_segments_prime_powers_on_segment_edges(lo, segment_size, first_edges):
    # Prime powers on segment edges, and hi = 2^20 itself a prime power:
    # each comes out once, in order, with its log p.
    table = prime_powers_up_to(2**20)
    segments = list(lambda_segments(lo, 2**20, segment_size=segment_size))
    assert tuple(segments[0][0][[0, -1]].tolist()) == first_edges
    assert segments[-1][0][-1] == 2**20
    keep = table.value > lo
    assert np.array_equal(np.concatenate([v for v, _ in segments]), table.value[keep])
    assert np.array_equal(np.concatenate([g for _, g in segments]), table.log_prime[keep])


def test_chebyshev_psi_pinned():
    # Brute-force factorization oracle sums, pinned from an offline session.
    assert chebyshev_psi(2) == math.log(2)
    assert chebyshev_psi(3) == math.log(2) + math.log(3)
    assert chebyshev_psi(100) == pytest.approx(94.0453112293574, abs=1e-9)
    assert chebyshev_psi(10**4) == pytest.approx(10013.396693263116, abs=1e-7)


def test_chebyshev_psi_pnt_ratio():
    x = 10**6
    assert 0.99 <= chebyshev_psi(x) / x <= 1.01


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200_000))
def test_von_mangoldt_matches_bruteforce_sampled(n):
    assert von_mangoldt(n) == pytest.approx(_vm_bruteforce(n), abs=1e-12)

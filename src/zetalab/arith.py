"""Prime, prime-power and von Mangoldt tables shared by every other module.

All tables are plain numpy arrays produced by a sieve of Eratosthenes; the
streaming helpers cover ranges too large to materialize (the scan machinery
works through multi-gigaelement supports segment by segment without ever
holding more than one segment, and the O(sqrt) base primes and their higher
powers, in memory). The streaming sieve marks odd numbers only, pre-sieved
by 3..13 (Bays-Hudson).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import DomainError, TableCapError

# Materialized tables are capped so a careless call cannot eat the machine.
# Streaming iteration (lambda_segments) has no cap; it holds one segment only.
TABLE_CAP_DEFAULT = 100_000_000

# Numbers per sieve segment: its 1 MB odd-number mask stays in cache (the
# stream to 6.4e7 takes 0.19 s against 0.29 s at 1e7, to 1e9 3.8 s against 4.4 s).
_SEGMENT_SIZE = 2_000_000


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2)."""
    limit = int(limit)
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.nonzero(is_prime)[0].astype(np.int64)


def von_mangoldt(n: int) -> float:
    """log p if n = p^k for a prime p and k >= 1, else 0.0.

    Total for all integers n >= 1 (n = 1 gives 0, the empty product).
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"von_mangoldt requires n >= 1, got {n}")
    if n == 1:
        return 0.0
    # Strip the smallest prime factor p, then n is a power of p exactly when
    # repeated division by p reaches 1.
    p = _smallest_prime_factor(n)
    while n % p == 0:
        n //= p
    return math.log(p) if n == 1 else 0.0


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


@dataclass(frozen=True)
class PrimePowerTable:
    """Sorted table of every prime power p^n <= bound.

    ``value[i] = prime[i] ** exponent[i]`` and ``value`` is strictly
    increasing; ``log_prime[i] = log(prime[i])`` is the von Mangoldt value of
    the entry. Immutable after construction and safe to share across workers.
    """

    bound: float
    value: np.ndarray = field(repr=False)
    prime: np.ndarray = field(repr=False)
    exponent: np.ndarray = field(repr=False)
    log_prime: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return int(self.value.shape[0])

    def __post_init__(self):
        if len(self.value) and not np.all(np.diff(self.value) > 0):
            raise ValueError("prime power values must be strictly increasing")


def prime_powers_up_to(x: float) -> PrimePowerTable:
    """Complete sorted table of prime powers p^n <= x.

    Sieve of Eratosthenes plus a prime-power post-pass; O(x log log x) time
    and O(x) transient memory for the sieve mask. ``x`` must be >= 2 and at
    most TABLE_CAP_DEFAULT (1e8) because the mask and table are materialized.
    """
    if not (x >= 2):
        raise DomainError(f"prime_powers_up_to requires x >= 2, got {x}")
    if x > TABLE_CAP_DEFAULT:
        raise TableCapError(
            f"requested bound {x:g} exceeds table cap {TABLE_CAP_DEFAULT:g}; "
            "use lambda_segments for streaming"
        )
    limit = int(math.floor(x))
    primes = sieve_primes(limit)
    values = [primes]
    prime_of = [primes]
    exponent_of = [np.ones(len(primes), dtype=np.int64)]
    k = 2
    while True:
        # Primes whose k-th power still fits; primes is sorted so a prefix.
        root = limit ** (1.0 / k)
        count = int(np.searchsorted(primes, math.floor(root), side="right"))
        while count > 0 and primes[count - 1] ** k > limit:
            count -= 1
        if count == 0:
            break
        base = primes[:count]
        values.append(base**k)
        prime_of.append(base)
        exponent_of.append(np.full(count, k, dtype=np.int64))
        k += 1
    value = np.concatenate(values)
    order = np.argsort(value, kind="stable")
    value = value[order]
    prime = np.concatenate(prime_of)[order]
    exponent = np.concatenate(exponent_of)[order]
    return PrimePowerTable(
        bound=float(x),
        value=value,
        prime=prime,
        exponent=exponent,
        log_prime=np.log(prime.astype(np.float64)),
    )


def segment_starts(lo: float, hi: float, segment_size: int = _SEGMENT_SIZE) -> range:
    """The first value of each sieve segment lambda_segments(lo, hi, segment_size) walks."""
    return range(int(math.floor(max(lo, 1))) + 1, int(math.floor(hi)) + 1, segment_size)


def lambda_segments(
    lo: float, hi: float, segment_size: int = _SEGMENT_SIZE
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream (value, log_prime) arrays for prime powers in (lo, hi].

    Yields one pair per sieve segment, values sorted within each segment and
    globally increasing across segments; the prime powers p^k <= hi, k >= 2,
    are listed once and merged into each segment's primes by binary search.
    Memory stays O(segment_size + sqrt(hi)) regardless of hi, which is what
    lets scans run out to 1e9 and beyond.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"lambda_segments requires finite bounds, got ({lo}, {hi}]")
    lo = int(math.floor(max(lo, 1)))
    hi = int(math.floor(hi))
    if hi <= lo:
        return
    base = sieve_primes(math.isqrt(hi))
    # Every p^k <= hi with k >= 2, listed once and sorted; segments take their share.
    # The empty first entries keep the concatenation defined for hi < 4 (no base prime).
    pows, bases, p, v = [base[:0]], [base[:0]], base, base * base
    while p.size:
        pows.append(v)
        bases.append(p)
        fits = v <= hi // p
        p, v = p[fits], v[fits] * p[fits]
    pows, bases = np.concatenate(pows), np.concatenate(bases)
    order = np.argsort(pows)
    pows, pow_logs = pows[order], np.log(bases[order].astype(np.float64))
    sieving = base[base > 13]
    wheel = np.gcd(2 * np.arange(15015) + 1, 15015) == 1  # is 2 i + 1 prime to 3..13
    for seg_lo in segment_starts(lo, hi, segment_size):
        seg_hi = min(seg_lo + segment_size - 1, hi)
        first = seg_lo | 1  # mask[i] stands for the odd number first + 2 i
        mask = np.resize(np.roll(wheel, -(first // 2)), max(0, (seg_hi - first) // 2 + 1))
        ps = sieving[: np.searchsorted(sieving, math.isqrt(seg_hi), side="right")]
        start = np.maximum(ps * ps, -(-first // ps) * ps)  # the first odd multiple >= p^2
        start += ps * (start % 2 == 0)
        for p, at in zip(ps.tolist(), ((start - first) // 2).tolist()):
            mask[at::p] = False
        primes = np.flatnonzero(mask)
        del mask  # the frame holds none of the segment's arrays while the consumer works
        primes *= 2
        primes += first
        if seg_lo <= 13:  # the wheel's primes, in the one segment that holds them
            small = [p for p in (2, 3, 5, 7, 11, 13) if seg_lo <= p <= seg_hi]
            primes = np.concatenate((np.array(small, np.int64), primes))
        a, b = np.searchsorted(pows, [seg_lo, seg_hi + 1])
        at = np.searchsorted(primes, pows[a:b])
        pair = (np.insert(primes, at, pows[a:b]),
                np.insert(np.log(primes.astype(np.float64)), at, pow_logs[a:b]))
        del primes
        yield pair
        del pair


def chebyshev_psi(x: float) -> float:
    """Sum of von Mangoldt over n <= x (Chebyshev psi), for sanity checks."""
    total = 0.0
    for value, logp in lambda_segments(0, x):
        total += float(logp.sum())
    return total

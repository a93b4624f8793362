"""Random Euler-product model on the torus: one uniform phase per prime.

S(theta) = V^{-1/2} sum_{p^n <= x} (log p / p^{n sigma}) e(n theta_p),
e(y) = exp(2 pi i y). The module provides exact sampling, exact low-order
joint moments by unique-factorization coefficient matching, the exact
product-form characteristic function, a seeded Monte Carlo characteristic
function, and the truncated moment-expansion chf with its remainder
envelope. In the product form a prime with a single term (every
p > sqrt(x)) contributes the Bessel factor J0(2 pi c_p r), r = |(u, v)|;
midpoint quadrature runs only over the primes p <= sqrt(x), which have
several terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .arith import prime_powers_up_to
from .errors import CapacityError, DomainError, QuadratureError

_MC_BLOCK = 4096
_J0_SERIES_MAX = 2.0
_J0_HANKEL_MIN = 25.0
# J0(x) = sum_k _J0_COEFF[k] x^(2k), (-1/4)^k / (k!)^2; below 2^-56 at x = 2 from k = 12.
_J0_COEFF = np.array([(-0.25) ** k / math.factorial(k) ** 2 for k in range(13)])
# Midpoint nodes sin(th_j) on [0, pi]; 2 (x/2)^2K / (2K)! < 2^-56 at x = 25 from K = 31.
_J0_NODES = np.sin((np.arange(31) + 0.5) * (math.pi / 31))
# Hankel's |a_k(0)| = 1^2 3^2 ... (2k-1)^2 / (k! 8^k), highest k first for np.polyval
# (the sign (-1)^k goes into -i/x); a_k / x^k < 2^-56 at x = 25 from k = 19.
_J0_HANKEL = np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8.0 * k) for k in range(1, 19)])[::-1]


@dataclass(frozen=True)
class TorusModel:
    """Term table of S(theta) at (sigma, x) with normalization V.

    term_value[i] = primes[term_prime_index[i]] ** term_exponent[i] <= x and
    term_coeff[i] = log p * p^{-n sigma} / sqrt(V). Immutable and picklable;
    safe to share across workers.
    """

    sigma: float
    x: float
    V: float
    primes: np.ndarray = field(repr=False)
    term_value: np.ndarray = field(repr=False)
    term_prime_index: np.ndarray = field(repr=False)
    term_exponent: np.ndarray = field(repr=False)
    term_coeff: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return int(self.term_value.shape[0])

    def n_primes(self) -> int:
        return int(self.primes.shape[0])


TorusPoint = Mapping[int, float]


def make_torus_model(
    sigma: float,
    x: float,
    V: float | None = None,
) -> TorusModel:
    """Build the model at (sigma, x); V defaults to the model's own variance.

    The default V = (1/2) sum_{p^n <= x} log^2 p / p^{2 n sigma} makes the
    normalized second moment E|S|^2 equal 2 exactly, so Re S and Im S each
    have unit variance and the Gaussian comparison target is the standard
    one. Pass V explicitly (e.g. the full-series variance of a line context)
    when the model must share a normalizer with line samples.
    """
    if not (math.isfinite(sigma) and sigma > 0.5):
        raise DomainError(f"model requires finite sigma > 1/2, got {sigma:g}")
    table = prime_powers_up_to(x)
    if V is None:
        V = 0.5 * math.fsum(
            (table.log_prime**2 * table.value.astype(np.float64) ** (-2.0 * sigma)).tolist()
        )
    if not (V > 0):
        raise DomainError("V must be positive")
    prime_list, prime_index = np.unique(table.prime, return_inverse=True)
    coeff = table.log_prime * table.value.astype(np.float64) ** -sigma / math.sqrt(V)
    return TorusModel(
        sigma=float(sigma),
        x=float(x),
        V=float(V),
        primes=prime_list.astype(np.int64),
        term_value=table.value.copy(),
        term_prime_index=prime_index.astype(np.int64),
        term_exponent=table.exponent.copy(),
        term_coeff=coeff,
    )


def eval_S(model: TorusModel, point: TorusPoint) -> complex:
    """Exact S(theta) for a mapping prime -> theta_p in [0, 1)."""
    try:
        theta = np.array(
            [point[int(p)] for p in model.primes], dtype=np.float64
        )
    except KeyError as exc:
        raise DomainError(f"point is missing prime {exc.args[0]}") from exc
    ph = 2.0 * math.pi * model.term_exponent * theta[model.term_prime_index]
    re = math.fsum((model.term_coeff * np.cos(ph)).tolist())
    im = math.fsum((model.term_coeff * np.sin(ph)).tolist())
    return complex(re, im)


def _eval_S_block(model: TorusModel, theta: np.ndarray) -> np.ndarray:
    """Vectorized S over theta of shape (n_samples, n_primes)."""
    ph = 2.0 * math.pi * theta[:, model.term_prime_index] * model.term_exponent
    return np.cos(ph) @ model.term_coeff + 1j * (np.sin(ph) @ model.term_coeff)


def _coeff_maps(model: TorusModel, r_max: int, max_keys: int) -> list[dict]:
    """Maps A_r: integer product of r term values -> summed coefficient.

    A_r[key] = sum over ordered r-tuples of terms whose p^n values multiply
    to key, of the product of coefficients. Orthogonality of e(n theta) turns
    joint moments into diagonal matches of these maps (unique factorization
    keeps keys exact as Python integers).
    """
    maps: list[dict] = [{1: 1.0}]
    values = [int(v) for v in model.term_value]
    coeffs = [float(c) for c in model.term_coeff]
    for _ in range(r_max):
        prev = maps[-1]
        nxt: dict = {}
        for key, amp in prev.items():
            for v, c in zip(values, coeffs):
                nk = key * v
                nxt[nk] = nxt.get(nk, 0.0) + amp * c
            if len(nxt) > max_keys:
                raise CapacityError(
                    f"coefficient map exceeds {max_keys} keys at order "
                    f"{len(maps)}; reduce x or the moment order"
                )
        maps.append(nxt)
    return maps


def _match(maps: list[dict], m: int, k: int) -> float:
    """E[S^m conj(S)^k] = sum over the keys of A_m and A_k of A_m[key] A_k[key]."""
    A, B = maps[m], maps[k]
    if len(B) < len(A):
        A, B = B, A
    return math.fsum(amp * B[key] for key, amp in A.items() if key in B)


def torus_moment_exact(
    model: TorusModel, m: int, k: int, max_keys: int = 5_000_000
) -> complex:
    """Exact E[S^m conj(S)^k] by integer-keyed coefficient matching.

    Requires m + k <= 6; raises CapacityError when the coefficient maps
    outgrow max_keys. The value is real (coefficients are real and matching
    is diagonal); it is returned as complex per the moment's natural type.
    """
    m, k = int(m), int(k)
    if m < 0 or k < 0:
        raise DomainError("moment orders must be nonnegative")
    if m + k > 6:
        raise DomainError(f"moment order m + k = {m + k} exceeds the cap 6")
    return complex(_match(_coeff_maps(model, max(m, k), max_keys), m, k), 0.0)


def _j0(x: np.ndarray) -> np.ndarray:
    """Bessel J0 at x >= 0, with J0(inf) = 0, at a bounded cost per argument.

    Up to _J0_SERIES_MAX: the Maclaurin series in x^2, cut where its terms
    fall below 2^-56 at the largest such x. Up to _J0_HANKEL_MIN: the midpoint
    rule on the K = 31 _J0_NODES for (1/pi) int_0^pi cos(x sin th) dth, whose
    error is about 2|J_2K(x)| <= 2 (x/2)^2K / (2K)! (Trefethen & Weideman,
    SIAM Review 56 (2014)). Beyond: Hankel's expansion sqrt(2/(pi x))
    Re(e^{i(x - pi/4)} sum_k a_k(0) (i/x)^k), whose error is below its first
    omitted term (DLMF 10.17.iii).
    """
    small = x <= _J0_SERIES_MAX
    if not small.all():
        out = np.empty_like(x)
        out[small] = _j0(x[small])
        big = x > _J0_HANKEL_MIN
        mid = ~(small | big)
        out[mid] = np.cos(np.multiply.outer(x[mid], _J0_NODES)).mean(axis=-1)
        z = x[big]
        with np.errstate(invalid="ignore"):  # e^{iz} is nan at z = inf
            hankel = np.real(np.exp(1j * z) * (1 - 1j) * np.polyval(_J0_HANKEL, -1j / z))
        out[big] = np.where(z < np.inf, hankel / np.sqrt(np.pi * z), 0.0)
        return out
    x2 = x * x
    n = int(np.count_nonzero(np.abs(_J0_COEFF) * np.max(x2, initial=0.0) ** np.arange(13)
                             >= 2.0**-56))
    out = np.full_like(x2, _J0_COEFF[n - 1])
    for c in _J0_COEFF[:n - 1][::-1]:
        out *= x2
        out += c
    return out


def chf_product(
    model: TorusModel, u: float, v: float, quad_points: int = 64
) -> complex:
    """Exact chf E[e(u Re S + v Im S)] as a product of per-prime factors.

    Independence of the theta_p factorizes the expectation over primes. A
    prime with a single term c e(theta) (every p > sqrt(x)) contributes the
    closed form J0(2 pi c r), r = sqrt(u^2 + v^2), by the Jacobi-Anger
    expansion, evaluated by _j0 (Maclaurin series, the midpoint rule past
    x = 2, Hankel's expansion past x = 25). Each prime with several terms
    contributes a periodic integral evaluated by the midpoint rule
    (spectrally accurate here), with global point-doubling until successive
    values of the whole product agree below 1e-12; a product that is not
    finite raises QuadratureError at once.
    """
    if quad_points < 64:
        raise DomainError(f"quad_points must be >= 64, got {quad_points}")
    if not (math.isfinite(u) and math.isfinite(v)):
        raise DomainError(f"chf_product requires finite (u, v), got ({u:g}, {v:g})")
    counts = np.bincount(model.term_prime_index, minlength=model.n_primes())
    single = counts[model.term_prime_index] == 1
    bessel = float(np.prod(
        _j0(2.0 * math.pi * math.hypot(u, v) * model.term_coeff[single])
    ))
    # Terms of the primes with several terms as a padded matrix:
    # coeff_mat[g, j] is the (j+1)-th power coefficient of prime g.
    max_exp = int(np.max(model.term_exponent)) if len(model) else 1
    coeff_mat = np.zeros((model.n_primes(), max_exp))
    coeff_mat[model.term_prime_index, model.term_exponent - 1] = model.term_coeff
    coeff_mat = coeff_mat[counts > 1]

    def product_at(K: int) -> complex:
        theta = (np.arange(K) + 0.5) / K
        # z[g, i] = sum_j coeff[g, j] e((j+1) theta_i)
        phases = np.exp(
            2j * math.pi * np.outer(np.arange(1, max_exp + 1), theta)
        )
        z = coeff_mat @ phases
        integrand = np.exp(2j * math.pi * (u * z.real + v * z.imag))
        out = bessel * complex(np.prod(integrand.mean(axis=1)))
        if not np.isfinite(out):  # no doubling can mend it
            raise QuadratureError(f"chf_product is not finite at K = {K}, (u, v) = ({u:g}, {v:g})")
        return out

    K = int(quad_points)
    prev = product_at(K)
    for _ in range(8):
        K *= 2
        cur = product_at(K)
        if abs(cur - prev) <= 1e-12 * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(
        f"chf_product did not stabilize by K = {K} at (u, v) = ({u:g}, {v:g})"
    )


def _mc_blocks(n_samples: int):
    """Deterministic block layout: fixed size, independent of worker count."""
    blocks = []
    done = 0
    index = 0
    while done < n_samples:
        size = min(_MC_BLOCK, n_samples - done)
        blocks.append((index, size))
        done += size
        index += 1
    return blocks


def _mc_block_S(model: TorusModel, seed: int, block) -> np.ndarray:
    """S at one block of uniform torus samples, Philox keyed by (seed, block index)."""
    index, size = block
    rng = np.random.Generator(np.random.Philox(key=[int(seed), int(index)]))
    return _eval_S_block(model, rng.random((size, model.n_primes())))


def _mc_block_sums(model: TorusModel, u: float, v: float, seed: int, block):
    """(sum g, sum |g|^2, n) over one counter-seeded block of samples."""
    S = _mc_block_S(model, seed, block)
    g = np.exp(2j * math.pi * (u * S.real + v * S.imag))
    return complex(np.sum(g)), float(np.sum(np.abs(g) ** 2)), block[1]


def chf_montecarlo(
    model: TorusModel,
    u: float,
    v: float,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> tuple[complex, float]:
    """(estimate, std_error) of the chf from seeded uniform torus samples.

    Sampling is counter-based (Philox keyed by (seed, block index) over
    fixed 4096-sample blocks), so the estimate is bit-identical for any
    worker count. The standard error is the jackknife value, which for a
    sample mean equals sqrt(sum |g - mean|^2 / (n (n-1))).
    """
    if n_samples < 1000:
        raise DomainError(f"n_samples must be >= 1000, got {n_samples}")
    blocks = _mc_blocks(n_samples)
    if workers > 1 and len(blocks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    _mc_block_sums,
                    [model] * len(blocks),
                    [u] * len(blocks),
                    [v] * len(blocks),
                    [seed] * len(blocks),
                    blocks,
                )
            )
    else:
        parts = [_mc_block_sums(model, u, v, seed, b) for b in blocks]
    total = complex(0.0, 0.0)
    total_sq = 0.0
    n = 0
    for s, sq, size in parts:
        total += s
        total_sq += sq
        n += size
    mean = total / n
    var_sum = max(total_sq - n * abs(mean) ** 2, 0.0)
    se = math.sqrt(var_sum / (n * (n - 1)))
    return mean, se


def chf_moments_envelope(u: float, v: float, N: int) -> float:
    """Remainder envelope (6 sqrt(2) pi (|u|+|v|))^N / (N/2)! of the
    truncated moment expansion."""
    return (6.0 * math.sqrt(2.0) * math.pi * (abs(u) + abs(v))) ** N / math.gamma(
        N / 2.0 + 1.0
    )


def chf_by_moments(model: TorusModel, u: float, v: float, N: int = 6) -> complex:
    """Truncated moment expansion of the chf:

    sum_{k<N} (2 pi i)^k / k! sum_j C(k,j) C1^j C2^{k-j} E[S^j conj(S)^{k-j}],
    C1 = (u - iv)/2, C2 = (u + iv)/2. N must be even and <= 6 (the exact
    moment capacity); the associated remainder envelope is
    chf_moments_envelope(u, v, N).
    """
    N = int(N)
    if N < 2 or N % 2 or N > 6:
        raise DomainError(f"N must be an even integer in [2, 6], got {N}")
    maps = _coeff_maps(model, N - 1, max_keys=5_000_000)
    C1 = (u - 1j * v) / 2.0
    C2 = (u + 1j * v) / 2.0
    total = complex(0.0, 0.0)
    for k in range(N):
        inner = complex(0.0, 0.0)
        for j in range(k + 1):
            inner += math.comb(k, j) * C1**j * C2 ** (k - j) * _match(maps, j, k - j)
        total += (2j * math.pi) ** k / math.factorial(k) * inner
    return total


def moment_bound_check(
    model: TorusModel, k: int, n_samples: int, seed: int
) -> dict:
    """Check E|S|^{2k} against the bound 18^k k! (k <= 3).

    Monte Carlo estimate with standard error, cross-checked against the
    exact diagonal moment; returns a report dict with pass booleans.
    """
    k = int(k)
    if not (0 <= k <= 3):
        raise DomainError(f"moment_bound_check requires 0 <= k <= 3, got {k}")
    bound = 18.0**k * math.factorial(k)
    exact = torus_moment_exact(model, k, k).real
    total = total_sq = 0.0
    for block in _mc_blocks(n_samples):
        g = np.abs(_mc_block_S(model, seed, block)) ** (2 * k)
        total += float(np.sum(g))
        total_sq += float(np.sum(g * g))
    n = n_samples
    mc = total / n
    se = math.sqrt(max(total_sq - n * mc * mc, 0.0) / (n * (n - 1)))
    return {
        "k": k,
        "bound": bound,
        "exact": exact,
        "mc_estimate": mc,
        "mc_std_error": se,
        "exact_within_bound": exact <= bound,
        "mc_within_bound": mc <= bound + 3.0 * se,
        "mc_matches_exact": abs(mc - exact) <= 3.0 * se,
    }

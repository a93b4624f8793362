"""Random Euler-product model on the torus: one uniform phase per prime.

S(theta) = V^{-1/2} sum_{p^n <= x} (log p / p^{n sigma}) e(n theta_p),
e(y) = exp(2 pi i y). The phases are independent, so the exact low-order
joint moments come from a per-prime product, as does the exact chf. The
module provides exact sampling, those moments, and three characteristic
functions: the exact product form, a seeded Monte Carlo estimate, and the
truncated moment expansion with its remainder envelope.
Each chf takes floats (a scalar result) or 1-d axes (the matrix over the
grid) and does its set-up once per call. In the product form a prime with
a single term (every p > sqrt(x)) contributes the Bessel factor
J0(2 pi c_p r), r = |(u, v)|, once per distinct radius; midpoint quadrature
of the separable e(u Re z) e(v Im z) runs only over the primes p <= sqrt(x),
which have several terms. Monte Carlo draws its samples once, in fixed
Philox-keyed blocks, and evaluates them through lab.empirical_chf_grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import lab
from .arith import prime_powers_up_to
from .errors import DomainError, QuadratureError

_MC_BLOCK = 4096
_CHF_BLOCK_BYTES = 1 << 24  # chf_product's column factors B and their phases, per block
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
    term_coeff[i] = log p * p^{-n sigma} / sqrt(V). Immutable.
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


def _moment_table(model: TorusModel, n: int) -> np.ndarray:
    """M[i, j] = E[S^i conj(S)^j] for i, j <= n, by independence of the theta_p.

    E[exp(a S + b conj S)] is the product over primes of E[exp(a S_p + b conj S_p)],
    whose a^i b^j coefficient E[S_p^i conj(S_p)^j] / (i! j!) is the dot product of
    the Fourier coefficients of S_p^i and S_p^j, convolution powers of the prime's
    row. The product, cut at degree n in a and in b, is formed pairwise; every
    coefficient is nonnegative, so nothing cancels.
    """
    fact = np.cumprod([1.0, *range(1, n + 1)])  # fact[i] = i!
    scale = np.outer(fact, fact)
    counts = np.bincount(model.term_prime_index, minlength=model.n_primes())
    rows = np.zeros((model.n_primes(), int(np.max(counts, initial=0)) + 1))
    rows[model.term_prime_index, model.term_exponent] = model.term_coeff  # of e(n theta_g)
    P = [np.eye(1, (n + 1) ** 2).reshape(1, n + 1, n + 1)]
    for e in np.unique(counts).tolist():  # the primes with e terms, as one batch
        row, L = rows[counts == e, :e + 1], n * e + 1
        f = np.zeros((n + 1, len(row), L))  # f[i, g]: Fourier coefficients of S_g^i
        f[0, :, 0] = 1.0
        for i, k in np.ndindex(n, e):
            f[i + 1, :, k + 1:] += row[:, k + 1, None] * f[i, :, :L - k - 1]
        P.append(np.einsum("ipf,jpf->pij", f, f) / scale)
    P = np.concatenate(P)
    while len(P) > 1:  # neighbours multiply; an odd last factor waits a round
        A, B, prod = P[0:len(P) - 1:2], P[1::2], np.zeros_like(P[1::2])
        for i, j in np.ndindex(n + 1, n + 1):
            prod[:, i:, j:] += A[:, i, j, None, None] * B[:, :n + 1 - i, :n + 1 - j]
        P = np.concatenate([prod, P[len(P) - len(P) % 2:]])
    return P[0] * scale


def torus_moment_exact(model: TorusModel, m: int, k: int) -> complex:
    """Exact E[S^m conj(S)^k] for m + k <= 6, from _moment_table; real, returned
    as complex per the moment's natural type."""
    m, k = int(m), int(k)
    if m < 0 or k < 0:
        raise DomainError("moment orders must be nonnegative")
    if m + k > 6:
        raise DomainError(f"moment order m + k = {m + k} exceeds the cap 6")
    return complex(_moment_table(model, max(m, k))[m, k], 0.0)


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


def _axes(name: str, u, v) -> tuple[np.ndarray, np.ndarray, bool]:
    """u and v as finite 1-d float axes, and whether both came in as scalars."""
    ua, va = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if ua.ndim > 1 or va.ndim > 1 or not (np.isfinite(ua).all() and np.isfinite(va).all()):
        raise DomainError(f"{name} requires finite floats or 1-d axes (u, v)")
    return np.atleast_1d(ua), np.atleast_1d(va), ua.ndim == va.ndim == 0


@np.errstate(over="ignore", invalid="ignore")  # a phase past the float range raises below
def chf_product(model: TorusModel, u, v, quad_points: int = 64):
    """Exact chf E[e(u Re S + v Im S)] as a product of per-prime factors.

    u and v are floats (a complex result) or 1-d axes (the matrix
    chf(u_i, v_j)). Independence of the theta_p factorizes the expectation
    over primes. A prime with a single term c e(theta) (every p > sqrt(x))
    contributes the closed form J0(2 pi c r), r = sqrt(u^2 + v^2), by the
    Jacobi-Anger expansion, evaluated by _j0 (Maclaurin series, the midpoint
    rule past x = 2, Hankel's expansion past x = 25). Each prime with several
    terms contributes a periodic integral evaluated by the midpoint rule
    (spectrally accurate here), with point-doubling per node until successive
    values of the whole product agree below 1e-12; a product that is not
    finite raises QuadratureError at once. The grid runs as a whole: J0 once
    per distinct radius, and at each K one factor e(u_i Re z) per row and one
    e(v_j Im z) per column, in blocks of at most _CHF_BLOCK_BYTES. Each node
    sums in an order that does not depend on the grid, so each entry equals
    its one-node call bit for bit.
    """
    if quad_points < 64:
        raise DomainError(f"quad_points must be >= 64, got {quad_points}")
    ua, va, scalar = _axes("chf_product", u, v)
    several = np.bincount(model.term_prime_index, minlength=model.n_primes()) > 1
    multi = several[model.term_prime_index]  # the terms of the primes with several terms
    single_coeff = model.term_coeff[~multi]
    # Those as a padded matrix: coeff_mat[g, j] is the (j+1)-th coefficient of the g-th.
    max_exp = int(np.max(model.term_exponent)) if len(model) else 1
    coeff_mat = np.zeros((np.count_nonzero(several), max_exp))
    coeff_mat[np.cumsum(several)[model.term_prime_index[multi]] - 1,
              model.term_exponent[multi] - 1] = model.term_coeff[multi]
    # _j0 cuts its series at its largest argument, so it runs once per radius.
    radii, at = np.unique(np.hypot.outer(ua, va).ravel(), return_inverse=True)
    bessel = np.array([np.prod(_j0(2.0 * math.pi * r * single_coeff)) for r in radii.tolist()])
    out, bessel = np.empty((ua.size, va.size), dtype=complex), bessel[at].reshape(ua.size, va.size)
    unsettled = np.ones(out.shape, dtype=bool)
    prev = np.full(out.shape, np.inf)  # so that no node settles at the first K
    for K in (int(quad_points) << d for d in range(9)):
        theta = (np.arange(K) + 0.5) / K
        # z[g, k] = sum_j coeff[g, j] e((j+1) theta_k); e(u Re z + v Im z) = A[g, k] B[j, g, k]
        z = coeff_mat @ np.exp(2j * math.pi * np.outer(np.arange(1, max_exp + 1), theta))
        cur, cols = np.zeros(out.shape, dtype=complex), np.flatnonzero(unsettled.any(axis=0))
        step = max(1, _CHF_BLOCK_BYTES // max(24 * z.size, 1))  # B and its real phases
        for c in (cols[s:s + step] for s in range(0, cols.size, step)):
            B = 2j * math.pi * (va[c, None, None] * z.imag)
            np.exp(B, out=B)
            for i in np.flatnonzero(unsettled[:, c].any(axis=1)).tolist():
                A = np.exp(2j * math.pi * (ua[i] * z.real))
                # einsum sums each node's K terms in one order, whatever the grid's shape.
                cur[i, c] = np.prod(np.einsum("gk,jgk->jg", A, B) / K, axis=1)
            del A, B  # before the next chunk's B is formed
        cur *= bessel
        for i, j in np.argwhere(unsettled & ~np.isfinite(cur))[:1]:  # no doubling can mend it
            raise QuadratureError(f"chf_product is not finite at K = {K}, "
                                  f"(u, v) = ({ua[i]:g}, {va[j]:g})")
        done = unsettled & (np.abs(cur - prev) <= 1e-12 * np.maximum(1.0, np.abs(cur)))
        out[done], unsettled, prev = cur[done], unsettled & ~done, cur
        if not unsettled.any():
            return complex(out[0, 0]) if scalar else out
    i, j = np.argwhere(unsettled)[0]
    raise QuadratureError(f"chf_product did not stabilize by K = {K} at (u, v) = ({ua[i]:g}, {va[j]:g})")


def _sample_S(model: TorusModel, n_samples: int, seed: int) -> np.ndarray:
    """S at n_samples >= 1000 uniform torus samples, drawn in fixed
    4096-sample blocks with Philox keyed by (seed, block index)."""
    if n_samples < 1000:
        raise DomainError(f"n_samples must be >= 1000, got {n_samples}")
    blocks = []
    for index, start in enumerate(range(0, n_samples, _MC_BLOCK)):
        rng = np.random.Generator(np.random.Philox(key=[int(seed), index]))
        theta = rng.random((min(_MC_BLOCK, n_samples - start), model.n_primes()))
        blocks.append(_eval_S_block(model, theta))
    return np.concatenate(blocks)


def chf_montecarlo(model: TorusModel, u, v, n_samples: int, seed: int):
    """(estimate, std_error) of the chf from seeded uniform torus samples.

    u and v are floats (a complex estimate and a float error) or 1-d axes
    (matrices over the grid). The samples come from _sample_S, once per
    call; the estimate is lab.empirical_chf_grid over them. The standard
    error is the jackknife value sqrt(sum |g - mean|^2 / (n (n-1))), which
    is sqrt((1 - |mean|^2) / (n - 1)) because |g| = 1.
    """
    ua, va, scalar = _axes("chf_montecarlo", u, v)
    S = _sample_S(model, n_samples, seed)
    sset = lab.LineSampleSet(context=None, t_values=np.arange(S.size, dtype=float),
                             samples=S, flags=np.zeros(S.size, dtype=np.uint8),
                             sampling={"mode": "torus", "count": S.size, "seed": int(seed)})
    est = lab.empirical_chf_grid(sset, ua, va)
    se = np.sqrt(np.maximum(1.0 - np.abs(est) ** 2, 0.0) / (S.size - 1))
    return (complex(est[0, 0]), float(se[0, 0])) if scalar else (est, se)


def chf_moments_envelope(u: float, v: float, N: int) -> float:
    """Remainder envelope (6 sqrt(2) pi (|u|+|v|))^N / (N/2)! of the
    truncated moment expansion."""
    return (6.0 * math.sqrt(2.0) * math.pi * (abs(u) + abs(v))) ** N / math.gamma(
        N / 2.0 + 1.0
    )


def chf_by_moments(model: TorusModel, u, v, N: int = 6):
    """Truncated moment expansion of the chf:

    sum_{k<N} (2 pi i)^k / k! sum_j C(k,j) C1^j C2^{k-j} E[S^j conj(S)^{k-j}],
    C1 = (u - iv)/2, C2 = (u + iv)/2, at floats u and v (a complex result)
    or over 1-d axes (the matrix chf(u_i, v_j)); the moment table is
    computed once per call. N must be even and <= 6 (the exact moment
    cap); the associated remainder envelope is
    chf_moments_envelope(u, v, N).
    """
    N = int(N)
    if N < 2 or N % 2 or N > 6:
        raise DomainError(f"N must be an even integer in [2, 6], got {N}")
    ua, va, scalar = _axes("chf_by_moments", u, v)
    M = _moment_table(model, N - 1)
    C1 = (ua[:, None] - 1j * va) / 2.0
    C2 = (ua[:, None] + 1j * va) / 2.0
    total = np.zeros(C1.shape, dtype=complex)
    for k in range(N):
        inner = sum(math.comb(k, j) * C1**j * C2 ** (k - j) * M[j, k - j]
                    for j in range(k + 1))
        total += (2j * math.pi) ** k / math.factorial(k) * inner
    return complex(total[0, 0]) if scalar else total


def moment_bound_check(model: TorusModel, k: int, n_samples: int, seed: int) -> dict:
    """Check E|S|^{2k} against the bound 18^k k! (k <= 3).

    Monte Carlo estimate with standard error, cross-checked against the
    exact diagonal moment; returns a report dict with pass booleans.
    """
    k = int(k)
    if not (0 <= k <= 3):
        raise DomainError(f"moment_bound_check requires 0 <= k <= 3, got {k}")
    bound = 18.0**k * math.factorial(k)
    exact = torus_moment_exact(model, k, k).real
    g = np.abs(_sample_S(model, n_samples, seed)) ** (2 * k)
    n = n_samples
    blocks = np.split(g, range(_MC_BLOCK, n, _MC_BLOCK))  # summed in draw order
    mc = sum(float(np.sum(b)) for b in blocks) / n
    total_sq = sum(float(np.sum(b * b)) for b in blocks)
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

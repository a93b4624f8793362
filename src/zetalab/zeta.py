"""Error-controlled evaluation of zeta, its first two derivatives, the
logarithmic derivative, the Hardy Z function, and critical-line zero location.

The engine is Euler-Maclaurin summation

    zeta(s) = sum_{n<N} n^{-s} + N^{1-s}/(s-1) + N^{-s}/2
              + sum_{k=1..14} B_{2k}/(2k)! * (s)(s+1)...(s+2k-2) * N^{-s-2k+1}
              + remainder,

differentiated analytically for zeta' and zeta''. The remainder is bounded
by the first neglected (k = 15) term times |s+29|/(sigma+29) (Backlund).
With fourteen corrections the main sum stops near 0.3-0.4 max|t|
(_truncation); a scalar is a one-point block (_em_point). One loop, _terms,
yields every main-sum term, and every point gets a certificate. The zero
search refines every sign-change bracket at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._nufft import dirichlet_bound, dirichlet_masses, dirichlet_sum, exp_sum_direct, grid_step
from .errors import (
    CoverageError,
    DomainError,
    NearZeroError,
    PoleError,
    PrecisionError,
    RefinementError,
)

HEIGHT_CAP = 1.0e7

# B_{2k} = p/q for k = 1..15, exact.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
              (-236364091, 2730), (8553103, 6), (-23749461029, 870),
              (8615841276005, 14322))
# B_{2k}/(2k)!, correctly rounded (integer division): the first 14 are the
# Euler-Maclaurin corrections, the 15th bounds the remainder.
_EM_COEFF = tuple(p / (q * math.factorial(2 * k)) for k, (p, q) in enumerate(_BERNOULLI, start=1))
# B_{2k}/(2k(2k-1)), k = 1..5: Stirling's series for log Gamma, rounded in the
# steps theta has always used (p/q, then / (2k)!, then * (2k-2)!).
_STIRLING = tuple(p / q / math.factorial(2 * k) * math.factorial(2 * k - 2)
                  for k, (p, q) in enumerate(_BERNOULLI[:5], start=1))

_NEAR_ZERO_GUARD = 1e-10
_CHUNK = 16384
BAND = 256  # points per truncation in the band loop; grids past BAND terms take the NUFFT


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (1e-15 <= tol <= 1e-6):
        raise DomainError(f"tol must lie in [1e-15, 1e-6], got {tol:g}")
    return tol


def _em_eval(sigma: float, t: np.ndarray, N: int, n_derivs: int):
    """Euler-Maclaurin pass at fixed truncation N for s = sigma + i*t.

    Returns (values, rems): values is a list of arrays [zeta] (n_derivs=0),
    [zeta, zeta'] (=1) or [zeta, zeta', zeta''] (=2); rems holds matching
    first-neglected-term magnitude estimates.
    """
    t = np.asarray(t, dtype=np.float64)
    S = sum(exp_sum_direct(ln, w, t) for ln, w in _terms(sigma, N, n_derivs + 1))
    return _em_tail(sigma, t, N, list(S))


def _terms(sigma: float, N: int, rows: int):
    """(log n, rows n^-sigma log^d n for d < rows) over n < N, in _CHUNK-term
    blocks: the one main-sum loop of every Euler-Maclaurin route."""
    for lo in range(1, N, _CHUNK):
        ln = np.log(np.arange(lo, min(lo + _CHUNK, N), dtype=np.float64))
        yield ln, np.multiply.accumulate([np.exp(-sigma * ln)] + [ln] * (rows - 1))


def _em_tail(sigma: float, t: np.ndarray, N: int, S: list):
    """_em_eval's (values, rems) from its main sums S[d] = sum_{n<N} n^{-s}
    log^d n, d < len(S)."""
    n_derivs = len(S) - 1
    s = sigma + 1j * t
    L = math.log(N)
    Nc = float(N)
    phase = np.exp(-1j * t * L)
    A = Nc ** (1.0 - sigma) * phase / (s - 1.0)
    half = 0.5 * Nc**-sigma * phase

    vals = [S[0] + A + half]
    if n_derivs >= 1:
        A1 = -A * (L + 1.0 / (s - 1.0))
        vals.append(-S[1] + A1 - L * half)
    if n_derivs >= 2:
        A2 = A * ((L + 1.0 / (s - 1.0)) ** 2 + 1.0 / (s - 1.0) ** 2)
        vals.append(S[2] + A2 + L * L * half)

    # Bernoulli corrections T_k = c_k * P(s) * N^{-s-2k+1}, P = s(s+1)...(s+2k-2),
    # and their s-derivatives.
    rising = list(_rising(s))
    for k, (ck, products) in enumerate(zip(_EM_COEFF[:-1], rising), start=1):
        E = ck * Nc ** (-sigma - 2 * k + 1) * phase
        for d, term in enumerate(_times_N_power(*products, L, n_derivs)):
            vals[d] += E * term
    return vals, _em_rems(sigma, s, N, rising[-1], n_derivs)


def _rising(s: np.ndarray):
    """Yield (P, P', P'') for P(s) = s(s+1)...(s+2k-2), k = 1..15, from one
    product-rule recurrence, which stays finite at the zeros of single
    factors (s = 0)."""
    P, P1, P2 = np.ones_like(s), np.zeros_like(s), np.zeros_like(s)
    for j in range(2 * len(_EM_COEFF) - 1):
        P, P1, P2 = P * (s + j), P1 * (s + j) + P, P2 * (s + j) + 2.0 * P1
        if j % 2 == 0:
            yield P, P1, P2


def _times_N_power(P, P1, P2, L: float, n_derivs: int):
    """(d/ds)^d [P(s) N^-s] / N^-s for d <= n_derivs, L = log N."""
    return (P, P1 - L * P, P2 - 2.0 * L * P1 + L * L * P)[:n_derivs + 1]


def _em_rems(sigma: float, s: np.ndarray, N: int, last, n_derivs: int):
    """Bounds on the Euler-Maclaurin remainders after fourteen corrections at
    N: the first neglected term (k = 15, products `last` from _rising) times
    Backlund's |s+2K+1|/(sigma+2K+1), K = 14."""
    fac = abs(_EM_COEFF[-1]) * float(N) ** (-sigma - 29.0)
    fac = fac * np.abs(s + 29.0) / (sigma + 29.0)
    return [np.abs(term) * fac for term in _times_N_power(*last, math.log(N), n_derivs)]


def _truncation(sigma: float, t: np.ndarray, tol: float, n_derivs: int,
                floor=lambda N: (0.0,) * 3):
    """(N, rems) for a block of points: N solved from the remainders at
    max(16, ceil(max|t|/2pi)), which fall like N^-(sigma+29), then raised in 2%
    steps until every remainder r is at most tol/4, and so is r + floor(N)[d]
    wherever the caller's other error terms floor(N)[d] are; else the cap 16
    max(16, 1.25 max|t|). Rejects a non-finite sigma or t and the pole before any sum."""
    t = _check_t(t)
    if not math.isfinite(sigma):
        raise DomainError(f"sigma must be finite, got {sigma:g}")
    if abs(sigma - 1.0) < 1e-12 and np.any(np.abs(t) < 1e-12):
        raise PoleError("zeta has a pole at s = 1")
    t_top = float(np.max(np.abs(t)))
    if t_top > HEIGHT_CAP:
        raise PrecisionError(f"|t| = {t_top:g} exceeds the height cap {HEIGHT_CAP:g}")
    s, N = sigma + 1j * t, max(16, math.ceil(t_top / (2.0 * math.pi)))
    for last in _rising(s):  # walk the recurrence, keeping only the last triple
        pass
    N_last = 16 * max(16, int(1.25 * t_top) + 1)
    q = 0.25 * tol
    worst = max(float(np.max(r)) for r in _em_rems(sigma, s, N, last, n_derivs)) / q
    N = min(N_last, math.ceil(N * max(1.0, worst) ** (1.0 / (sigma + 29.0))))
    while True:
        rems = _em_rems(sigma, s, N, last, n_derivs)
        if N == N_last or all(np.all(r <= q) for r in rems) and all(
                np.all((r + f <= q) | (f > q)) for r, f in zip(rems, floor(N))):
            return N, rems
        N = min(N_last, math.ceil(1.02 * N))


def _em_point(sigma: float, t: float, tol: float, n_derivs: int):
    """[zeta, ...derivatives] at sigma + it as a one-point band: _em_eval at
    _truncation's N and at 2N, the 2N values returned when the two agree
    within tol/2 and every remainder at 2N is at most tol/2."""
    if sigma <= -4.0:
        raise DomainError(f"sigma = {sigma:g} is below the supported range (> -4)")
    tv = np.array([t], dtype=np.float64)
    N = _truncation(sigma, tv, tol, n_derivs)[0]
    prev = _em_eval(sigma, tv, N, n_derivs)[0]
    vals, rems = _em_eval(sigma, tv, 2 * N, n_derivs)
    if all(abs(v[0] - p[0]) <= 0.5 * tol and r[0] <= 0.5 * tol
           for v, p, r in zip(vals, prev, rems)):
        return [complex(v[0]) for v in vals]
    raise PrecisionError(
        f"tolerance {tol:g} not certified at s = {sigma:g}{t:+g}j (N = {N})"
    )


def _em_bands(sigma: float, t: np.ndarray, tol: float, n_derivs: int):
    """(values, rems) of _em_eval over t, arrays (n_derivs + 1, len(t)), in
    BAND-point blocks, each at its own _truncation N, all picked (and so all
    blocks checked) before the first sum."""
    vals = np.empty((n_derivs + 1, t.shape[0]), dtype=np.complex128)
    rems = np.empty(vals.shape)
    starts = range(0, t.shape[0], BAND)
    Ns = [_truncation(sigma, t[lo:lo + BAND], tol, n_derivs)[0] for lo in starts]
    for lo, N in zip(starts, Ns):
        block = slice(lo, lo + BAND)
        vals[:, block], rems[:, block] = _em_eval(sigma, t[block], N, n_derivs)
    return vals, rems


def zeta(s: complex, tol: float = 1e-12) -> complex:
    """Riemann zeta at s != 1 with absolute error <= tol."""
    tol = _check_tol(tol)
    s = complex(s)
    return _em_point(s.real, s.imag, tol, 0)[0]


def zeta_prime(s: complex, tol: float = 1e-12) -> complex:
    """First derivative of zeta, by the differentiated expansion."""
    tol = _check_tol(tol)
    s = complex(s)
    return _em_point(s.real, s.imag, tol, 1)[1]


def zeta_second(s: complex, tol: float = 1e-12) -> complex:
    """Second derivative of zeta; consumed by the variance identity."""
    tol = _check_tol(tol)
    s = complex(s)
    return _em_point(s.real, s.imag, tol, 2)[2]


def log_deriv(s: complex, tol: float = 1e-12) -> complex:
    """zeta'(s)/zeta(s).

    Raises NearZeroError (carrying t) when |zeta(s)| < _NEAR_ZERO_GUARD, so
    samplers can flag the point instead of keeping a huge quotient. The
    returned value has relative error roughly (1 + |result|) * tol / |zeta(s)|
    by first-order propagation.
    """
    tol = _check_tol(tol)
    s = complex(s)
    if s.real <= 0.5:
        raise DomainError(
            f"log_deriv requires Re(s) > 1/2, got {s.real:g} (zeros live at or "
            "left of the critical line)"
        )
    den, num = _em_point(s.real, s.imag, tol, 1)
    if abs(den) < _NEAR_ZERO_GUARD:
        raise NearZeroError(
            f"|zeta| = {abs(den):.3e} below guard {_NEAR_ZERO_GUARD:g} at t = {s.imag:g}",
            t=s.imag,
        )
    return num / den


def _quotient(z0, z1, errs, tol: float):
    """(values, flags) of z1/z0: flag 1 where |z0| < _NEAR_ZERO_GUARD, else
    flag 2 where an error bound errs[d] of z_d exceeds tol/4; flagged values NaN."""
    bad = (errs[0] > 0.25 * tol) | (errs[1] > 0.25 * tol)
    small = np.abs(z0) < _NEAR_ZERO_GUARD
    values = np.where(small | bad, np.nan + 1j * np.nan, z1 / np.where(small, 1.0, z0))
    flags = np.zeros(z0.shape[0], dtype=np.uint8)
    flags[small] = 1
    flags[bad & ~small] = 2
    return values, flags


def log_deriv_band(sigma: float, t: np.ndarray, tol: float = 1e-9):
    """zeta'/zeta at sigma + it for a sorted 1-d t: (values, flags), flags
    0 = ok, 1 = near_zero, 2 = precision_fail, flagged values NaN; an empty
    t gives two empty arrays.

    An equispaced t (_nufft.grid_step) takes one N, picked from max |t|;
    when N > BAND its main sums sum_{n<N} n^-s log^k n, k < 3, are one
    _nufft.dirichlet_sum (Odlyzko-Schonhage), flag 2 marking an EM
    remainder plus that sum's bound above tol/4. Other t, and grids with
    N <= BAND, go through the band loop (_em_bands) that hardy_z shares,
    flag 2 marking an EM remainder above tol/4, so results do not depend
    on how callers partition t at multiples of BAND.
    """
    tol = _check_tol(tol)
    if sigma <= 0.5:
        raise DomainError(f"log_deriv_band requires sigma > 1/2, got {sigma:g}")
    t = _check_t(t)
    if t.ndim != 1:
        raise DomainError(f"log_deriv_band needs a 1-d t, got the scalar {float(t):g}")
    step = grid_step(t)
    if step is not None:
        N, rems = _truncation(sigma, t, tol, 1, lambda N: dirichlet_bound(
            t, dirichlet_masses(_terms(sigma, N, 3))))
    if step is None or N <= BAND:
        (z0, z1), rems = _em_bands(sigma, t, tol, 1)
        return _quotient(z0, z1, rems, tol)
    S, bound = dirichlet_sum(_terms(sigma, N, 3), t)
    (z0, z1), _ = _em_tail(sigma, t, N, list(S[:2]))
    return _quotient(z0, z1, [r + e for r, e in zip(rems, bound)], tol)


def _check_t(t) -> np.ndarray:
    """t as a float64 array of at most one dimension, every entry finite."""
    tv = np.asarray(t, dtype=np.float64)
    if tv.ndim > 1:
        raise DomainError(f"t must be a float or a 1-d array, got shape {tv.shape}")
    bad = ~np.isfinite(tv)
    if bad.any():
        raise DomainError(f"t must be finite, got {tv[bad][0]:g}")
    return tv


def theta_riemann_siegel(t) -> np.ndarray | float:
    """Riemann-Siegel theta: Im log Gamma(1/4 + it/2) - (t/2) log pi, at a float
    t (returns a float) or a 1-d array of t: Stirling's series with the first five
    Bernoulli numbers (_STIRLING), its first neglected term below 3e-16 once |w| >= 15,
    after log Gamma(w) = log Gamma(w + m) - sum_{j<m} log(w + j) has moved
    w = 1/4 + it/2 that far right, with one m per call, set by min |t|."""
    b = 0.5 * _check_t(t)
    b_min = float(np.min(np.abs(b), initial=15.0))
    m = math.ceil(max(0.0, math.sqrt(max(0.0, 225.0 - b_min * b_min)) - 0.25))
    a = 0.25 + m
    w_inv = 1.0 / (a + 1j * b)
    series = np.zeros_like(w_inv)
    for c in reversed(_STIRLING):
        series = series * w_inv * w_inv + c
    # sum_{j<m} arg(w + j), its rounding carried in comp (Fast2Sum: terms shrink).
    shift, comp = np.zeros_like(b), np.zeros_like(b)
    for j in range(m):
        y = np.arctan2(b, 0.25 + j)
        shift, comp = shift + y, comp + ((shift - (shift + y)) + y)
    out = (((a - 0.5) * np.arctan2(b, a) - shift)
           + b * (np.log(np.hypot(a, b)) - 1.0 - math.log(math.pi))
           + ((series * w_inv).imag - comp))
    return out if out.ndim else float(out)


def hardy_z(t, tol: float = 1e-12):
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it), real on the critical line, at
    a float t (returns a float) or a 1-d array of t (returns an array).

    zeta comes from the BAND-point block loop that log_deriv_band shares,
    theta once for the whole array. PrecisionError names the first point
    whose Euler-Maclaurin remainder exceeds tol/4 or whose rotated value
    keeps an imaginary residue above the tolerance budget; DomainError
    names a non-finite t or an array of more than one dimension.
    """
    tol = _check_tol(tol)
    tv = np.atleast_1d(_check_t(t))
    (z,), (rem,) = _em_bands(0.5, tv, tol, 0)
    rot = np.exp(1j * theta_riemann_siegel(tv)) * z
    budget = np.maximum(tol, 1e-8 * np.maximum(1.0, np.abs(rot)))
    bad = (rem > 0.25 * tol) | (np.abs(rot.imag) > budget)
    if bad.any():
        i = int(np.argmax(bad))
        raise PrecisionError(f"Hardy Z not certified at t = {tv[i]:g}: remainder "
                             f"{rem[i]:.3e}, imaginary residue {rot.imag[i]:.3e}")
    return rot.real if np.ndim(t) else float(rot.real[0])


def _refine_zeros(a, b, za, zb, tol: float) -> np.ndarray:
    """Midpoints of the sign-change brackets [a, b] of Z (za * zb < 0), each
    shrunk to width <= 2 tol + 8.9e-16 b, all brackets in one hardy_z call per
    step: Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) halves the
    value at an end kept twice running, and bisects once one is kept thrice."""
    a, b, za, zb = (np.array(v, dtype=np.float64) for v in (a, b, za, zb))
    kept = np.zeros(a.shape, dtype=np.int64)  # steps b was kept running (< 0: a)
    for _ in range(100):
        target = 2.0 * tol + 8.9e-16 * b
        i = np.nonzero(b - a > target)[0]
        if not i.size:
            return 0.5 * (a + b)
        x = np.where(np.abs(kept[i]) > 2, 0.5 * (a[i] + b[i]),
                     b[i] - zb[i] * (b[i] - a[i]) / (zb[i] - za[i]))
        x = np.clip(x, a[i] + 0.25 * target[i], b[i] - 0.25 * target[i])
        zx = hardy_z(x, min(max(tol / 4, 1e-15), 1e-10))
        up = np.sign(zx) == np.sign(za[i])  # the zero lies in [x, b]
        kept[i] = (np.abs(kept[i]) < 3) * np.where(up, np.maximum(kept[i], 0) + 1,
                                                   np.minimum(kept[i], 0) - 1)
        zb[i] *= np.where(kept[i] == 2, 0.5, 1.0)
        za[i] *= np.where(kept[i] == -2, 0.5, 1.0)
        a[i], za[i] = np.where(up, x, a[i]), np.where(up, zx, za[i])
        b[i], zb[i] = np.where(up, b[i], x), np.where(up, zb[i], zx)
    raise RefinementError(f"zero bracket [{a[i[0]]!r}, {b[i[0]]!r}] still wider than "
                          f"{target[i[0]]:.3e} after 100 steps", interval=(a[i[0]], b[i[0]]))


@dataclass(frozen=True)
class ZeroList:
    """Sorted zeta zeros (beta, gamma) with provenance and coverage height.

    ``coverage`` is the height up to which the list is known to be complete;
    operations that count or window over (0, T] require coverage >= T.
    """

    beta: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    source: str = "synthetic"
    coverage: float = 0.0

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        gamma = np.asarray(self.gamma, dtype=np.float64)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        if beta.shape != gamma.shape:
            raise DomainError("beta and gamma must have equal length")
        if not (np.isfinite(gamma).all() and math.isfinite(self.coverage)):
            raise DomainError(f"zero ordinates and coverage must be finite (coverage {self.coverage!r})")
        if gamma.size and not np.all(np.diff(gamma) > 0):
            raise DomainError("gamma ordinates must be strictly increasing")
        if beta.size and not (np.all(beta > 0) and np.all(beta < 1)):
            raise DomainError("betas must lie in (0, 1)")
        if self.source not in ("computed", "ingested", "synthetic"):
            raise DomainError(f"unknown zero list source {self.source!r}")

    def __len__(self) -> int:
        return int(self.gamma.shape[0])


def make_zero_list(pairs, source: str = "synthetic", coverage: float = 0.0) -> ZeroList:
    """ZeroList from (beta, gamma) pairs, sorted by gamma."""
    arr = sorted((float(g), float(b)) for b, g in pairs)
    gamma = np.array([g for g, _ in arr], dtype=np.float64)
    beta = np.array([b for _, b in arr], dtype=np.float64)
    return ZeroList(beta=beta, gamma=gamma, source=source, coverage=float(coverage))


def _zero_scan_grid(t_max: float, shrink: int) -> np.ndarray:
    """Scan grid with local step ~ a quarter of the mean zero gap."""
    pts = [2.0]
    t = 2.0
    while t < t_max:
        gap = 2.0 * math.pi / max(1.0, math.log(max(t, 10.0) / (2.0 * math.pi)))
        h = min(0.25, gap / 4.0) / shrink
        t = min(t + h, t_max)
        pts.append(t)
    return np.array(pts, dtype=np.float64)


def find_zero_ordinates(t_max: float, tol: float = 1e-9) -> ZeroList:
    """All critical-line zero ordinates 0 < gamma <= t_max, each within tol.

    Sign changes of Hardy Z on an adaptive grid bracket the zeros, and
    _refine_zeros shrinks every bracket at once; all sign changes are assumed
    simple (standard at desk heights). The count is cross-checked against the
    smooth ordinate-count prediction theta(t_max)/pi + 1; on mismatch the grid
    is refined 3x (twice) before a RefinementError reports the suspect interval.
    """
    tol, t_max = float(tol), float(t_max)
    if not (0 < t_max <= HEIGHT_CAP):
        raise DomainError(f"t_max must lie in (0, {HEIGHT_CAP:g}]")
    if not (0 < tol < math.inf):
        raise DomainError(f"tol must be finite and > 0, got {tol:g}")
    if t_max <= 14.0:
        return ZeroList(
            beta=np.zeros(0), gamma=np.zeros(0), source="computed", coverage=t_max
        )

    counts: list[int] = []
    for attempt in range(3):
        grid = _zero_scan_grid(t_max, shrink=3**attempt)
        zvals = hardy_z(grid, 1e-9)
        i = np.nonzero(zvals[:-1] * zvals[1:] < 0.0)[0]
        ordinates = _refine_zeros(grid[i], grid[i + 1], zvals[i], zvals[i + 1], tol)
        predicted = float(theta_riemann_siegel(t_max)) / math.pi + 1.0
        counts.append(len(ordinates))
        accept = abs(len(ordinates) - predicted) <= 0.7
        if not accept and attempt == 2 and counts[0] == counts[1] == counts[2]:
            # The deviation of the true count from the smooth prediction
            # genuinely exceeds 0.7 on a sparse set of heights (it first
            # passes 1 only near t ~ 2.9e3, far beyond this searcher's
            # range), so a count that survived three grid refinements
            # unchanged inside a 1.3 window is fluctuation, not a missed
            # pair: any pair the base grid could hide is separated by the
            # ninefold-refined one.
            accept = abs(len(ordinates) - predicted) <= 1.3
        if accept:
            return ZeroList(
                beta=np.full(ordinates.shape, 0.5),
                gamma=ordinates,
                source="computed",
                coverage=t_max,
            )
    raise RefinementError(
        f"zero count {len(ordinates)} disagrees with smooth prediction "
        f"{predicted:.3f} after grid refinement",
        interval=(2.0, t_max),
    )


def count_zeros_above(sigma0: float, T: float, zeros: ZeroList) -> int:
    """Count of list entries with beta > sigma0 and 0 < gamma < T."""
    if zeros.coverage < T:
        raise CoverageError(
            f"zero list coverage {zeros.coverage:g} does not reach T = {T:g}"
        )
    sel = (zeros.gamma > 0) & (zeros.gamma < T) & (zeros.beta > sigma0)
    return int(np.count_nonzero(sel))


def zero_table_text(zeros: ZeroList) -> str:
    """Plain-text zero table: '# key=value' header lines, then 'beta gamma'."""
    lines = [f"# source={zeros.source}", f"# coverage={float(zeros.coverage)!r}"]
    for b, g in zip(zeros.beta, zeros.gamma):
        lines.append(f"{float(b)!r} {float(g)!r}")
    return "\n".join(lines) + "\n"


def read_zero_table(path) -> ZeroList:
    """Read a zero table in zero_table_text's format (or written by hand).

    Lines starting with '#' are comments; a '# coverage=...' comment is
    honored, otherwise coverage defaults to the largest ordinate read.  A
    line that is not ASCII, or is not two floats or a coverage float, raises
    DomainError naming it.
    """
    betas: list[float] = []
    gammas: list[float] = []
    coverage = None
    with open(path, "rb") as fh:
        for no, raw in enumerate(fh, 1):
            try:  # UnicodeDecodeError is a ValueError too
                line = raw.decode("ascii").strip()
                if line.startswith("#"):
                    body = line[1:].strip()
                    if body.startswith("coverage="):
                        coverage = float(body.split("=", 1)[1])
                elif line:
                    b, g = map(float, line.split())  # ValueError also for other than two cells
                    betas.append(b)
                    gammas.append(g)
            except ValueError as exc:
                text = raw.decode("ascii", "backslashreplace").strip()
                raise DomainError(f'malformed zero table line {no} "{text}": {exc}') from None
    gamma = np.array(gammas, dtype=np.float64)
    if coverage is None:
        coverage = float(gamma[-1]) if gamma.size else 0.0
    return ZeroList(
        beta=np.array(betas, dtype=np.float64),
        gamma=gamma,
        source="ingested",
        coverage=coverage,
    )

"""Weighted explicit-formula machinery: the smoothing weight w_x(n), the
local validity threshold sigma_xt, the prime-power Dirichlet polynomial
prime_poly (plain or weighted), and residual scans quantifying how well the
weighted polynomial tracks -zeta'/zeta along a line.

The weight is 1 up to x, then decays through two quadratic-in-log branches
and vanishes beyond x^3, staying inside [0, 1] with continuous joins. The
threshold sigma_xt gates where the approximation is trusted: it exceeds 1/2
by twice the larger of (nearby zero's beta - 1/2) and 2/log x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._nufft import dirichlet_sum
from .arith import lambda_segments, segment_starts
from .errors import CoverageError, DomainError
from .zeta import ZeroList, log_deriv_band


@dataclass(frozen=True)
class SelbergWeightSpec:
    """Weight parameters: cut point x >= 10 whose cube x^3 is a finite float."""

    x: float

    def __post_init__(self):
        if not (self.x >= 10 and math.isfinite(self.x * self.x * self.x)):
            raise DomainError(f"weight requires x >= 10 with a finite cube x^3, got {self.x:g}")


def weight_w(n, spec: SelbergWeightSpec):
    """Piecewise smoothing weight w_x(n); scalar or ndarray in, like out.
    The branches are those of _weight_of_log at l = log n."""
    arr = np.atleast_1d(np.asarray(n, dtype=np.float64))
    if np.any(arr < 1):
        raise DomainError("weight_w requires n >= 1")
    out = _weight_of_log(np.log(arr), float(np.log(spec.x)))
    return float(out[0]) if np.ndim(n) == 0 else out


def _weight_of_log(ell: np.ndarray, L: float) -> np.ndarray:
    """w_x at l = log n, L = log x, both from np.log (so n = x gives exactly 1):
      l <= L         : 1
      L < l <= 2L    : ((3L - l)^2 - 2(2L - l)^2) / (2 L^2)
      2L < l <= 3L   : (3L - l)^2 / (2 L^2)
      l > 3L         : 0
    """
    out = np.subtract(3.0 * L, ell)
    out *= out
    out /= 2.0 * L * L
    mid = ell <= 2.0 * L
    a, b = 3.0 * L - ell[mid], 2.0 * L - ell[mid]
    out[mid] = (a * a - 2.0 * b * b) / (2.0 * L * L)
    out[ell <= L] = 1.0
    out[ell > 3.0 * L] = 0.0
    return out


def weight_branch_gaps(x: float) -> dict:
    """|left - right| of adjacent branch formulas at the joins x, x^2, x^3.

    Evaluates the closed-form branches at the exact breakpoints in floating
    point; the joins are analytically continuous (1, 1/2, 0), so the gaps
    measure pure rounding.
    """
    L = math.log(x)

    def branch2(ell):
        return ((3 * L - ell) ** 2 - 2 * (2 * L - ell) ** 2) / (2 * L * L)

    def branch3(ell):
        return (3 * L - ell) ** 2 / (2 * L * L)

    return {
        "at_x": abs(1.0 - branch2(L)),
        "at_x2": abs(branch2(2 * L) - branch3(2 * L)),
        "at_x3": abs(branch3(3 * L) - 0.0),
    }


def _qualifying_window(x: float, beta: np.ndarray) -> np.ndarray:
    return x ** (3.0 * np.abs(beta - 0.5)) / math.log(x)


def sigma_xt(x: float, t, zeros: ZeroList):
    """Local explicit-formula threshold 1/2 + 2 max(max_q(beta - 1/2), 2/log x).

    A zero qualifies when |t - gamma| (or |t + gamma|, by conjugate symmetry
    of the zero set) is at most x^{3|beta-1/2|}/log x. The zero list must
    cover the largest such window around every t for its own betas. t is a
    float (float result) or an array (array of thresholds, same shape).
    """
    if x < 2:
        raise DomainError(f"sigma_xt requires x >= 2, got {x:g}")
    ts = np.asarray(t, dtype=np.float64)
    if np.any(ts <= 0):
        raise DomainError(f"sigma_xt requires t > 0, got {float(np.min(ts)):g}")
    L = math.log(x)
    win = _qualifying_window(x, zeros.beta)
    reach = float(np.max(ts)) + (float(np.max(win)) if len(zeros) else 1.0 / L)
    if zeros.coverage < reach:
        raise CoverageError(
            f"zero list coverage {zeros.coverage:g} below t + window = {reach:g}"
        )
    # Only zeros with beta - 1/2 above the floor 2/log x can raise it.
    lift = zeros.beta - 0.5 > 2.0 / L
    b, g, w = zeros.beta[lift], zeros.gamma[lift], win[lift]
    tc = ts[..., None]
    hit = (np.abs(tc - g) <= w) | (np.abs(tc + g) <= w)
    best = np.max(np.where(hit, b - 0.5, 2.0 / L), axis=-1, initial=2.0 / L)
    out = 0.5 + 2.0 * best
    return float(out) if ts.ndim == 0 else out


@dataclass(frozen=True)
class ScanResult:
    """Per-point residual records plus run-level summary statistics.

    Arrays are aligned with the input grid. flags: 0 ok, 1 = sigma below the
    local threshold, 2 = any zeta engine flag (near a zero, or uncertified). lhs,
    poly and bound hold at every point; residual = lhs - poly at 0, NaN elsewhere.
    """

    t: np.ndarray
    lhs: np.ndarray
    poly: np.ndarray
    residual: np.ndarray
    bound: np.ndarray
    flags: np.ndarray
    summary: dict


def prime_poly(sigma: float, t, x: float, weighted: bool = False):
    """sum_n a(n) Lambda(n) n^{-sigma-it}: a = 1 on n <= x, or a = w_x(n) on n <= x^3.

    t is a float (complex result) or a 1-d array. Prime powers stream from
    lambda_segments, so no table is materialized, and each gets the real
    coefficient a(n) Lambda(n) exp(-sigma log n) from one log, all summed by one
    _nufft.dirichlet_sum. A non-finite sigma, x or t, or a stream end (x, or x^3
    when weighted) above 1e10, raises DomainError.
    """
    ts = np.asarray(t, dtype=np.float64)
    out = _poly_sum(sigma, np.atleast_1d(ts), x, weighted, 0.0)[0]
    return complex(out[0]) if ts.ndim == 0 else out


# psi(u) < 1.03883 u for every u > 0 (Rosser & Schoenfeld, Illinois J. Math. 6 (1962), Thm 12).
_PSI_RATIO = 1.03883
_TAIL_STEP = 1e-3  # node spacing in log u: the left sums exceed the integral by about 0.1%
_STREAM_REACH = 1e10  # the farthest end y of a prime stream: ~40 s of sieving alone


def _psi_floor(u: np.ndarray) -> np.ndarray:
    """The lower bound on psi(u) that _tail_cut charges (0 below u = 41). The tests
    check it against the exact psi up to 6.4e7; above, it rests on the citation."""
    shave = np.where(u >= 563, 0.5, 1.0) / np.log(np.maximum(u, 41.0))
    return np.where(u >= 41, u * (1.0 - shave), 0.0)


def _tail_cut(sigma: float, x: float, budget: float):
    """(y, bound): the least node y = e^{k h}, h = _TAIL_STEP, whose bound on the tail
    sum_{y < n <= x^3} w_x(n) Lambda(n) n^-sigma is at most budget, and that bound;
    (x^3, 0.0) when no node's is, or for sigma < 0.

    For sigma >= 0, f(u) = w_x(u) u^-sigma is nonnegative, nonincreasing and 0 at
    x^3, so partial summation against psi(u) < 1.03883 u bounds the tail by
    (1.03883 y - psi(y)) f(y) + 1.03883 int_y^{x^3} f(u) du. psi(y) >= theta(y) is
    charged at y (1 - 1/(2 log y)) for y >= 563 and y (1 - 1/log y) for
    41 <= y < 563 (Rosser & Schoenfeld 1962, Thm 4, (3.16) and (3.15)), and at 0
    below. The integral is replaced by its left sum over the nodes, an upper bound
    because f is nonincreasing.
    """
    top = x**3
    if not (sigma >= 0 and budget > 0):
        return top, 0.0
    ell = np.arange(0.0, math.log(top), _TAIL_STEP)
    u = np.append(np.exp(ell), top)
    f = np.exp(-sigma * ell) * _weight_of_log(ell, float(np.log(x)))
    integral = np.cumsum((f * np.diff(u))[::-1])[::-1]
    bound = (_PSI_RATIO * u[:-1] - _psi_floor(u[:-1])) * f + _PSI_RATIO * integral
    fits = np.flatnonzero(bound <= budget)
    return (float(u[fits[0]]), float(bound[fits[0]])) if fits.size else (top, 0.0)


def _poly_sum(sigma: float, grid: np.ndarray, x: float, weighted: bool, tol: float):
    """(values, y, bound): prime_poly on the 1-d grid, the point y where its stream
    stops, and a bound on its distance to the full sum: the tail bound plus the
    largest bound of dirichlet_sum.

    tol = 0 sums every term. tol > 0, weighted only, is an absolute budget: the
    stream stops at the cut of _tail_cut, whose tail bound is at most tol/8, and
    each segment's add spends an even share of tol/8 on its Taylor orders (where
    nine orders fit it): together at most tol/4 beside the rest of that bound.
    A negative or non-finite tol, or a y above _STREAM_REACH, raises DomainError.
    """
    if not (math.isfinite(sigma) and math.isfinite(x) and np.all(np.isfinite(grid))):
        raise DomainError(f"prime_poly requires finite sigma, x and t, got sigma={sigma!r}, x={x!r}")
    if not (tol >= 0 and math.isfinite(tol)):
        raise DomainError(f"the polynomial's budget needs a finite tol >= 0, got {tol!r}")
    L = float(np.log(SelbergWeightSpec(x=x).x)) if weighted else None  # checks x
    y, tail = _tail_cut(sigma, x, tol / 8) if tol > 0 else (x**3 if weighted else x, 0.0)
    if y > _STREAM_REACH:
        raise DomainError(f"the prime stream would run to y={y:.3g} (sigma={sigma!r}, x={x!r}, "
                          f"tol={tol!r}), beyond its reach {_STREAM_REACH:g}")
    budget = tol / 8 / max(1, len(segment_starts(1, y))) if tol > 0 else None

    def segments():
        for value, logp in lambda_segments(1, y):  # log n, then n^-sigma a(n) Lambda(n) in place
            lv = value.astype(np.float64)
            lv = np.log(lv, out=lv)
            w = np.multiply(lv, -sigma)
            w = np.exp(w, out=w)
            w *= np.multiply(logp, _weight_of_log(lv, L), out=logp) if weighted else logp
            yield lv, w[None]
    (out,), (bound,) = dirichlet_sum(segments(), grid, budget)
    return out, y, tail + float(np.max(bound, initial=0.0))


def convergent_tail_bound(sigma: float, x: float) -> float:
    """Upper bound for sum_{n > x} Lambda(n) n^{-sigma}, sigma > 1.

    Uses Lambda(n) <= log n and the closed-form integral of log u * u^{-sigma};
    bounds the full modification error of the weighted polynomial relative to
    the absolutely convergent series (weights only differ from 1 above x).
    """
    if sigma <= 1.0:
        raise DomainError("convergent tail bound needs sigma > 1")
    a = sigma - 1.0
    lx = math.log(x)
    return x**-a * (lx / a + 1.0 / (a * a)) + lx * x**-sigma


def explicit_formula_scan(
    sigma: float,
    x: float,
    t_grid: np.ndarray,
    zeros: ZeroList,
    tol: float = 1e-9,
) -> ScanResult:
    """Residuals lhs - poly over a t grid, with threshold gating.

    lhs = -zeta'/zeta(sigma + it); poly = the weighted polynomial at the same
    point; bound is the standard envelope x^{(1/2-sigma)/2} (|poly| + log t).
    Points with sigma < sigma_xt get flag 1 and points the zeta engine flags
    get flag 2 (see ScanResult). The summary reports flag counts (every flag 2
    in "n_flagged_near_zero") and quantiles of |residual|/bound over ok points.
    """
    if not math.isfinite(sigma):
        raise DomainError(f"sigma must be finite, got {sigma!r}")
    SelbergWeightSpec(x=x)  # checks x before the threshold and zeta work
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1 or t.shape[0] == 0:
        raise DomainError("t_grid must be a nonempty 1-d array")
    if np.any(t <= 0) or not np.all(np.diff(t) > 0):
        raise DomainError("t_grid must be positive and strictly increasing")

    threshold = sigma_xt(x, t, zeros)
    flags = np.zeros(t.shape[0], dtype=np.uint8)
    flags[sigma < threshold] = 1

    lhs_raw, engine_flags = log_deriv_band(sigma, t, tol=tol)
    flags[(flags == 0) & (engine_flags != 0)] = 2
    lhs = -lhs_raw

    poly, poly_terms_to, poly_error_bound = _poly_sum(sigma, t, x, True, tol)
    ok = flags == 0
    residual = np.where(ok, lhs - poly, np.nan + 1j * np.nan)
    bound = x ** ((0.5 - sigma) / 2.0) * (np.abs(poly) + np.log(t))

    ratios = np.abs(residual[ok]) / bound[ok]
    q50, q90, q99 = _quantiles(ratios, (0.5, 0.9, 0.99)) if ratios.size else (None,) * 3
    summary = {
        "sigma": float(sigma),
        "x": float(x),
        "n_points": int(t.shape[0]),
        "n_ok": int(np.count_nonzero(ok)),
        "n_flagged_sigma_gate": int(np.count_nonzero(flags == 1)),
        "n_flagged_near_zero": int(np.count_nonzero(flags == 2)),
        "flagged_fraction": float(np.count_nonzero(flags != 0) / t.shape[0]),
        "ratio_q50": q50,
        "ratio_q90": q90,
        "ratio_q99": q99,
        "ratio_max": float(np.max(ratios)) if ratios.size else None,
        "max_abs_residual": float(np.max(np.abs(residual[ok]))) if ratios.size else None,
        "convergent_tail_bound": (
            convergent_tail_bound(sigma, x) if sigma > 1.0 else None
        ),
        "poly_terms_to": poly_terms_to,
        "poly_error_bound": poly_error_bound,
    }
    return ScanResult(
        t=t, lhs=lhs, poly=poly, residual=residual, bound=bound, flags=flags,
        summary=summary,
    )


def _quantiles(v: np.ndarray, qs) -> list:
    """np.quantile(v, q) for each q, bit for bit, from one sort and without the numpy.ma
    import of np.quantile's first call: numpy's linear rule at the index (n - 1) q."""
    s, n, out = np.sort(v), v.size - 1, []
    for q in qs:  # a NaN sorts last, and np.quantile returns NaN for every q
        i = min(math.floor(n * q), n)
        a, b, g = s[i], s[min(i + 1, n)], n * q - i
        out.append(math.nan if np.isnan(s[-1]) else
                   float(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)))
    return out


def scan_csv_text(result: ScanResult) -> str:
    """CSV text: t, lhs_re, lhs_im, poly_re, poly_im, res_abs, bound, flagged."""
    ok = result.flags == 0
    # hypot rounds as abs() of one complex does; np.abs of a complex array may differ by an ulp.
    res_abs = np.where(ok, np.hypot(result.residual.real, result.residual.imag), np.nan)
    columns = (result.t, result.lhs.real, result.lhs.imag, result.poly.real,
               result.poly.imag, res_abs, result.bound, (~ok).astype(int))
    rows = [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    return "\n".join(["t,lhs_re,lhs_im,poly_re,poly_im,res_abs,bound,flagged", *rows]) + "\n"

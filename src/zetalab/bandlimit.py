"""Band-limited majorants and minorants of interval indicator functions.

This module builds the classical extremal approximations to the signum
function and, from them, one-sided band-limited approximations to the
indicator of an interval [a, b]: an entire majorant F+ >= 1_[a,b] and
minorant F- <= 1_[a,b] whose Fourier transforms vanish outside
[-delta, delta] and whose excess integrals attain the optimal value
1/delta.  Everything here is real-analytic, so the verification
helpers (excess integral, windowed Fourier transform, domination
report) can work to near machine precision.

The Fourier transform has a closed form (Vaaler, Bull. AMS 12 (1985)),
which `BandlimitedFunction.hat` evaluates: with L = b - a, m = (a + b)/2
and e(x) = exp(2 pi i x),

    F_hat(xi) = e(-m xi) [L sinc(L xi) J_hat(xi/delta)
                          +/- cos(pi L xi) (1 - |xi/delta|)_+ / delta],
    J_hat(s)  = (1 - |s|) cos(pi s)/sinc(s) + |s|   for |s| < 1, else 0,

with + for the majorant and - for the minorant.  `fourier_transform`
integrates F numerically over a finite window instead; it stays as the
independent check that `verify_bandlimit` (and so `bs`) and the tests
compare the closed form against.

The signum approximant B is evaluated in closed form.  Its defining
series

    B(y) = (sin(pi y)/pi)^2 (sum_{n>=0} (y-n)^{-2}
                             - sum_{n>=1} (y+n)^{-2} + 2/y)

telescopes against the partial-fraction expansion of 1/sin^2, leaving

    B(y) = 1 + 2 sinc(y)^2 (y - y^2 psi_1(1+y))      for y >= 0,

where psi_1 is the trigamma function and sinc(y) = sin(pi y)/(pi y).
Negative arguments follow from the reflection B(-y) = 2 sinc(y)^2 - B(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

_GL_NODES = 16
# verify_bandlimit: |F_hat| beyond delta (1 + _MARGIN) must stay below
# _BANDLIMIT_TOL * scale, and everywhere below _EVERYWHERE_CONST * scale.
_MARGIN, _BANDLIMIT_TOL, _EVERYWHERE_CONST = 0.05, 1e-4, 2.0

# Nodes and weights for the fixed-order Gauss-Legendre panel rule,
# computed once on [-1, 1].
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)


def _excess_over_one(y: np.ndarray) -> np.ndarray:
    """B(y) - 1 for y >= 0.  Positive, bounded by sinc(y)^2."""
    from scipy.special import polygamma  # only B and the tail bounds load scipy
    s = np.sinc(y)
    return 2.0 * s * s * (y - y * y * polygamma(1, 1.0 + y))


def beurling_B(x):
    """Extremal majorant of sgn: entire, type 2*pi, B >= sgn, integral excess 1.

    Vectorized over `x`; scalar input returns a float.  Total on the
    real line (the removable singularities at integers are absorbed by
    the sinc factorization).
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    y = np.atleast_1d(arr).astype(float, copy=True)
    out = np.empty_like(y)
    pos = y >= 0.0
    if np.any(pos):
        out[pos] = 1.0 + _excess_over_one(y[pos])
    if not np.all(pos):
        yn = -y[~pos]
        s = np.sinc(yn)
        out[~pos] = 2.0 * s * s - (1.0 + _excess_over_one(yn))
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def _sinc_sq_tail(y_lo) -> float:
    """Integral of sinc(y)^2 = (sin(pi y)/(pi y))^2 over [y_lo, infinity), y_lo > 0."""
    y_lo = float(y_lo)
    if y_lo <= 0.0:
        raise DomainError("tail integral defined for positive lower limit")
    from scipy.special import sici
    z = 2.0 * math.pi * y_lo
    si, _ = sici(z)
    return ((1.0 - math.cos(z)) / y_lo + 2.0 * math.pi * (0.5 * math.pi - si)) / (2.0 * math.pi ** 2)


@dataclass(frozen=True)
class BandlimitedFunction:
    """One-sided band-limited approximation to the indicator of [a, b].

    kind="majorant": F(x) >= 1_[a,b](x) everywhere, F = (1/2)(B(delta(x-a)) + B(delta(b-x))).
    kind="minorant": F(x) <= 1_[a,b](x) everywhere, F = -(1/2)(B(delta(a-x)) + B(delta(x-b))).

    Both have Fourier transform supported in [-delta, delta] and
    integral (b-a) +/- 1/delta.
    """

    a: float
    b: float
    delta: float
    kind: str

    def __post_init__(self):
        for name in ("a", "b", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if not (self.b >= self.a):
            raise DomainError(f"interval requires b >= a, got [{self.a}, {self.b}]")
        if not (self.delta > 0.0):
            raise DomainError(f"band limit must be positive, got {self.delta}")
        if self.kind not in ("majorant", "minorant"):
            raise DomainError(f"kind must be 'majorant' or 'minorant', got {self.kind!r}")

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        xs = np.atleast_1d(arr)
        d = self.delta
        if self.kind == "majorant":
            vals = 0.5 * (beurling_B(d * (xs - self.a)) + beurling_B(d * (self.b - xs)))
        else:
            vals = -0.5 * (beurling_B(d * (self.a - xs)) + beurling_B(d * (xs - self.b)))
        if scalar:
            return float(vals[0])
        return vals.reshape(arr.shape)

    def hat(self, xi):
        """Fourier transform of F at frequencies xi, in closed form (module docstring).

        Vectorized over `xi`; scalar input returns a complex.  Zero for
        |xi| >= delta; the sinc form has no 0/0 at xi = 0 or |xi| -> delta.
        """
        xi_arr = np.asarray(xi, dtype=float)
        L = self.b - self.a
        m = 0.5 * (self.a + self.b)
        s = np.abs(xi_arr) / self.delta
        inside = s < 1.0
        s_in = np.where(inside, s, 0.0)
        j_hat = np.where(inside,
                         (1.0 - s_in) * np.cos(np.pi * s_in) / np.sinc(s_in) + s_in, 0.0)
        fejer = np.where(inside, 1.0 - s_in, 0.0) / self.delta
        sign = 1.0 if self.kind == "majorant" else -1.0
        vals = np.exp((-2j * np.pi * m) * xi_arr) * (
            L * np.sinc(L * xi_arr) * j_hat + sign * np.cos(np.pi * L * xi_arr) * fejer)
        return complex(vals) if vals.ndim == 0 else vals

    def indicator(self, x):
        """The target indicator 1_[a,b], endpoint-inclusive."""
        arr = np.asarray(x, dtype=float)
        out = ((arr >= self.a) & (arr <= self.b)).astype(float)
        return float(out) if arr.ndim == 0 else out

    def exact_integral(self) -> float:
        """Closed-form value of the integral of F over the real line."""
        sign = 1.0 if self.kind == "majorant" else -1.0
        return (self.b - self.a) + sign / self.delta


def selberg_interval(a: float, b: float, delta: float,
                     kind: str = "majorant") -> BandlimitedFunction:
    """Construct the extremal band-limited majorant or minorant of 1_[a,b]."""
    return BandlimitedFunction(a=float(a), b=float(b), delta=float(delta), kind=kind)


def _panel_nodes(lo: float, hi: float, max_len: float):
    """Composite Gauss-Legendre nodes/weights on [lo, hi] with panel length <= max_len."""
    if hi <= lo:
        return np.empty(0), np.empty(0)
    n_panels = max(1, int(math.ceil((hi - lo) / max_len)))
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    ws = (half[:, None] * _GL_W[None, :]).ravel()
    return xs, ws


def _strip_integral(y_lo: float, y_hi: float) -> float:
    """Integral of B(y) - 1 over [y_lo, y_hi], 0 < y_lo < y_hi."""
    xs, ws = _panel_nodes(y_lo, y_hi, 0.5)
    if xs.size == 0:
        return 0.0
    return float(ws @ _excess_over_one(xs))


def _analytic_tail(F: BandlimitedFunction, x_lo: float, x_hi: float) -> float:
    """Exact integral of F over (-inf, x_lo] and [x_hi, inf).

    Requires x_lo < a and x_hi > b.  Outside the window the evaluation
    decomposes into a sinc^2 hump centred on the nearer endpoint plus a
    difference of two (B-1) tails, both of which integrate in closed
    form (the difference reduces to a short strip integral).
    """
    a, b, d = F.a, F.b, F.delta
    if not (x_lo < a and x_hi > b):
        raise DomainError("tail window must strictly contain [a, b]")
    up_near = d * (x_hi - b)
    up_far = d * (x_hi - a)
    lo_near = d * (a - x_lo)
    lo_far = d * (b - x_lo)
    if F.kind == "majorant":
        # F = sinc^2 about the nearer endpoint + (g(far) - g(near))/2.
        tail = (_sinc_sq_tail(up_near) + _sinc_sq_tail(lo_near)) / d
        tail -= 0.5 * (_strip_integral(up_near, up_far) + _strip_integral(lo_near, lo_far)) / d
    else:
        # F = -sinc^2 about the farther endpoint + (g(far) - g(near))/2.
        tail = -(_sinc_sq_tail(up_far) + _sinc_sq_tail(lo_far)) / d
        tail -= 0.5 * (_strip_integral(up_near, up_far) + _strip_integral(lo_near, lo_far)) / d
    return tail


def _window(F: BandlimitedFunction, window: float | None, width: float):
    """(W, a - W, b + W) for the window W on each side of [a, b], default width/delta."""
    W = float(window) if window is not None else width / F.delta
    if W <= 0.0:
        raise DomainError("window must be positive")
    return W, F.a - W, F.b + W


def excess_integral(F: BandlimitedFunction, window: float | None = None) -> float:
    """Signed excess integral of F against the indicator of [a, b].

    Returns the real-line integral of F - 1_[a,b]: +1/delta for the
    majorant and -1/delta for the minorant, up to quadrature rounding.
    The finite window (default 5000/delta on each side) is completed by
    the analytic tail integrals, and an internal halving check guards
    the panel quadrature; disagreement raises QuadratureError.
    """
    d = F.delta
    _, x_lo, x_hi = _window(F, window, 5000.0)
    tail = _analytic_tail(F, x_lo, x_hi)

    def windowed(max_len: float) -> float:
        xs, ws = _panel_nodes(x_lo, x_hi, max_len)
        return float(ws @ F(xs))

    coarse = windowed(1.0 / d)
    fine = windowed(0.5 / d)
    if abs(fine - coarse) > max(1e-10, 1e-9 * abs(fine)):
        raise QuadratureError(
            f"excess quadrature failed to converge: {coarse!r} vs {fine!r}")
    return fine - (F.b - F.a) + tail


def fourier_transform(F: BandlimitedFunction, xi, window: float | None = None):
    """Windowed Fourier transform of F at frequencies xi.

    Computes integral over [a - W, b + W] of F(x) exp(-2 pi i xi x) dx
    by composite Gauss-Legendre panels sized for the joint bandwidth of
    F and the largest requested frequency.  Returns (values, tail_bound)
    where tail_bound dominates the absolute error from the discarded
    tails, |integral of F| outside the window.
    """
    d = F.delta
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    _, x_lo, x_hi = _window(F, window, 1e3)
    xi_max = float(np.max(np.abs(xi_arr))) if xi_arr.size else 0.0
    max_len = 1.0 / (d + xi_max + 1e-12)
    xs, ws = _panel_nodes(x_lo, x_hi, max_len)
    fw = F(xs) * ws
    out = np.empty(xi_arr.shape, dtype=complex)
    step = max(1, 8_000_000 // max(1, xs.size))
    for i in range(0, xi_arr.size, step):
        chunk = xi_arr[i:i + step]
        phases = np.exp((-2j * np.pi) * np.outer(chunk, xs))
        out[i:i + step] = phases @ fw
    # |F| <= (3/2) sinc^2(near) + (1/2) sinc^2(far) outside the window,
    # for either kind; integrate the envelope.
    tail_bound = 2.0 * (_sinc_sq_tail(d * (x_hi - F.b)) + _sinc_sq_tail(d * (F.a - x_lo))) / d
    return out, float(tail_bound)


def verify_bandlimit(F: BandlimitedFunction, window: float | None = None) -> dict:
    """Numerical certificate that F is band-limited to [-delta, delta].

    Evaluates the windowed Fourier transform on a frequency grid and
    reports: the zero-frequency value against its closed form
    (b - a) +/- 1/delta (tail-corrected, so the comparison is sharp),
    the largest |F_hat| beyond delta*(1+_MARGIN), the global bound
    |F_hat| <= C*((b-a) + 1/delta), conjugate symmetry, and the largest
    deviation from the closed form `F.hat`, which the discarded tails
    bound by tail_bound.  Soft
    failures only set booleans; a window too small to certify anything
    raises QuadratureError with the tail estimate.
    """
    d = F.delta
    W, x_lo, x_hi = _window(F, window, 1e3)
    in_band = np.linspace(-d, d, 41)
    out_band = np.linspace((1.0 + _MARGIN) * d, 2.5 * d, 24)
    edge = d * np.array([0.98, 1.0, 1.02])
    xi_grid = np.unique(np.concatenate([[0.0], in_band, out_band, -out_band, edge, -edge]))

    vals, tail_bound = fourier_transform(F, xi_grid, window=W)
    closed_form_dev = float(np.max(np.abs(vals - F.hat(xi_grid))))
    scale = (F.b - F.a) + 1.0 / d
    if tail_bound > 0.05 * scale:
        raise QuadratureError(
            f"window {W!r} too small for verification: tail bound {tail_bound:.3e} "
            f"against scale {scale:.3e}")

    zero_idx = int(np.argmin(np.abs(xi_grid)))
    f_hat0_raw = vals[zero_idx]
    f_hat0 = f_hat0_raw.real + _analytic_tail(F, x_lo, x_hi)
    expected0 = F.exact_integral()

    out_mask = np.abs(xi_grid) >= (1.0 + _MARGIN) * d - 1e-12 * d
    max_out = float(np.max(np.abs(vals[out_mask]))) if np.any(out_mask) else 0.0
    max_everywhere = float(np.max(np.abs(vals)))

    # Conjugate symmetry on matched +/- pairs.
    conj_dev = 0.0
    index = {round(float(x), 12): i for i, x in enumerate(xi_grid)}
    for i, x in enumerate(xi_grid):
        j = index.get(round(float(-x), 12))
        if j is not None:
            conj_dev = max(conj_dev, float(abs(vals[j] - np.conj(vals[i]))))

    report = {
        "kind": F.kind,
        "a": F.a,
        "b": F.b,
        "delta": d,
        "window": W,
        "n_xi": int(xi_grid.size),
        "f_hat0": float(f_hat0),
        "f_hat0_raw_re": float(f_hat0_raw.real),
        "f_hat0_raw_im": float(f_hat0_raw.imag),
        "expected_f_hat0": float(expected0),
        "f_hat0_abs_error": float(abs(f_hat0 - expected0)),
        "max_out_of_band_abs": max_out,
        "out_of_band_threshold": float(_BANDLIMIT_TOL * scale),
        "max_abs_everywhere": max_everywhere,
        "everywhere_threshold": float(_EVERYWHERE_CONST * scale),
        "conj_symmetry_max_dev": conj_dev,
        "closed_form_max_dev": closed_form_dev,
        "tail_bound": tail_bound,
        "margin": _MARGIN,
        "bandlimit_tol": _BANDLIMIT_TOL,
    }
    report["f_hat0_ok"] = report["f_hat0_abs_error"] <= 1e-5 + 2.0 * tail_bound
    report["out_of_band_ok"] = max_out <= report["out_of_band_threshold"]
    report["everywhere_ok"] = max_everywhere <= report["everywhere_threshold"]
    report["closed_form_ok"] = closed_form_dev <= tail_bound
    report["passed"] = bool(report["f_hat0_ok"] and report["out_of_band_ok"]
                            and report["everywhere_ok"] and report["closed_form_ok"])
    return report


def domination_report(F: BandlimitedFunction) -> dict:
    """Pointwise domination check of F against the indicator on a grid.

    The grid has 10,000 points spanning [a - 5/delta, b + 5/delta].  For a
    majorant the slack is F - 1_[a,b]; for a minorant, 1_[a,b] - F.  A
    correct construction keeps the minimum slack above float rounding
    (>= -1e-12 scale).  Also reports the measured constant in the
    two-bump envelope sinc^2(delta(x-a)) + sinc^2(delta(x-b)) that
    dominates the slack.
    """
    d = F.delta
    grid = np.linspace(F.a - 5.0 / d, F.b + 5.0 / d, 10_000)
    sign = 1.0 if F.kind == "majorant" else -1.0
    slack = sign * (F(grid) - F.indicator(grid))
    envelope = np.sinc(d * (grid - F.a)) ** 2 + np.sinc(d * (grid - F.b)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(envelope > 1e-300, slack / envelope, 0.0)
    i_min = int(np.argmin(slack))
    return {
        "kind": F.kind,
        "n_grid": grid.size,
        "grid_lo": float(grid[0]),
        "grid_hi": float(grid[-1]),
        "min_slack": float(slack[i_min]),
        "argmin_x": float(grid[i_min]),
        "envelope_const": float(np.max(ratio)),
    }

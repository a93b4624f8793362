"""Experiment engine: samples of zeta'/zeta along vertical lines and the
statistics comparing them with the limiting two-dimensional Gaussian.

A `LineSampleSet` holds normalized samples z_j = (zeta'/zeta)(sigma + i t_j)
divided by sqrt(V(sigma)), with per-sample status flags so points near a
zero of zeta (or points the evaluator could not certify) are excluded
from statistics while staying visible in the accounting.  Report
builders compare empirical rectangle/disk frequencies and empirical
characteristic functions against the Gaussian limit, and
`rect_prob_from_chf` reconstructs rectangle probabilities through the
band-limited majorant route, which sandwiches the direct count by
construction, up to an a-priori quadrature bound it returns (the chf must
grow at most like exp(2 pi |Im u| osc_rate) off the real axis).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Optional

import numpy as np

from . import zeta
from .bandlimit import BandlimitedFunction, _panel_nodes, selberg_interval
from .errors import DomainError, QuadratureError
from .variance import VarianceContext

FLAG_OK = 0
FLAG_NEAR_ZERO = 1
FLAG_PRECISION = 2

# Random t split over worker processes: chunks a multiple of zeta.BAND.
_WORKER_CHUNK = 8 * zeta.BAND
# Samples per real product in empirical_chf_grid; bounds its temporaries.
_CHUNK = 4096
_DEFAULT_COUNT = 20_000
_WARN_EXCLUDED = 0.10


@dataclass(frozen=True)
class LineSampleSet:
    """Normalized samples of zeta'/zeta(sigma + it)/sqrt(V) with status flags."""

    context: Optional[VarianceContext]
    t_values: np.ndarray
    samples: np.ndarray
    flags: np.ndarray
    sampling: Mapping[str, object]

    def __post_init__(self):
        if not (self.t_values.shape == self.samples.shape == self.flags.shape):
            raise DomainError("t_values, samples, flags must have equal shapes")

    @property
    def n_total(self) -> int:
        return int(self.t_values.size)

    @property
    def n_ok(self) -> int:
        return int(np.count_nonzero(self.flags == FLAG_OK))

    @property
    def excluded_fraction(self) -> float:
        if self.n_total == 0:
            return 0.0
        return 1.0 - self.n_ok / self.n_total

    @property
    def warning(self) -> bool:
        """True when more than 10% of the samples were excluded."""
        return self.n_total > 0 and self.excluded_fraction > _WARN_EXCLUDED

    def ok_samples(self) -> np.ndarray:
        """The flag-0 samples every statistic uses; DomainError when there are none."""
        z = self.samples[self.flags == FLAG_OK]
        if z.size == 0:
            counts = ", ".join(f"{k}={v}" for k, v in self.flag_counts().items())
            raise DomainError(f"no ok sample among the {self.n_total} points ({counts})")
        return z

    def flag_counts(self) -> dict:
        return {
            "ok": self.n_ok,
            "near_zero": int(np.count_nonzero(self.flags == FLAG_NEAR_ZERO)),
            "precision_fail": int(np.count_nonzero(self.flags == FLAG_PRECISION)),
        }

    def header(self) -> dict:
        head = {
            "n_total": self.n_total,
            "excluded_fraction": self.excluded_fraction,
            "warning": self.warning,
            "sampling": dict(self.sampling),
        }
        head.update(self.flag_counts())
        if self.context is not None:
            head["context"] = self.context.as_dict()
        return head


def sample_line(context: VarianceContext, t_lo: float = 50.0,
                t_hi: float | None = None, sampling: Mapping | None = None,
                tol: float = 1e-9, workers: int = 1) -> LineSampleSet:
    """Sample zeta'/zeta(sigma+it)*V^(-1/2) over [t_lo, t_hi].

    sampling: {"mode": "grid", "count": N} or
    {"mode": "random", "count": N, "seed": S}.  Default is an equispaced
    grid of 20000 points.  Near-zero and uncertified points are flagged,
    not raised.  All t go through one zeta.log_deriv_band call, except
    random t with workers > 1, which is cut into 2048-point chunks (aligned
    to zeta.BAND) spread over `workers` processes and merged in order; the
    output is bit-identical for every worker count.
    """
    t_hi = float(context.T) if t_hi is None else float(t_hi)
    t_lo = float(t_lo)
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise DomainError(f"t range must be finite, got [{t_lo}, {t_hi}]")
    if t_hi < t_lo:
        raise DomainError(f"t range reversed: [{t_lo}, {t_hi}]")
    if t_hi > zeta.HEIGHT_CAP:
        raise DomainError(f"t_hi {t_hi} exceeds the evaluator height cap {zeta.HEIGHT_CAP}")
    spec = dict(sampling) if sampling is not None else {"mode": "grid"}
    mode = spec.get("mode", "grid")
    if mode not in ("grid", "random"):
        raise DomainError(f"unknown sampling mode {mode!r}")
    count = int(spec.get("count", _DEFAULT_COUNT))
    if count < 0:
        raise DomainError("count must be nonnegative")

    if t_hi == t_lo:
        t = np.empty(0)
        canonical = {"mode": mode, "count": 0, "t_lo": t_lo, "t_hi": t_hi}
    elif mode == "grid":
        t = np.linspace(t_lo, t_hi, count)
        canonical = {"mode": "grid", "count": count, "t_lo": t_lo, "t_hi": t_hi}
    else:
        seed = int(spec.get("seed", 0))
        rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
        t = np.sort(t_lo + (t_hi - t_lo) * rng.random(count))
        canonical = {"mode": "random", "count": count, "seed": seed,
                     "t_lo": t_lo, "t_hi": t_hi}

    if mode == "random" and workers > 1 and t.size > _WORKER_CHUNK:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [t[i:i + _WORKER_CHUNK] for i in range(0, t.size, _WORKER_CHUNK)]
        with ProcessPoolExecutor(max_workers=int(workers)) as pool:
            results = list(pool.map(zeta.log_deriv_band, [context.sigma] * len(chunks),
                                    chunks, [tol] * len(chunks)))
        values, flags = (np.concatenate(parts) for parts in zip(*results))
    else:
        values, flags = zeta.log_deriv_band(context.sigma, t, tol=tol)

    scale = 1.0 / math.sqrt(context.V)
    samples = values * scale
    samples[flags != FLAG_OK] = np.nan
    return LineSampleSet(context=context, t_values=t, samples=samples,
                         flags=flags, sampling=canonical)


def synthetic_gaussian_set(count: int, seed: int = 0,
                           context: VarianceContext | None = None) -> LineSampleSet:
    """Synthetic 2D standard Gaussian sample set for pipeline self-tests."""
    if count < 0:
        raise DomainError("count must be nonnegative")
    rng = np.random.Generator(np.random.Philox(key=[int(seed), 1]))
    pairs = rng.standard_normal((int(count), 2))
    samples = pairs[:, 0] + 1j * pairs[:, 1]
    return LineSampleSet(context=context,
                         t_values=np.arange(int(count), dtype=float),
                         samples=samples,
                         flags=np.zeros(int(count), dtype=np.uint8),
                         sampling={"mode": "synthetic-gaussian",
                                   "count": int(count), "seed": int(seed)})


def empirical_chf(sset: LineSampleSet, u: float, v: float) -> complex:
    """Empirical characteristic function: mean of e(u Re z + v Im z) over ok-samples."""
    z = sset.ok_samples()
    phase = 2.0 * np.pi * (float(u) * z.real + float(v) * z.imag)
    return complex(np.mean(np.exp(1j * phase)))


def _cos_sin_rows(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The rows cos(2 pi a_k x) stacked above the rows sin(2 pi a_k x)."""
    phase = (2.0 * np.pi) * np.outer(a, x)
    out = np.empty((2 * a.size, x.size))
    np.cos(phase, out=out[:a.size])
    np.sin(phase, out=out[a.size:])
    return out


# Interpolation error per cos or sin factor at a sample.  An entry mixes two products of
# factors bounded by 1 per part, so it moves by at most 4 _CHEB_TOL = 4e-15, about the eps
# 2 pi A R (5e-15 at A R = 3.4) that rounding 2 pi a x costs an exact row; _RHO stops at 11.
_CHEB_TOL, _RHO = 1e-15, 1.0 + np.geomspace(1e-3, 10.0, 200)


def _sample_nodes(a: np.ndarray, x: np.ndarray):
    """(nodes, barycentric weights (-1)^m sin(theta_m)) of n first-kind Chebyshev points
    on the range [min |x|, max |x|] of the folded samples, or None for the exact rows.
    On the Bernstein ellipse E_rho of a range of half-width h, cos and sin(2 pi a x),
    a <= A = max a, are bounded by M = exp(omega (rho - 1/rho) / 2), omega = 2 pi A h, so
    n points err by at most 4 M rho^(1-n) / (rho - 1) (Trefethen, ATAP Thm 8.2).  n is the
    least that meets _CHEB_TOL at some rho in _RHO; only h > 0 and n < 2 a.size interpolate
    (never 8 or fewer a): exact rows cost 2 a.size cos/sin per sample, Lagrange rows n
    divisions.  Samples about 0 give h <= max |x| / 2, so omega <= pi A max |x|."""
    ax = np.abs(x)
    lo, hi = float(ax.min()), float(ax.max())
    h = 0.5 * (hi - lo)
    omega = 2.0 * math.pi * a.max(initial=0.0) * h
    n = 1.0 + np.min(np.ceil((math.log(4.0 / _CHEB_TOL) - np.log(_RHO - 1.0)
                              + 0.5 * omega * (_RHO - 1.0 / _RHO)) / np.log(_RHO)))
    if not (h > 0.0 and n < 2 * a.size):  # also a non-finite h
        return None
    theta = (np.arange(int(n)) + 0.5) * (math.pi / n)
    return 0.5 * (lo + hi) + h * np.cos(theta), (-1.0) ** np.arange(int(n)) * np.sin(theta)


def _sample_rows(a: np.ndarray, basis, x: np.ndarray) -> np.ndarray:
    """The cos/sin rows at the samples x if basis is None, else their Lagrange rows
    l_m(|x|) stacked above sign(x) l_m(|x|) (cos is even in x, sin odd), with a unit
    column at the nearest node where a sample's 1/(|x| - node) overflows."""
    if basis is None:
        return _cos_sin_rows(a, x)
    nodes, weights = basis
    out = np.empty((2 * nodes.size, x.size))
    q = np.subtract.outer(nodes, np.abs(x), out=out[:nodes.size])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(weights[:, None], q, out=q)
        total = q.sum(axis=0)
        q /= total
    hit = ~np.isfinite(total)
    near = np.abs(np.subtract.outer(nodes, np.abs(x[hit]))).argmin(axis=0)
    q[:, hit] = np.arange(nodes.size)[:, None] == near
    np.multiply(q, np.sign(x), out=out[nodes.size:])
    return out


def empirical_chf_grid(sset: LineSampleSet, u_axis, v_axis) -> np.ndarray:
    """Empirical chf on a tensor grid: out[i, j] = chf(u_i, v_j).

    Factorizes e(u X + v Y) = e(u X) e(v Y) and folds each axis onto its
    distinct magnitudes: with s = sign(u), r = sign(v) and C, S the cos
    and sin of 2 pi |u| X (and of 2 pi |v| Y),

        n out = (CuCv - s r SuSv) + i (r CuSv + s SuCv),

    summed over the samples as the blocks [[CC, CS], [SC, SS]] of one real
    product per chunk of _CHUNK = 4096 samples.  An axis with more distinct
    |u| than the Chebyshev points that `_sample_nodes` puts on the range of
    its folded samples |X| (36 and 38 on the `sandwich` axes, which have up
    to 192 distinct |u|) interpolates in the samples: cos is even and sin
    odd, so each chunk adds the Lagrange rows [l(|X|); sign(X) l(|X|)] of
    both axes to a small mass W, and the rows at the points make each block,
    e.g. CS = Cu(xi) W[+, -] Sv(eta)^T, 4 _CHEB_TOL from the exact rows
    beside rounding, with no cos/sin per sample.  Any other axis takes the
    exact cos/sin rows at the samples.
    """
    u = np.atleast_1d(np.asarray(u_axis, dtype=float))
    v = np.atleast_1d(np.asarray(v_axis, dtype=float))
    if not np.isfinite(np.r_[u, v]).all():
        raise DomainError("empirical chf needs finite axes")
    z = sset.ok_samples()
    au, iu = np.unique(np.abs(u), return_inverse=True)
    av, iv = np.unique(np.abs(v), return_inverse=True)
    nu, nv = au.size, av.size
    bu, bv = _sample_nodes(au, z.real), _sample_nodes(av, z.imag)
    # One real product per chunk; an exact axis gives [Cu; Su] [Cv; Sv]^T = [[CC, CS], [SC, SS]].
    acc = sum(_sample_rows(au, bu, zc.real) @ _sample_rows(av, bv, zc.imag).T
              for zc in (z[i:i + _CHUNK] for i in range(0, z.size, _CHUNK)))
    if bu is not None:  # the cosines at the points take l(|X|), the sines sign(X) l(|X|)
        cs, m = _cos_sin_rows(au, bu[0]), bu[0].size
        acc = np.r_[cs[:nu] @ acc[:m], cs[nu:] @ acc[m:]]
    if bv is not None:
        cs, m = _cos_sin_rows(av, bv[0]), bv[0].size
        acc = np.c_[acc[:, :m] @ cs[:nv].T, acc[:, m:] @ cs[nv:].T]

    def pick(i, j):  # block (i, j) at the requested (u, v); one at a time bounds the temporaries
        return acc[i:i + nu, j:j + nv].take(iu, axis=0).take(iv, axis=1)

    s, r = np.sign(u)[:, None], np.sign(v)
    out = np.empty((u.size, v.size), dtype=complex)
    out.real = pick(0, 0)
    out.real -= pick(nu, nv) * r * s
    out.imag = pick(0, nv) * r
    out.imag += pick(nu, 0) * s
    out /= z.size
    return out


def gaussian_chf(u, v):
    """Characteristic function of the standard complex Gaussian: e^(-2 pi^2 (u^2+v^2))."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):  # past |(u, v)| ~ 1e154 the chf underflows to 0
        return np.exp(-2.0 * np.pi ** 2 * (u ** 2 + v ** 2))


def chf_axis(ctx: VarianceContext, r: Optional[float], n: int) -> np.ndarray:
    """n points on [-r, r], r = min(1, Omega) if None, exactly
    antisymmetric so that a chf grid on them is Hermitian."""
    r = min(1.0, ctx.Omega) if r is None else r
    axis = np.linspace(-r, r, n)
    return 0.5 * (axis - axis[::-1])


def chf_deviation_grid(sset: LineSampleSet, u_axis, v_axis) -> dict:
    """Tabulate |empirical chf - Gaussian chf| on a (u, v) grid.

    Also evaluates, with unit implied constants, the theoretical
    envelope gaussian*((|u|+|v|)^3/V^(3/2) + (u^2+v^2)/psi^10) + psi^(-10)
    when the set carries a line context (psi^(-10), its limit, where the
    Gaussian underflows to 0); the envelope is reported, not asserted.
    Returns records plus sup statistics.
    """
    ctx = sset.context
    u_axis = np.atleast_1d(np.asarray(u_axis, dtype=float))
    v_axis = np.atleast_1d(np.asarray(v_axis, dtype=float))
    grid = empirical_chf_grid(sset, u_axis, v_axis)
    U, W = np.meshgrid(u_axis, v_axis, indexing="ij")
    gauss = gaussian_chf(U, W)
    dev = np.hypot(grid.real - gauss, grid.imag)  # |grid - gauss|, as scalar abs rounds it
    cols = {"u": U, "v": W, "re": grid.real, "im": grid.imag,
            "gaussian": gauss, "abs_dev": dev}
    sup_ratio = None
    if ctx is not None:
        # Past |(u, v)| ~ 6.2 gauss is 0, so clipping changes no value and keeps (|u|+|v|)^3 finite.
        u, w = np.clip(U, -1e6, 1e6), np.clip(W, -1e6, 1e6)
        env = gauss * ((np.abs(u) + np.abs(w)) ** 3 / ctx.V ** 1.5
                       + (u * u + w * w) / ctx.psi ** 10) + ctx.psi ** -10
        pos = env > 0
        cols["envelope"] = env
        cols["dev_over_envelope"] = np.divide(dev, env, out=np.full(dev.shape, np.inf),
                                              where=pos)
        sup_ratio = float(np.max(cols["dev_over_envelope"][pos], initial=0.0))
    records = [dict(zip(cols, map(float, row)))
               for row in zip(*(c.ravel() for c in cols.values()))]
    sup_at = np.unravel_index(np.argmax(dev), dev.shape)
    return {
        "records": records,
        "sup_abs_dev": float(dev[sup_at]),
        "sup_at_u": float(U[sup_at]),
        "sup_at_v": float(W[sup_at]),
        "sup_dev_over_envelope": sup_ratio,
        "n_ok": sset.n_ok,
        "excluded_fraction": sset.excluded_fraction,
    }


@dataclass(frozen=True)
class DistributionReport:
    """Empirical frequency of a region against its Gaussian prediction."""

    region: Mapping[str, float]
    empirical_fraction: float
    gaussian_prediction: float
    error_scale: Optional[float]
    excluded_fraction: float
    n_ok: int
    std_error: float
    extras: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.empirical_fraction <= 1.0):
            raise DomainError(f"empirical fraction {self.empirical_fraction} outside [0, 1]")

    def as_dict(self) -> dict:
        out = asdict(self)
        out.update(out.pop("extras"))
        return out


def _std_normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _region_report(sset: LineSampleSet, region: dict, inside: np.ndarray,
                   pred: float, scale_numerator: float) -> DistributionReport:
    """The report of a region whose ok samples `inside` marks, with Gaussian probability
    `pred` and, when a context is attached, error scale scale_numerator / bOmega."""
    frac = float(np.count_nonzero(inside)) / inside.size
    ctx = sset.context
    return DistributionReport(
        region=region, empirical_fraction=frac, gaussian_prediction=float(pred),
        error_scale=None if ctx is None else scale_numerator / ctx.bOmega,
        excluded_fraction=sset.excluded_fraction, n_ok=int(inside.size),
        std_error=math.sqrt(frac * (1.0 - frac) / inside.size))


def rectangle_report(sset: LineSampleSet, a: float, b: float,
                     c: float, d: float) -> DistributionReport:
    """Empirical fraction with Re in [a,b], Im in [c,d] vs the Gaussian law.

    The prediction factorizes over coordinates since the limit has
    independent standard real and imaginary parts.  The error scale is
    (meas(R) + 1) / bOmega when a context is attached.
    """
    if b < a or d < c:
        raise DomainError("rectangle sides reversed")
    z = sset.ok_samples()
    return _region_report(
        sset, {"type": "rectangle", "a": float(a), "b": float(b), "c": float(c), "d": float(d)},
        (z.real >= a) & (z.real <= b) & (z.imag >= c) & (z.imag <= d),
        (_std_normal_cdf(b) - _std_normal_cdf(a)) * (_std_normal_cdf(d) - _std_normal_cdf(c)),
        (b - a) * (d - c) + 1.0)


def disk_report(sset: LineSampleSet, r: float) -> DistributionReport:
    """Empirical fraction with |z| <= r vs the Gaussian prediction 1 - e^(-r^2/2).

    The error scale is (r^2 + r)/bOmega.  In the small-radius regime
    (only meaningful once r*tOmega >= 1) the ratio fraction/r^2 is
    reported as well, matching the quadratic small-ball bound.
    """
    r = float(r)
    if r < 0:
        raise DomainError("disk radius must be nonnegative")
    z = sset.ok_samples()
    rep = _region_report(sset, {"type": "disk", "r": r}, np.abs(z) <= r,
                         1.0 - math.exp(-0.5 * r * r), r * r + r)
    if sset.context is not None and r > 0 and r * sset.context.tOmega >= 1.0:
        rep = replace(rep, extras={"small_r_fraction_over_r_sq": rep.empirical_fraction / (r * r)})
    return rep


def disk_cdf_sup(sset: LineSampleSet) -> dict:
    """Exact sup over r of |empirical P(|z| <= r) - (1 - e^(-r^2/2))|.

    The empirical CDF is a step function, so the supremum is attained
    at a jump; this is the Kolmogorov-Smirnov statistic against the
    Rayleigh-squared law of |Z| for a standard complex Gaussian.
    """
    z = sset.ok_samples()
    radii = np.sort(np.abs(z))
    n = radii.size
    cdf = 1.0 - np.exp(-0.5 * radii * radii)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    i_up = int(np.argmax(upper))
    i_lo = int(np.argmax(lower))
    if upper[i_up] >= lower[i_lo]:
        sup, at = float(upper[i_up]), float(radii[i_up])
    else:
        sup, at = float(lower[i_lo]), float(radii[i_lo])
    return {"sup_dev": sup, "at_r": at, "n_ok": n}


def second_moment_check(sset: LineSampleSet) -> float:
    """Mean of |z|^2 over ok-samples; the Gaussian limit value is 2."""
    z = sset.ok_samples()
    return float(np.mean(z.real ** 2 + z.imag ** 2))


@dataclass(frozen=True)
class SandwichProb:
    """Lower/upper rectangle-probability estimates from the chf route, each within
    quad_bound of its double integral."""

    lower: float
    upper: float
    nodes_per_axis: int
    quad_bound: float

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def doubling_delta(self) -> float:
        """quad_bound under the name perfbench reads."""
        return self.quad_bound


_MAX_PANELS = 128  # per half axis of the sandwich: at most 4,096 nodes per axis


def _axis_nodes(delta: float, panels: int):
    """Gauss-Legendre nodes/weights on `panels` equal panels of [0, delta], mirrored
    onto [-delta, 0]: xi = 0, where a majorant's transform has its kink, is a panel
    edge, the nodes are exactly antisymmetric and the weights exactly symmetric, and
    `empirical_chf_grid` folds every +/- pair."""
    u, w = _panel_nodes(0.0, delta, delta / (panels - 0.5))  # ceil gives `panels`
    return np.r_[-u[::-1], u], np.r_[w[::-1], w]


def _quad_bound(F: BandlimitedFunction, rate: float, panels: int) -> float:
    """Error bound of `_axis_nodes`' rule on the integral of Fhat(xi) phi(xi) over
    [-delta, delta] for |phi(xi + ib)| <= exp(2 pi |b| rate), by the per-panel bound
    of `rect_prob_from_chf` at the best rho in _RHO."""
    d, L, m, h = F.delta, F.b - F.a, 0.5 * (F.a + F.b), 0.5 / panels
    c = (2.0 * np.arange(panels) + 1.0)[:, None] * h  # panel centres in s = xi/delta
    lo, hi = c - 0.5 * h * (_RHO + 1.0 / _RHO), c + 0.5 * h * (_RHO + 1.0 / _RHO)
    beta = 0.5 * h * (_RHO - 1.0 / _RHO)  # max |Im s| on E_rho
    r = np.hypot(np.maximum(-lo, hi), beta)  # max |s|
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        j_hat = np.cosh(np.pi * beta) * r * (1.0 + r) / ((1.0 + lo) * np.sinc(1.0 - r)) + r
        M = (np.exp(2.0 * np.pi * d * beta * (abs(m) + rate)) * np.cosh(np.pi * L * d * beta)
             * (L * j_hat + (1.0 + r) / d))
        err = (64.0 / 15.0) * d * h * M * _RHO ** -30.0 / (_RHO ** 2 - 1.0)
    return 2.0 * float(np.where((lo >= -0.5) & (hi <= 1.5) & (r < 2.0), err, np.inf)
                       .min(axis=1).sum())


def rect_prob_from_chf(chf, F: BandlimitedFunction, G: BandlimitedFunction,
                       osc_rate_u: float = 6.0, osc_rate_v: float = 6.0,
                       quad_tol: float = 2e-5) -> SandwichProb:
    """Rectangle probability reconstructed from a characteristic function.

    chf(u_axis, v_axis) must return the matrix chf(u_i, v_j); it is called once.
    F and G are the band-limited majorants of the Re- and Im-intervals; their
    minorant partners are built internally.  By Fourier inversion the double
    integral of Fhat(u) Ghat(v) chf(u, v) over the band equals the expectation of
    F(X) G(Y), so pointwise domination of the indicators makes [lower, upper] =
    [I_mp + I_pm - I_pp, I_pp] (p: majorant, m: minorant, of F then G) a true
    sandwich of the rectangle probability up to quadrature error.

    osc_rate_u/v = A_u, A_v: |chf(u + ib, v)| <= exp(2 pi |b| A_u) for real u, v
    and |b| < delta (every ellipse below lies in that strip), and likewise in v.
    Any law with |Re Z| <= A_u meets it: for an empirical chf A_u is the sample
    max, for the torus sum c_p; a Gaussian factor exp(-2 pi^2 u^2) adds pi delta.

    The bound.  16-point Gauss-Legendre on a panel of half-length h errs by at most
    (64/15) h M rho^-30 / (rho^2 - 1) if the integrand is analytic in the Bernstein
    ellipse E_rho and bounded there by M (Trefethen, SIAM Rev. 50 (2008), Thm 4.5
    with n + 1 = 16); `_quad_bound` takes the least over rho in _RHO, panel by panel.
    On a panel of [0, delta], Fhat is the `bandlimit` closed form in s = xi/delta
    (not |s|); with (1 - s) cos(pi s)/sinc(s) = cos(pi s)/[(1 + s) P(s)], P(s) =
    prod_{k>=2} (1 - s^2/k^2), its nearest singularities are s = -1 and s = 2, so
    every ellipse stays in -1/2 <= Re s <= 3/2 with r = max |s| < 2, where |P(s)| >=
    sinc(r)/(1 - r^2), |1 + s| >= 1 + Re s, |e(-m xi)| <= exp(2 pi |m| max |Im xi|),
    |sinc w| <= cosh(pi Im w) and |cos w| <= cosh(Im w).  Mirrored panels and the
    minorant have the same bound.  In two dimensions Q_u Q_v - I = Q_u (Q_v - I_v)
    + (Q_u - I_u) I_v, and |Fhat| <= L + 1/delta on the real axis (0 <= J_hat <= 1
    on [0, 1]), so each I errs by at most (sum_i w_i |Fhat(u_i)|) E_v +
    E_u 2 delta_G (L_G + 1/delta_G), E the axis' `_quad_bound`.  upper errs by
    I_pp's bound and lower by the sum of all three, quad_bound.  Each axis takes the
    least panels that hold its share to quad_tol/8, so quad_bound <= quad_tol/4;
    past 4,096 nodes per axis QuadratureError is raised.  quad_bound covers the
    quadrature in exact arithmetic, not the chf's own error or rounding.
    """
    if F.kind != "majorant" or G.kind != "majorant":
        raise DomainError("pass the majorants; minorants are derived internally")
    if not (math.isfinite(quad_tol) and quad_tol > 0.0):
        raise DomainError(f"quad_tol must be finite and positive, got {quad_tol!r}")
    for name, rate in (("osc_rate_u", osc_rate_u), ("osc_rate_v", osc_rate_v)):
        if not (math.isfinite(rate) and rate >= 0.0):
            raise DomainError(f"{name} must be finite and non-negative, got {rate!r}")
    # 2 delta (L + 1/delta) bounds the integral of |Fhat| and sum_i w_i |Fhat(u_i)|.
    c_f, c_g = (2.0 * (H.delta * (H.b - H.a) + 1.0) for H in (F, G))
    tol_u, tol_v = quad_tol / (24.0 * c_g), quad_tol / (24.0 * c_f)

    def panels(H, rate, tol):  # the least panel count whose bound meets tol, else the cap
        k = 1
        while (err := _quad_bound(H, rate, k)) > tol and k < _MAX_PANELS:
            k += 1
        return k, err

    (ku, eu), (kv, ev) = panels(F, osc_rate_u, tol_u), panels(G, osc_rate_v, tol_v)
    if eu > tol_u or ev > tol_v:
        raise QuadratureError(
            f"chf-quadrature bound {3.0 * (c_f * ev + c_g * eu):.3e} at {32 * max(ku, kv)} "
            f"nodes per axis exceeds quad_tol/4 = {quad_tol / 4.0:.1e} "
            f"(osc_rate_u {osc_rate_u:g}, osc_rate_v {osc_rate_v:g})")
    u, wu = _axis_nodes(F.delta, ku)
    v, wv = _axis_nodes(G.delta, kv)
    M = np.asarray(chf(u, v), dtype=complex)
    if M.shape != (u.size, v.size):
        raise DomainError("chf callable must return a (len(u), len(v)) matrix")
    wfp, wfm = (wu * H.hat(u) for H in (F, selberg_interval(F.a, F.b, F.delta, "minorant")))
    wgp, wgm = (wv * H.hat(v) for H in (G, selberg_interval(G.a, G.b, G.delta, "minorant")))
    i_pp, i_mp, i_pm = ((wf @ M @ wg).real for wf, wg in ((wfp, wgp), (wfm, wgp), (wfp, wgm)))
    bound = (2.0 * np.abs(wfp).sum() + np.abs(wfm).sum()) * ev + 3.0 * c_g * eu
    return SandwichProb(lower=float(i_mp + i_pm - i_pp), upper=float(i_pp),
                        nodes_per_axis=max(u.size, v.size), quad_bound=float(bound))


def time_vs_torus_moments(poly_samples, model, m: int, k: int) -> dict:
    """Compare t-averaged moments of the normalized prime polynomial with
    the exact torus moments.

    poly_samples: unnormalized polynomial values f(t) (as from
    selberg.prime_poly); they are normalized by sqrt(model.V) here.
    Requires m, k <= 2 (the regime where the time average is reliable
    at desk scale).
    """
    from .torus import torus_moment_exact
    if not (0 <= m <= 2 and 0 <= k <= 2):
        raise DomainError("moment orders are limited to m, k <= 2")
    f = np.asarray(poly_samples, dtype=complex) / math.sqrt(model.V)
    if f.size == 0:
        raise DomainError("empty polynomial sample set")
    time_avg = complex(np.mean(f ** m * np.conj(f) ** k))
    torus_val = torus_moment_exact(model, m, k)
    return {
        "m": int(m),
        "k": int(k),
        "time_avg_re": time_avg.real,
        "time_avg_im": time_avg.imag,
        "torus_re": torus_val.real,
        "torus_im": torus_val.imag,
        "abs_discrepancy": abs(time_avg - torus_val),
        "n_samples": int(f.size),
    }


def samples_csv_text(sset: LineSampleSet) -> str:
    """CSV text: t, re, im, flag (floats via repr; re, im empty unless flag is ok)."""
    ok = (sset.flags == FLAG_OK).tolist()
    re_cells, im_cells = ([repr(x) if k else "" for x, k in zip(part.tolist(), ok)]
                          for part in (sset.samples.real, sset.samples.imag))
    columns = (map(repr, sset.t_values.tolist()), re_cells, im_cells, map(repr, sset.flags.tolist()))
    return "\n".join(["t,re,im,flag", *map(",".join, zip(*columns))]) + "\n"

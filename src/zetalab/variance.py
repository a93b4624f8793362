"""The variance normalizer V(sigma) and the experiment regime context.

V(sigma) = (1/2) sum_{n>=2} Lambda^2(n) / n^{2 sigma}.

Direct summation of that series is hopeless near sigma = 1/2 (the mass sits
at n ~ e^{1/(2 sigma - 1)}), so the production route uses an exact identity.
Writing Lambda^2 over prime powers and splitting the k = j diagonal from the
rest gives, for w = 2 sigma > 1,

    sum_n Lambda^2(n) n^{-w} = (zeta'/zeta)'(w) - C(w),
    C(w) = sum_p log^2 p * p^{-2w} / (1 - p^{-w})^2,

where (zeta'/zeta)' = (zeta'' zeta - zeta'^2)/zeta^2 comes from the
Euler-Maclaurin engine and C(w) is a fast absolutely convergent prime sum
with an elementary integral tail bound. Both pieces carry certificates; the
reported truncation_bound combines them. The slow direct summation survives
in the test suite as an independent oracle where it converges.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .arith import sieve_primes
from .errors import DomainError, OutOfRegimeError
from .zeta import _check_tol, zeta, zeta_prime, zeta_second

_T_MIN = math.e**math.e


def _c_series(w: float, tol_abs: float) -> tuple[float, float]:
    """C(w) = sum_p log^2 p p^{-2w}/(1-p^{-w})^2 with certified tail <= tol_abs.

    Tail over primes > Q is bounded by comparison with the full integer sum:
    sum_{n>Q} log^2 n * n^{-2w} * kappa, kappa = (1-2^{-w})^{-2}, and the
    integral of log^2 u * u^{-2w} has a closed form.
    """
    kappa = 1.0 / (1.0 - 2.0**-w) ** 2
    Q = 10_000
    for _ in range(12):
        a = 2.0 * w - 1.0
        lq = math.log(Q)
        # integral_Q^inf log^2 u * u^{-2w} du + endpoint term
        tail_int = Q**-a * (lq * lq / a + 2.0 * lq / (a * a) + 2.0 / (a**3))
        tail = kappa * (tail_int + lq * lq * Q ** (-2.0 * w))
        if tail <= tol_abs:
            break
        Q *= 2
    primes = sieve_primes(Q).astype(np.float64)
    logs = np.log(primes)
    pw = primes**-w
    terms = logs * logs * pw * pw / (1.0 - pw) ** 2
    # Fixed-order compensated accumulation: deterministic across runs.
    value = math.fsum(terms.tolist())
    return value, tail


def variance(sigma: float, tol: float = 1e-9) -> tuple[float, float]:
    """(V, truncation_bound) for V(sigma) = (1/2) sum Lambda^2(n) n^{-2 sigma}.

    sigma must exceed 1/2 (the series diverges at 1/2) and stay within the
    evaluation strip (1/2, 2]; tol must lie in [1e-15, 1e-6]. The bound certifies
    |returned - true| for the prime-sum tail plus the propagated zeta-engine remainders.
    """
    sigma, tol = float(sigma), _check_tol(tol)
    if sigma <= 0.5:
        raise DomainError(
            f"variance diverges for sigma <= 1/2 (got {sigma:g})"
        )
    if sigma > 2.0:
        raise DomainError(f"variance supports sigma in (1/2, 2], got {sigma:g}")
    w = 2.0 * sigma
    gap = w - 1.0
    # Near the pole the derivatives blow up like k!/gap^{k+1}; an absolute
    # tolerance below ~value * 1e-14 is unattainable in double precision, so
    # request per-call tolerances scaled to the analytic magnitude estimate.
    est = (1.0 / gap + 10.0, 1.0 / gap**2 + 10.0, 2.0 / gap**3 + 10.0)
    tols = tuple(min(max(1e-13, e * 1e-14), 1e-6) for e in est)
    z0 = zeta(w, tol=tols[0])
    z1 = zeta_prime(w, tol=tols[1])
    z2 = zeta_second(w, tol=tols[2])
    # (zeta'/zeta)'(w), real on the real axis.
    logderiv_prime = ((z2 * z0 - z1 * z1) / (z0 * z0)).real
    # First-order error propagation for the quotient pieces.
    a0, a1, a2 = abs(z0), abs(z1), abs(z2)
    dldp = (a0 * tols[2] + a2 * tols[0] + 2.0 * a1 * tols[1]) / (a0 * a0)
    dldp += 2.0 * abs(logderiv_prime) * tols[0] / a0
    c_target = max(tol * 0.1, 1e-15) * max(abs(logderiv_prime), 1.0)
    c_val, c_tail = _c_series(w, c_target)
    V = 0.5 * (logderiv_prime - c_val)
    bound = 0.5 * (c_tail + dldp)
    if V <= 0.0:
        raise DomainError(f"computed V <= 0 at sigma = {sigma:g}; out of domain")
    return V, bound


def direct_partial_sum(sigma: float, cutoff: int) -> float:
    """Partial sum (1/2) sum_{n<=cutoff} Lambda^2(n) n^{-2 sigma}.

    The slow reference route; kept public because tests and demos use it as
    an independent oracle at sigma where the tail is negligible.
    """
    from .arith import lambda_segments

    total = 0.0
    for value, logp in lambda_segments(1, cutoff):
        v = value.astype(np.float64)
        total += float(np.sum(logp * logp * v ** (-2.0 * sigma)))
    return 0.5 * total


@dataclass(frozen=True)
class VarianceContext:
    """Parameters of one line experiment: (sigma, T) and derived thresholds.

    psi = (2 sigma - 1) log T is the regime parameter; Omega bounds the
    characteristic-function validity radius, bOmega scales distribution
    errors, tOmega is the chf decay radius. All are recomputable bitwise from
    (sigma, T, K_const); see threshold_formulas().
    """

    sigma: float
    T: float
    V: float
    psi: float
    Omega: float
    bOmega: float
    tOmega: float
    K_const: float
    truncation_bound: float

    def as_dict(self) -> dict:
        return asdict(self)


def threshold_formulas(sigma: float, T: float, K_const: float, V: float):
    """(psi, Omega, bOmega, tOmega) exactly as the context populates them.

    Kept as a free function so tests can assert bitwise recomputation
    closure: same formulas, same floating-point path.
    """
    psi = (2.0 * sigma - 1.0) * math.log(T)
    ratio = math.sqrt(psi / math.log(psi))
    scale = math.e**-10
    Omega = scale * min(math.sqrt(V), ratio)
    bOmega = scale * min(V * math.sqrt(V), ratio)
    tOmega = min(
        K_const * (2.0 * sigma - 1.0) * math.exp(sigma / (2.0 * sigma - 1.0)),
        scale * ratio,
    )
    return psi, Omega, bOmega, tOmega


def make_context(
    T: float,
    sigma: float | None = None,
    psi: float | None = None,
    K_const: float = 1.0,
    tol: float = 1e-9,
) -> VarianceContext:
    """Build the experiment context from T and exactly one of sigma / psi.

    Requires a finite T >= e^e, a finite K_const and a resulting psi > 1 (the
    asymptotic regime gate); psi <= 1 raises OutOfRegimeError. sigma must lie
    in (1/2, 2].
    """
    T, K_const = float(T), float(K_const)
    if not (_T_MIN <= T < math.inf):
        raise DomainError(f"T must be finite and >= e^e = {_T_MIN:.4f}, got {T:g}")
    if not math.isfinite(K_const):
        raise DomainError(f"K_const must be finite, got {K_const:g}")
    if (sigma is None) == (psi is None):
        raise DomainError("supply exactly one of sigma or psi")
    if sigma is None:
        sigma = 0.5 + float(psi) / (2.0 * math.log(T))
    sigma = float(sigma)
    if not (0.5 < sigma <= 2.0):
        raise DomainError(f"sigma must lie in (1/2, 2], got {sigma:g}")
    psi_val = (2.0 * sigma - 1.0) * math.log(T)
    if psi_val <= 1.0:
        raise OutOfRegimeError(
            f"psi = {psi_val:.6g} <= 1: outside the asymptotic regime gate"
        )
    V, bound = variance(sigma, tol=tol)
    psi_val, Omega, bOmega, tOmega = threshold_formulas(sigma, T, K_const, V)
    return VarianceContext(
        sigma=sigma,
        T=T,
        V=V,
        psi=psi_val,
        Omega=Omega,
        bOmega=bOmega,
        tOmega=tOmega,
        K_const=K_const,
        truncation_bound=bound,
    )

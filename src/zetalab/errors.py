"""Exception types shared across zetalab modules."""

from __future__ import annotations


class ZetalabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ZetalabError):
    """An argument lies outside the documented domain of an operation."""


class PoleError(ZetalabError):
    """Evaluation was requested at (or numerically on top of) the pole s = 1."""


class PrecisionError(ZetalabError):
    """The requested tolerance cannot be certified at the requested point."""


class NearZeroError(ZetalabError):
    """The zeta value at the evaluation point is below the guard threshold.

    Carries ``t`` so samplers can flag the offending ordinate instead of
    propagating a huge quotient.
    """

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = float(t)


class RefinementError(ZetalabError):
    """Zero search could not separate sign changes on the finest grid tried.

    ``interval`` is the (t_lo, t_hi) range where the count mismatch persists.
    """

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(message)
        self.interval = interval


class CoverageError(ZetalabError):
    """A zero list does not cover the window an operation needs."""


class OutOfRegimeError(ZetalabError):
    """Context parameters fall outside the asymptotic regime gate (psi <= 1)."""


class TableCapError(ZetalabError):
    """A materialized prime-power table would exceed its configured cap."""


class QuadratureError(ZetalabError):
    """A quadrature doubling check failed to stabilize within tolerance."""

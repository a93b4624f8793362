"""zetalab: a numerical laboratory for the value distribution of the
logarithmic derivative of the Riemann zeta function near the critical line.

The package evaluates zeta'/zeta on vertical lines with certified error
control, builds the variance normalization V(sigma) and its regime
thresholds, implements the weighted explicit-formula machinery, the random
Euler-product torus model, band-limited interval majorants/minorants, and an
experiment engine comparing the normalized samples against their 2D Gaussian
limit law.
"""

from . import arith, bandlimit, lab, selberg, torus, variance, zeta
from .errors import (
    CoverageError,
    DomainError,
    NearZeroError,
    OutOfRegimeError,
    PoleError,
    PrecisionError,
    QuadratureError,
    RefinementError,
    TableCapError,
    ZetalabError,
)

__version__ = "0.1.0"

__all__ = [
    "arith",
    "bandlimit",
    "lab",
    "selberg",
    "torus",
    "variance",
    "zeta",
    "CoverageError",
    "DomainError",
    "NearZeroError",
    "OutOfRegimeError",
    "PoleError",
    "PrecisionError",
    "QuadratureError",
    "RefinementError",
    "TableCapError",
    "ZetalabError",
    "__version__",
]

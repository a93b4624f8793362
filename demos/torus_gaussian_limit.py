"""
The random Euler product and its Gaussian limit
===============================================

Replacing p^{-it} by independent uniform phases turns the prime-power
polynomial into a random variable S on a torus whose moments are exact
finite sums.  Normalized by its own variance, S has second moment 2,
vanishing odd moments, and a characteristic function that squeezes onto
the standard complex-Gaussian chf as the cutoff grows and sigma slides
toward 1/2.
"""

import math

import numpy as np

from zetalab import lab, torus

# --- Exact moments at a desk-scale model. ------------------------------
model = torus.make_torus_model(0.75, 300.0)
print(f"model at sigma=0.75, x=300: {model.n_primes()} primes, "
      f"{len(model)} prime-power terms, V = {model.V:.8f}\n")

print("exact moments E[S^m conj(S)^k]:")
for m, k in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 3)]:
    val = torus.torus_moment_exact(model, m, k)
    print(f"  ({m},{k}) = {val.real:+.12f}  {val.imag:+.1e}j")

# (1,1) is exactly 2 by the normalization; odd-order moments vanish by
# phase symmetry; (2,2) is the fourth absolute moment, still a bit shy
# of the Gaussian value 8 at this cutoff.

# --- Monte Carlo agrees with quadrature. -------------------------------
mc, se = torus.chf_montecarlo(model, 0.4, 0.1, n_samples=200_000, seed=5)
exact = torus.chf_product(model, 0.4, 0.1)
print(f"\nchf at (0.4, 0.1): quadrature {exact:.6f}")
print(f"                   monte carlo {mc:.6f} (se {se:.1e}, "
      f"deviation {abs(mc - exact) / se:.2f} se)")

# --- The Gaussian squeeze along a documented schedule. ------------------
# Fixed sigma, growing cutoff keeps (2 sigma - 1) log x comfortably
# above 1, the regime where the product chf tracks the Gaussian.
print("\nsup |chf - gaussian| on a fixed 11x11 grid, sigma = 0.75:")
models = [torus.make_torus_model(0.75, x) for x in (300.0, 3.0e3, 3.0e4)]
radius = min(min(1.0, math.sqrt(m.V) / 100.0) for m in models)
axis = np.linspace(-radius, radius, 11)
gauss = lab.gaussian_chf(axis[:, None], axis)
for x, m in zip((300, 3_000, 30_000), models):
    sup = np.max(np.abs(torus.chf_product(m, axis, axis) - gauss))
    print(f"  x = {x:6d}: sup deviation = {sup:.3e}")

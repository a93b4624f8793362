"""
Band-limited squeezes of an indicator function
==============================================

The extremal majorant and minorant of 1_[a,b] are entire functions of
exponential type whose Fourier transforms vanish beyond a chosen band
radius delta, and whose integrals exceed (fall short of) the interval
length by exactly 1/delta.  They are the tool that converts smoothness
of a characteristic function into two-sided probability bounds.
"""

import numpy as np

from zetalab import bandlimit

A, B = -1.0, 1.0

# --- Pointwise squeeze. -------------------------------------------------
upper = bandlimit.selberg_interval(A, B, 4.0, "majorant")
lower = bandlimit.selberg_interval(A, B, 4.0, "minorant")
print("x      minorant   indicator   majorant      (delta = 4)")
for x in (-2.0, -1.1, -1.0, -0.6, 0.0, 0.97, 1.0, 1.25, 3.0):
    ind = float(upper.indicator(x))
    print(f"{x:5.2f}  {float(lower(x)):+9.5f}  {ind:9.1f}  {float(upper(x)):+9.5f}")

# --- The excess integral is exactly 1/delta. ----------------------------
print("\ndelta   integral(majorant - 1)   integral(1 - minorant)")
for delta in (1.0, 4.0, 16.0):
    up = bandlimit.selberg_interval(A, B, delta, "majorant")
    lo = bandlimit.selberg_interval(A, B, delta, "minorant")
    print(f"{delta:5.1f}   {bandlimit.excess_integral(up):22.9f}   "
          f"{-bandlimit.excess_integral(lo):20.9f}")

# Sharper squeezes cost band radius: halving the excess doubles delta.

# --- The band limit is real. --------------------------------------------
cert = bandlimit.verify_bandlimit(upper)
print(f"\nFourier certificate for the delta=4 majorant:")
print(f"  f_hat(0) = {cert['f_hat0']:.8f} "
      f"(exact integral {cert['expected_f_hat0']:.8f})")
print(f"  max |f_hat| beyond 1.05 delta: {cert['max_out_of_band_abs']:.2e}")
print(f"  conjugate-symmetry deviation:  {cert['conj_symmetry_max_dev']:.2e}")
print(f"  passed: {cert['passed']}")

# --- Domination slack never goes negative. ------------------------------
rep = bandlimit.domination_report(upper)
print(f"\nmajorant domination: min slack {rep['min_slack']:.2e} "
      f"at x = {rep['argmin_x']:.4f}")
grid = np.linspace(-3.0, 3.0, 13)
assert np.all(upper(grid) >= upper.indicator(grid) - 1e-12)
assert np.all(lower(grid) <= lower.indicator(grid) + 1e-12)
print("pointwise sandwich holds on the sample grid")

"""
Hunting zeros on the critical line
==================================

The Hardy Z-function is real on the critical line and changes sign at
every zero, so bracketing sign changes on a grid and shrinking every
bracket at once by regula falsi (one Z evaluation per step for all of
them) finds all ordinates up to a given height.  The smooth
count theta(t)/pi + 1 predicts how many there should be; the search
refuses to return if its count strays from that prediction.
"""

import math

from zetalab import zeta

T_MAX = 100.0

zeros = zeta.find_zero_ordinates(T_MAX)
print(f"found {len(zeros.gamma)} zeros up to height {T_MAX:g}\n")

# The fluctuation column is the deviation of the running count from the
# smooth prediction; it wanders in a sub-unit band.
print("  #   gamma            gap       count - smooth")
prev = 0.0
for i, g in enumerate(zeros.gamma, start=1):
    smooth = float(zeta.theta_riemann_siegel(g)) / math.pi + 1.0
    print(f"{i:4d}  {g:12.8f}  {g - prev:10.6f}  {i - smooth:+13.6f}")
    prev = float(g)

# Every ordinate should sit where the Hardy function vanishes.
worst = abs(zeta.hardy_z(zeros.gamma)).max()
print(f"\nmax |Z(gamma)| over the table: {worst:.2e}")

# The zero table round-trips through its CSV form, so a scan can be fed
# from a file instead of recomputing the search.
text = zeta.zero_table_text(zeros)
print(f"table serializes to {len(text.splitlines())} lines")

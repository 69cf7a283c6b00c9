"""Estimate the dimension of the middle-thirds Cantor set from first principles.

Walks the full pipeline on the simplest possible schedule: two maps of ratio
1/3 at every time.  The partition function has the closed form
Z_n(t) = (2 * 3^-t)^n, so the pressure rate is log 2 - t log 3 and the
zero-crossing is log 2 / log 3 -- a known answer to check everything against.
"""

import math

from bowendim import bowen_dimension, partition, pressure_estimate
from bowendim.bundled import cantor3

system = cantor3(horizon=30)
target = math.log(2) / math.log(3)

print("middle-thirds schedule: bundled system cantor3")
print(f"analytic dimension  log2/log3 = {target:.9f}\n")

print("partition values Z_n(t) (transfer product, closed form (2*3^-t)^n):")
for t in (0.4, target, 0.8):
    z = partition(system, 1, 10, t)
    print(f"  t={t:.4f}:  Z_10 = {z.value:.6g}   (closed form {(2 * 3**-t) ** 10:.6g})")

print("\npressure rates (zero exactly at the dimension):")
for t in (0.55, 0.63, target, 0.64, 0.7):
    est = pressure_estimate(system, t, (1, 20))
    print(f"  t={t:.4f}:  rate = {est.growth_rate[0]:+.6f}")

res = bowen_dimension(system, (0.2, 0.95), n_max=30, tol=1e-4)
print(f"\nbisection bracket: [{res.bracket[0]:.6f}, {res.bracket[1]:.6f}]")
print(f"contains log2/log3: {res.bracket[0] <= target <= res.bracket[1]}")
print(f"justification: {res.hypothesis.justification}")
print(f"balancing class: {res.hypothesis.balancing.verdict}")

"""Continued-fraction digit systems: exact norms, limit points, dimension.

Words over the digit set {1, 2} compose the branch maps x -> 1/(b + x); the
denominator continuants give the sup derivative exactly (1/q^2), so the
partition sums are exact despite the maps being genuinely nonlinear.  The
dimension lands near 0.5313, and an independent box-counting fit over a
million depth-20 sample points agrees to three digits.
"""

import math

from bowendim import (
    Word,
    bowen_dimension,
    box_counting_dim,
    compose_norm,
    contraction_eta,
    image_region,
    sample_limit_set,
)
from bowendim.bundled import cf12

system = cf12(horizon=20)

print("digit system {1, 2} on [0, 1]\n")
print("continuant norms of short words:")
for letters in [("1",), ("2",), ("1", "2"), ("1", "1", "1")]:
    br = compose_norm(Word(1, letters), system)
    print(f"  |D phi_{''.join(letters)}| = {br.hi:.6f}   ({br.method})")

c = contraction_eta(system)
print(
    f"\nsingle letters reach norm {c.singles_max:.0f}, so contraction is"
    f" certified on blocks of {c.block} (worst block norm {c.eta_block})"
)

golden = (math.sqrt(5) - 1) / 2
lo, hi = image_region(Word(1, ("1",) * 20), system).bounds
print(f"\nperiodic word 111...: point {(lo + hi) / 2:.9f} vs (sqrt5-1)/2 = {golden:.9f}")
print(f"  enclosure radius {(hi - lo) / 2:.2e}")

res = bowen_dimension(system, (0.2, 0.9), n_max=18, tol=1e-4)
print(f"\ndimension bracket: [{res.bracket[0]:.6f}, {res.bracket[1]:.6f}]")

cloud = sample_limit_set(system, depth=20, max_points=2**20, with_words=False)
fit = box_counting_dim(cloud.coords, cloud.radii, (2.0**-14, 2.0**-4))
print(f"box-counting oracle on {len(cloud)} points: {fit.slope:.4f} +- {fit.stderr:.4f}")
print(f"|slope - midpoint| = {abs(fit.slope - res.midpoint):.4f}")

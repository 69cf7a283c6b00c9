"""The checks that decide whether a pressure crossing IS the dimension.

A dimension bracket is only an upper bound until structure certifies more:
disjoint images (open-set check), controlled space diameters, joinability
(primitivity), and either balancing or growth control.  The demo runs the
full check stack on three systems, then shows the mass-distribution
diagnostics certifying a strict lower bound for the middle-thirds set.
"""

from bowendim import (
    evenly_varying_check,
    hypothesis_report,
    lower_bound_diagnostics,
    verify_osc,
)
from bowendim.bundled import bundled_system, cantor3
from bowendim.geometry import diameter_diagnostics

for name, horizon in (("cantor3", 16), ("gdms2v", 16), ("perm2", 10)):
    system = bundled_system(name, horizon=horizon)
    rep = hypothesis_report(system)
    osc = verify_osc(system, 2)
    diam = diameter_diagnostics(system)
    print(name)
    print(f"  open-set check (level 2): {'clean' if osc.ok else osc.violations}")
    print(f"  diameter condition: {'consistent' if diam.satisfied else 'violated'}")
    p = "none" if rep.primitivity is None else rep.primitivity.p
    print(f"  joinability certificate: p = {p}")
    print(f"  balancing: {rep.balancing.verdict}")
    print(f"  -> {rep.justification}: {rep.detail}\n")

cantor = cantor3(16)
print("mass-distribution diagnostics for the middle-thirds set at t = 0.5:")
d = lower_bound_diagnostics(cantor, 0.5, (2, 14))
print(f"  norm-ratio sequence rho_n: all {set(d.rho)}")
print(f"  damped growth rate kappa = {d.kappa_proxy:.4f}")
print(f"  follower growth rate delta = {d.delta_proxy:.4f}")
thresh = d.kappa_proxy / (d.p**2 + d.p + 1)
print(
    f"  delta < kappa/(p^2+p+1) = {thresh:.4f} -> dimension > 0.5 certified:"
    f" {d.certified}"
)

ev = evenly_varying_check(cantor)
print(f"\nevenly varying: sandwich constant c = {ev.c} (letters keep their norms)")

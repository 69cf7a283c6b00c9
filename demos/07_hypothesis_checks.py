"""The checks that decide whether a pressure crossing IS the dimension.

A dimension bracket is only an upper bound until structure certifies more:
disjoint images (open-set check), controlled space diameters, joinability
(primitivity), and either balancing or growth control.  The demo runs the
full check stack on three systems, then the evenly varying check on the
middle-thirds set.
"""

from bowendim import evenly_varying_check, hypothesis_report, verify_osc
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

ev = evenly_varying_check(cantor3(16))
print(f"evenly varying: sandwich constant c = {ev.c} (letters keep their norms)")

"""Pressure curves of a genuinely time-varying schedule.

The alternating system (two ratio-1/2 maps at odd times, two ratio-1/4 maps
at even times) has no single-time description: its per-level pressure
sequence oscillates with parity, and only the windowed growth rate settles
at the true zero-crossing t = 2/3.  The demo prints the s_n sequence at a
few exponents and writes the CSV the command-line `pressure` emits.
"""

import csv
import sys
from pathlib import Path

from bowendim import bowen_dimension, pressure_estimate
from bowendim.bundled import alt24

system = alt24(horizon=30)
out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
out.mkdir(exist_ok=True)

print("alternating schedule: bundled system alt24")
print("closed-form pressure zero: t = 2/3\n")

for t in (0.6, 2 / 3, 0.72):
    est = pressure_estimate(system, t, (1, 24))
    seq = "  ".join(f"{s:+.4f}" for s in est.s_lo[:8])
    print(f"t={t:.4f}")
    print(f"  s_n (first 8):  {seq} ...")
    print(
        f"  tail min/max (liminf/limsup stand-ins):"
        f" {est.lower_proxy[0]:+.5f} / {est.upper_proxy[1]:+.5f}"
    )
    print(f"  windowed growth rate: {est.growth_rate[0]:+.6f}\n")

est = pressure_estimate(system, 2 / 3, (1, 24))
with open(out / "alt24_pressure.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["n", "t", "z_lo", "z_hi", "s_n_lo", "s_n_hi"])
    writer.writerows(zip(*est.columns()))
print(f"wrote {out / 'alt24_pressure.csv'}")

res = bowen_dimension(system, (0.3, 0.95), n_max=30, tol=1e-4)
print(f"bisection bracket: [{res.bracket[0]:.6f}, {res.bracket[1]:.6f}]")
print(f"|midpoint - 2/3| = {abs(res.midpoint - 2 / 3):.2e}")

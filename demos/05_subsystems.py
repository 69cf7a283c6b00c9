"""Primitivity certificates and the three subsystem constructions.

On the bundled two-vertex multigraph: the minimal matrix-product certificate
sits at p = 2 while the direct connector check already passes at p = 1;
uniform re-blocking collapses connectors to length one; pinch-time blocks
reproduce the original partition values exactly; and the endpoint-maximizing
block subsystems approach the full pressure from below as the block length
grows, each block joined to the next by the lexicographically first
connector word, whose derivative norms give the subsystem's Q.
"""

from bowendim import (
    bowen_dimension,
    certify_primitivity,
    compose_norm,
    count_words,
    find_primitivity,
    partition,
)
from bowendim.bundled import gdms2v, pinch2
from bowendim.systems import (
    extract_subsystem_g_bounded,
    reblock_one_primitive,
    reblock_pinched,
)

gdms = gdms2v(horizon=26)
cert = find_primitivity(gdms.schedule, p_max=4)
cert1 = certify_primitivity(gdms.schedule, 1)
print(f"minimal matrix-product certificate: p = {cert.p}")
print(f"direct connector certificate:       p = {cert1.p}\n")

blocked = reblock_one_primitive(gdms, cert)
print(
    f"uniform re-blocking at p={cert.p}: {len(blocked.schedule.letters(1))}"
    f" block letters, word counts preserved:"
    f" {count_words(1, 3, blocked.schedule)} =="
    f" {count_words(1, 6, gdms.schedule)}"
)
print(
    "re-blocked system passes the connector check at length one:",
    certify_primitivity(blocked.schedule, 1) is not None,
)

print("\nblock subsystems with partition-maximizing endpoints (t = 0.5):")
full_b = bowen_dimension(gdms, (0.01, 0.99), 14).midpoint
for ell in (2, 3, 4):
    sub = extract_subsystem_g_bounded(gdms, cert1, ell, t=0.5)
    b_sub = bowen_dimension(sub.system, (0.0, 0.99), sub.blocks).midpoint
    q = min(compose_norm(word, gdms).lo for word in sub.connectors)
    print(
        f"  ell={ell}: {sub.blocks} blocks, maximizing pairs {sub.pairs[:2]}...,"
        f" connector Q = {q:.6g},"
        f" B = {b_sub:.5f}"
    )
print(f"  full system: B = {full_b:.5f} (block values approach it from below)")

pinch = pinch2(horizon=12)
pinched = reblock_pinched(pinch, [2, 4, 6, 8, 10, 12])
z_orig = partition(pinch, 1, 6, 0.5).hi
z_blk = partition(pinched, 1, 3, 0.5).hi
print(
    f"\npinched blocks: Z identity holds bit-for-bit on dyadic ratios:"
    f" {z_orig} == {z_blk}: {z_orig == z_blk}"
)

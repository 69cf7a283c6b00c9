"""Acceptance criteria, one test per criterion, with pass/fail lines.

Each criterion runs at its stated tolerance; pytest -s shows the lines.
"""

import math
import subprocess
import sys
import time

from bowendim import (
    bowen_dimension,
    box_counting_dim,
    build_cf_system,
    certify_primitivity,
    find_primitivity,
    partition,
    sample_limit_set,
    system_theta,
)
from bowendim import _frontier, bundled
from bowendim.systems import (
    autonomous_closure,
    elliptic_lower_bound,
    extract_subsystem_g_bounded,
    reblock_pinched,
)
from conftest import child_env

T_STAR3 = math.log(2) / math.log(3)
# dim E_{1,2}, continued fractions with digits 1 and 2 (Jenkinson-Pollicott 2001)
DIM_E12 = 0.531280506277205141624


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_middle_thirds():
    t0 = time.perf_counter()
    system = bundled.cantor3(30)
    res = bowen_dimension(system, (0.2, 0.95), 30, tol=1e-4)
    elapsed = time.perf_counter() - t0
    ok = (
        res.bracket[0] <= T_STAR3 <= res.bracket[1]
        and res.width <= 2e-4
        and elapsed < 1.0
    )
    report(
        1, ok,
        f"bracket=({res.bracket[0]:.6f}, {res.bracket[1]:.6f}) contains"
        f" log2/log3={T_STAR3:.6f}, width={res.width:.2e},"
        f" runtime={elapsed:.2f}s",
    )


def test_criterion_2_alternating_ratio():
    system = bundled.alt24(30)
    res = bowen_dimension(system, (0.2, 0.95), 30, tol=1e-4)
    ok = res.bracket[0] <= 2 / 3 <= res.bracket[1] and res.width <= 2e-4
    report(
        2, ok,
        f"bracket=({res.bracket[0]:.6f}, {res.bracket[1]:.6f}) contains 2/3,"
        f" width={res.width:.2e}",
    )


CF18_BRACKET = {}


def test_criterion_3_continued_fractions():
    t0 = time.perf_counter()
    system = bundled.cf12(20)
    res = bowen_dimension(system, (0.2, 0.9), 18, tol=1e-4)
    cloud = sample_limit_set(system, 20, 2**20, with_words=False)
    fit = box_counting_dim(cloud.coords, cloud.radii, (2.0**-14, 2.0**-4))
    elapsed = time.perf_counter() - t0
    CF18_BRACKET["bracket"] = res.bracket
    mid = res.midpoint
    # {1, 2} is a sub-alphabet of {1, 2, 100}, whose continuants pass 2^53
    wide = bowen_dimension(build_cf_system([[1, 2, 100]] * 8), (0.2, 0.9), 8)
    ok = (
        0.52 <= res.bracket[0]
        and res.bracket[1] <= 0.54
        and res.bracket[0] <= DIM_E12 <= res.bracket[1]
        and DIM_E12 < wide.bracket[0] <= wide.bracket[1] < 1.0
        and abs(fit.slope - mid) <= 0.03
        and elapsed < 60.0
    )
    report(
        3, ok,
        f"bracket=({res.bracket[0]:.6f}, {res.bracket[1]:.6f}) in [0.52, 0.54]"
        f" holds dim E_12 = {DIM_E12:.10f}; {{1, 2, 100}} bracket"
        f" ({wide.bracket[0]:.6f}, {wide.bracket[1]:.6f}) inside (dim E_12, 1);"
        f" box slope {fit.slope:.4f} vs midpoint {mid:.4f}"
        f" (|diff|={abs(fit.slope - mid):.4f} <= 0.03); runtime={elapsed:.1f}s",
    )


def test_criterion_4_ab_corollary():
    from bowendim import ab_dimension_bounds

    system = bundled.ab_half(12)
    rep = ab_dimension_bounds(system)
    res = bowen_dimension(system, (0.1, 0.95), 12)
    ok = (
        rep.applicable
        and rep.point is not None
        and abs(rep.point - 0.5) <= 0.02
        and res.bracket[0] <= rep.point <= res.bracket[1]
    )
    report(
        4, ok,
        f"point estimate {rep.point:.4f} (= 0.5 +- 0.02), dimension bracket"
        f" ({res.bracket[0]:.6f}, {res.bracket[1]:.6f}) contains it",
    )


def test_criterion_5_elliptic_model():
    rep = elliptic_lower_bound(2, t_grid=(1.2,), n_check=5, horizon=6)
    sel = rep.selections[0]
    poles = len(rep.system.schedule.letters(1)) if rep.system else 0
    lattice_n = len(__import__("bowendim").gaussian_lattice_poles())
    t, checks, growth_ok = rep.growth_checks[0]
    z5 = checks[4][1]
    ok = (
        rep.threshold == 4 / 3
        and lattice_n >= 200
        and sel.feasible
        and sel.n_t is not None
        and growth_ok
        and z5 >= 2**5
    )
    report(
        5, ok,
        f"lower bound exactly 4/3 ({rep.threshold}); lattice holds {lattice_n}"
        f" poles; N_t={sel.n_t} at t=1.2; Z_5(1.2)={z5:.2f} >= 32",
    )


def test_criterion_6_ascending_cf():
    spec = bundled.ascend_cf12_spec(20)
    ascending = bundled.ascend_cf12(20)
    reference = bowen_dimension(bundled.cf12(20), (0.2, 0.9), 18, tol=1e-4)
    res_direct = bowen_dimension(ascending, (0.2, 0.9), 18, tol=1e-4)
    gap = abs(res_direct.midpoint - reference.midpoint)
    # the cited corollary: the ascending system's dimension equals that of
    # its autonomous closure, which here is the reference system itself
    closure = autonomous_closure(spec)
    res_closure = bowen_dimension(closure, (0.2, 0.9), 18, tol=1e-4)
    closure_gap = abs(res_closure.midpoint - reference.midpoint)
    hyp = __import__("bowendim").hypothesis_report(ascending)
    ok = (
        gap <= 1e-3
        and closure_gap <= 1e-3
        and res_direct.bracket[0] <= DIM_E12 <= res_direct.bracket[1]
        and hyp.justification == "ascending-finitely-primitive"
    )
    report(
        6, ok,
        f"ascending bracket ({res_direct.bracket[0]:.6f},"
        f" {res_direct.bracket[1]:.6f}) holds dim E_12;"
        f" midpoint {res_direct.midpoint:.6f} vs reference"
        f" {reference.midpoint:.6f} (|diff|={gap:.2e} <= 1e-3); closure"
        f" midpoint gap {closure_gap:.2e}; justification"
        f" '{hyp.justification}'",
    )


def test_criterion_7_invariant_suite():
    # the randomized suites (200+ cases each) live in test_properties.py;
    # here: the theta chain and the oracle upper-consistency on every
    # bundled system
    rows = []
    ok = True
    for name in sorted(bundled.BUNDLED):
        system = bundled.bundled_system(name)
        theta = system_theta(system)
        n_max = min(system.horizon, 14)
        res = bowen_dimension(system, (0.0, float(system.dim)), n_max, tol=1e-3)
        chain = (
            0.0
            <= theta.theta_n
            <= theta.theta_phi_lower
            <= res.bracket[1] + 1e-9
            <= system.dim + 1e-9
        )
        depth = min(system.horizon, 12)
        while True:
            try:
                cloud = sample_limit_set(
                    system, depth, 2**17, with_words=False
                )
                break
            except Exception:
                depth -= 1
        span = max(res.bracket[1], 0.05)
        scale_hi = 2.0**-2 if system.dim == 2 else 2.0**-4
        scale_lo = max(2.0 * cloud.radii.max(), 2.0**-14)
        fit = box_counting_dim(cloud.coords, cloud.radii, (scale_lo, scale_hi))
        upper = fit.slope <= res.bracket[1] + 0.05
        ok = ok and chain and upper
        rows.append(
            f"{name}: theta_n={theta.theta_n:.3f} <= B_hi={res.bracket[1]:.3f}"
            f" <= d={system.dim}; box {fit.slope:.3f} <= B_hi+0.05 {chain and upper}"
        )
    report(7, ok, "; ".join(rows))


def test_criterion_8_construction_identities():
    pinch = bundled.pinch2(12)
    blocked = reblock_pinched(pinch, [2, 4, 6, 8, 10, 12])
    identity_ok = True
    for t in (0.3, 0.5, 0.8):
        for n in range(1, 6):
            # the enumerated sums, bit-exact on dyadic ratios
            z_orig = _frontier.level_norms(pinch, 1, 2 * n).power_sums(t)[2 * n]
            z_blk = _frontier.level_norms(blocked, 1, n).power_sums(t)[n]
            identity_ok = identity_ok and z_blk[1] == z_orig[1]

    gdms = bundled.gdms2v(26)
    cert1 = certify_primitivity(gdms.schedule, 1)
    ineq_ok = True
    mids = []
    for ell in (2, 3, 4):
        sub = extract_subsystem_g_bounded(gdms, cert1, ell, 0.5)
        for m in range(1, sub.blocks + 1):
            zs = partition(sub.system, 1, m, 0.5).value
            zf = partition(gdms, 1, m * (ell + 1), 0.5).value
            ineq_ok = ineq_ok and zs <= zf * (1 + 1e-12)
        mids.append(
            bowen_dimension(sub.system, (0.0, 0.99), sub.blocks).midpoint
        )
    mono = mids[0] <= mids[1] + 1e-9 and mids[1] <= mids[2] + 1e-9
    ok = identity_ok and ineq_ok and mono
    report(
        8, ok,
        f"pinched Z identity exact for n <= 5 at t in (0.3, 0.5, 0.8):"
        f" {identity_ok}; Z_m(S_ell) <= Z_(m(ell+p)): {ineq_ok};"
        f" B(S_ell) nondecreasing {[round(m, 5) for m in mids]}: {mono}",
    )


def test_criterion_9_primitivity_checker():
    full = find_primitivity(bundled.cantor3(8).schedule, 2)
    perm = find_primitivity(bundled.perm2(10).schedule, 3)
    gdms = bundled.gdms2v(16)
    crafted = find_primitivity(gdms.schedule, 4)
    # hand-verified products: the one-step incidence has zeros, the two-step
    # product is entrywise positive
    a = gdms.schedule.step_matrix(1).astype(int)
    ok = (
        full is not None
        and full.p == 0
        and full.Q == 1.0
        and perm is None
        and crafted is not None
        and crafted.p == 2
        and not a.all()
        and (a @ a > 0).all()
    )
    report(
        9, ok,
        f"full matrices p={full.p}; permutation schedule -> none; crafted"
        f" 2-vertex schedule p={crafted.p} (1-step product has zeros,"
        f" 2-step product positive)",
    )


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name, threads in (("n1", "1"), ("n4", "4")):
        for run in ("a", "b"):
            out = tmp_path / f"{name}{run}"
            env = child_env(BOWENDIM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "bowendim.cli", "report", "cf12",
                 "--out", str(out), "--n-max", "12", "--depth", "10",
                 "--max-points", "1024", "--sample-strategy",
                 "random-admissible", "--seed", "42"],
                check=True, env=env, capture_output=True,
            )
            outs.append(out)
    ok = True
    for name in ("points.csv", "pressure.csv"):
        blobs = [(o / name).read_bytes() for o in outs]
        ok = ok and all(b == blobs[0] for b in blobs[1:])
    report(
        10, ok,
        "report runs at 1 and 4 threads, repeated, give byte-identical"
        " points.csv and pressure.csv",
    )

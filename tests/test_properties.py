"""Randomized invariant suites (hypothesis, 200+ cases per property)."""

import math
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from bowendim import (
    GraphSchedule,
    Word,
    certify_primitivity,
    compose_norm,
    count_words,
    image_region,
    partition,
)
from bowendim import bundled
from bowendim.symbolic import (
    DenseIncidence,
    _follower_count_range,
)
from oracles import (
    connector_floor,
    dense_grid_norm_fast,
    ncifs_schedule,
    schedule_words,
)

CANTOR = bundled.cantor3(12)
CF = bundled.cf12(12)
ALT = bundled.alt24(12)
GDMS = bundled.gdms2v(14)
SYSTEMS = {"cantor": CANTOR, "cf": CF, "alt": ALT, "gdms": GDMS}

CASES = settings(max_examples=200, deadline=None)


@CASES
@given(
    name=st.sampled_from(sorted(SYSTEMS)),
    t=st.floats(0.0, 0.95),
    dt=st.floats(0.01, 0.5),
    n=st.integers(2, 8),
)
def test_partition_monotone_decreasing_in_t(name, t, dt, n):
    system = SYSTEMS[name]
    a = partition(system, 1, n, t)
    b = partition(system, 1, n, min(t + dt, 1.0))
    assert b.hi <= a.hi * (1 + 1e-12)
    assert b.lo <= a.lo * (1 + 1e-12)


@CASES
@given(
    name=st.sampled_from(sorted(SYSTEMS)),
    t0=st.floats(0.05, 0.8),
    h1=st.floats(0.01, 0.1),
    h2=st.floats(0.01, 0.1),
    n=st.integers(2, 8),
)
def test_partition_log_convex_in_t(name, t0, h1, h2, n):
    # midpoint convexity of t -> log Z_n(t) (finite sums of exponentials)
    system = SYSTEMS[name]
    t1, t2 = t0, min(t0 + h1 + h2, 1.0)
    tm = 0.5 * (t1 + t2)
    za = math.log(partition(system, 1, n, t1).value)
    zb = math.log(partition(system, 1, n, t2).value)
    zm = math.log(partition(system, 1, n, tm).value)
    assert zm <= 0.5 * (za + zb) + 1e-9


@CASES
@given(
    name=st.sampled_from(sorted(SYSTEMS)),
    t=st.floats(0.0, 0.7),
    eps=st.floats(0.02, 0.3),
    n=st.integers(2, 10),
)
def test_contraction_bound_with_block_adjustment(name, t, eps, n):
    # Z_n(t+eps) <= eta_block^((n-m+1)/m * eps) ... stated per-step via the
    # certified block: every norm is at most eta_block^floor(n/m), so
    # Z_n(t+eps) <= eta_step^((n-m+1) * eps) Z_n(t); m=1 systems get the
    # literal exponent n.
    system = SYSTEMS[name]
    n = min(n, system.horizon)
    c = system.contraction
    if n < c.block:
        return
    a = partition(system, 1, n, t)
    b = partition(system, 1, n, min(t + eps, 1.0))
    eff = min(t + eps, 1.0) - t
    bound = c.eta_step ** ((n - c.block + 1) * eff) * a.hi
    assert b.hi <= bound * (1 + 1e-9)


WORDS_CF = st.lists(st.sampled_from(["1", "2"]), min_size=2, max_size=8)


@CASES
@given(letters=WORDS_CF, split=st.integers(1, 7))
def test_bdp_sandwich_cf_depth8(letters, split):
    # ||D phi_w|| <= ||D phi_a|| ||D phi_b|| <= K^2 ||D phi_w|| with K = 4
    word = Word(1, tuple(letters))
    if split >= len(word):
        return
    alpha = Word(1, word.letters[:split])
    beta = Word(1 + split, word.letters[split:])
    w = compose_norm(word, CF, check=False)
    a = compose_norm(alpha, CF, check=False)
    b = compose_norm(beta, CF, check=False)
    k = CF.distortion
    assert a.hi * b.hi >= w.lo * (1 - 1e-12)
    assert a.lo * b.lo <= k**2 * w.hi * (1 + 1e-12)


@CASES
@given(letters=WORDS_CF)
def test_bracket_soundness_vs_dense_grid(letters):
    word = Word(1, tuple(letters))
    br = compose_norm(word, CF, check=False)
    maps_seq = [CF.map_for(1 + k, lbl) for k, lbl in enumerate(word.letters)]
    grid = dense_grid_norm_fast(maps_seq, (0.0, 1.0), n_grid=4001)
    assert br.lo - 1e-12 <= grid <= br.hi + 1e-12


@CASES
@given(letters=WORDS_CF)
def test_submultiplicative_over_letters(letters):
    word = Word(1, tuple(letters))
    br = compose_norm(word, CF, check=False)
    prod = 1.0
    for k, lbl in enumerate(word.letters):
        prod *= compose_norm(Word(1 + k, (lbl,)), CF, check=False).hi
    assert br.hi <= prod * (1 + 1e-12)


@CASES
@given(letters=WORDS_CF, ext=st.sampled_from(["1", "2"]))
def test_image_nesting_under_extension(letters, ext):
    word = Word(1, tuple(letters))
    longer = Word(1, tuple(letters) + (ext,))
    outer = image_region(word, CF, check=False)
    inner = image_region(longer, CF, check=False)
    assert outer.contains(inner)


@CASES
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    t=st.floats(0.1, 0.9),
    name=st.sampled_from(sorted(SYSTEMS)),
)
def test_splitting_upper_bound(name, m, n, t):
    # Z_{1,m+n}(t) <= Z_{1,m}(t) * Z_{m+1,m+n}(t)
    system = SYSTEMS[name]
    if m + n > system.horizon:
        return
    whole = partition(system, 1, m + n, t)
    left = partition(system, 1, m, t)
    right = partition(system, m + 1, m + n, t)
    assert whole.hi <= left.hi * right.hi * (1 + 1e-12)


GDMS_CERT = certify_primitivity(GDMS.schedule, 1)
# the least norm over the connectors of every pair at every time
GDMS_Q = connector_floor(GDMS, GDMS_CERT.p)


@CASES
@given(n=st.integers(1, 5), j=st.integers(8, 12), t=st.floats(0.1, 0.9))
def test_splitting_lower_bound_with_connectors(n, j, t):
    # Z_{1,j}(t) >= K^-4t Q^t Z_{1,n}(t) Z_{n+p+1,j}(t)
    p = GDMS_CERT.p
    if n + p + 1 > j:
        return
    k = GDMS.distortion
    q = GDMS_Q
    whole = partition(GDMS, 1, j, t)
    head = partition(GDMS, 1, n, t)
    tail = partition(GDMS, n + p + 1, j, t)
    const = k ** (-4.0 * t) * q**t
    assert whole.lo >= const * head.hi * tail.hi * (1 - 1e-9)


# ---------------------------------------------------------------------------
# random schedules: enumeration counts match transfer counts
# ---------------------------------------------------------------------------


@st.composite
def random_schedule(draw):
    n_letters = draw(st.integers(2, 4))
    horizon = draw(st.integers(3, 6))
    labels = [[f"x{k}" for k in range(n_letters)]] * horizon
    base = ncifs_schedule(labels)
    mats = []
    for _ in range(horizon - 1):
        bits = draw(
            st.lists(
                st.booleans(),
                min_size=n_letters * n_letters,
                max_size=n_letters * n_letters,
            )
        )
        mat = np.array(bits, dtype=bool).reshape(n_letters, n_letters)
        # guarantee pruning survives: keep at least the diagonal
        np.fill_diagonal(mat, True)
        mats.append(DenseIncidence(mat))
    return GraphSchedule(base.vertex_sets, base.alphabets, mats)


@CASES
@given(sched=random_schedule(), m=st.integers(1, 3), span=st.integers(0, 3))
def test_enumeration_count_matches_transfer(sched, m, span):
    n = min(m + span, sched.horizon)
    m = min(m, n)
    words = schedule_words(sched, m, n)
    assert count_words(m, n, sched) == len(words)
    # the follower-count range reads the same backward transfer: per kept
    # letter at time m, the words m..n it starts
    if m < n:
        sizes = Counter(word[0] for word in words)
        kept = {e.label for e, k in zip(sched.letters(m), sched.kept[m]) if k}
        assert set(sizes) == kept
        assert _follower_count_range(sched, m, n - m) == (
            min(sizes.values()), max(sizes.values())
        )


@CASES
@given(sched=random_schedule())
def test_growth_chain_on_random_schedules(sched):
    from bowendim import growth_stats

    stats = growth_stats(sched)
    for k in range(len(stats.g_lo)):
        assert (
            stats.g_lo[k]
            <= stats.g_hi[k]
            <= stats.counts[k + 1]
            <= stats.g_hi[k] * stats.counts[k]
        )

"""Schedules, admissibility, enumeration, growth statistics, primitivity."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bowendim import (
    ConfigurationError,
    GraphSchedule,
    InputError,
    IntegrityError,
    Word,
    certify_primitivity,
    compose_norm,
    count_words,
    find_primitivity,
    growth_stats,
    is_admissible,
    partition,
    subexp_diagnostic,
)
from bowendim import _frontier, symbolic
from bowendim.cli import main
from bowendim.symbolic import (
    DenseIncidence,
    FullIncidence,
    GrowthStats,
    Letter,
    _products_positive,
)
from bowendim.systems import build_similarity_system, extract_subsystem_g_bounded
from bowendim.thermo import hypothesis_report

from oracles import (
    all_pairs_connectors,
    brute_words,
    connector_floor,
    int64_products_positive,
    loop_count_transfer,
    loop_transfer,
    matrix_power_count,
    ncifs_schedule,
    schedule_words,
)


def full_ncifs(n_letters, horizon):
    return ncifs_schedule([[f"a{k}" for k in range(n_letters)]] * horizon)


def ident_schedule(n_letters, horizon):
    labels = [[f"a{k}" for k in range(n_letters)]] * horizon
    base = ncifs_schedule(labels)
    eye = np.eye(n_letters, dtype=bool)
    inc = [DenseIncidence(eye) for _ in range(horizon - 1)]
    return GraphSchedule(base.vertex_sets, base.alphabets, inc)


def swept_levels(sched, m, n):
    """{j: (rows, labels)} of every level m..n, from one `word_levels` sweep."""
    levels = {}

    def on_words(j, rows, labels):
        levels[j] = (rows.tolist(), labels)

    _frontier.word_levels(SimpleNamespace(schedule=sched), m, n, on_words)
    return levels


def swept_words(sched, m, n):
    """The label tuples of the words m..n, from `word_levels`."""
    return _frontier.word_levels(SimpleNamespace(schedule=sched), m, n)[1]


def crafted_deadend():
    """Three letters; e7 has no followers anywhere after time 2."""
    labels = [["e1", "e3", "e7"]] * 4
    base = ncifs_schedule(labels)
    mat = np.array(
        [[1, 1, 1], [1, 1, 1], [0, 0, 0]], dtype=bool
    )  # e7 never extends
    inc = [DenseIncidence(mat) for _ in range(3)]
    return GraphSchedule(base.vertex_sets, base.alphabets, inc)


def cyclic3(horizon=4):
    """Letter k may be followed by letters k and k+1 (mod 3)."""
    labels = [["c0", "c1", "c2"]] * horizon
    base = ncifs_schedule(labels)
    mat = np.zeros((3, 3), dtype=bool)
    for k in range(3):
        mat[k, k] = True
        mat[k, (k + 1) % 3] = True
    inc = [DenseIncidence(mat) for _ in range(horizon - 1)]
    return GraphSchedule(base.vertex_sets, base.alphabets, inc), mat


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


class TestAdmissibility:
    def test_single_letter_with_followers(self):
        sched = full_ncifs(2, 5)
        assert is_admissible(Word(1, ("a0",)), sched)

    def test_pair_with_zero_entry(self):
        sched, _ = cyclic3()
        assert not is_admissible(Word(1, ("c0", "c2")), sched)
        assert is_admissible(Word(1, ("c0", "c1")), sched)

    def test_dead_end_letter_rejected(self):
        # all incidence entries into e7's row... the pair (e1, e7) is allowed
        # pointwise, but e7 has empty followers at every later time
        sched = crafted_deadend()
        assert not is_admissible(Word(1, ("e1", "e3", "e7")), sched)
        # oracle agreement on every length-3 tuple
        labels = [None] + [["e1", "e3", "e7"]] * 4
        mat = np.array([[1, 1, 1], [1, 1, 1], [0, 0, 0]], dtype=bool)
        idx = {"e1": 0, "e3": 1, "e7": 2}

        def inc_fn(j, a, b):
            return bool(mat[idx[a], idx[b]])

        expected = set(brute_words(labels, inc_fn, 1, 3, 4))
        got = {
            w
            for w in [
                (a, b, c)
                for a in idx
                for b in idx
                for c in idx
            ]
            if is_admissible(Word(1, w), sched)
        }
        assert got == expected

    def test_unknown_letter_is_input_error(self):
        sched = full_ncifs(2, 5)
        with pytest.raises(InputError):
            is_admissible(Word(1, ("nope",)), sched)
        with pytest.raises(InputError):
            is_admissible(Word(5, ("a0", "a1")), sched)

    def test_backward_unreachable_rejected(self):
        # letter b1 at time 2 has no predecessor: not part of any word from time 1
        labels = [["a0", "a1"], ["b0", "b1"], ["c0"]]
        base = ncifs_schedule(labels)
        inc = [
            DenseIncidence(np.array([[1, 0], [1, 0]], dtype=bool)),
            DenseIncidence(np.array([[1], [1]], dtype=bool)),
        ]
        sched = GraphSchedule(base.vertex_sets, base.alphabets, inc)
        assert not is_admissible(Word(2, ("b1", "c0")), sched)
        assert is_admissible(Word(2, ("b0", "c0")), sched)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


class TestEnumeration:
    def test_full_product(self):
        sched = full_ncifs(2, 5)
        assert len(swept_words(sched, 1, 3)) == 8

    def test_identity_only_constant_words(self):
        sched = ident_schedule(2, 5)
        words = swept_words(sched, 1, 5)
        assert words == schedule_words(sched, 1, 5) == [("a0",) * 5, ("a1",) * 5]

    def test_cyclic_count_matches_matrix_power(self):
        sched, mat = cyclic3(4)
        words = swept_words(sched, 1, 4)
        expected = matrix_power_count([mat, mat, mat], [1, 1, 1])
        assert len(words) == expected == count_words(1, 4, sched)

    def test_lexicographic_dfs_order(self):
        # brute_words lists each level in letter order, as a depth-first walk
        sched, _ = cyclic3(5)
        for m in range(1, 5):
            for j, (rows, labels) in swept_levels(sched, m, 5).items():
                assert labels == schedule_words(sched, m, j)
                assert rows == [
                    [sched.letter_index(m + k, lbl) for k, lbl in enumerate(word)]
                    for word in labels
                ]

    def test_visitor_aggregation(self):
        # the callback sees every level once, and the last level is returned
        sched = full_ncifs(3, 4)
        seen = []
        rows, labels = _frontier.word_levels(
            SimpleNamespace(schedule=sched), 1, 2,
            lambda j, rows, labels: seen.append((j, len(labels))),
        )
        assert seen == [(1, 3), (2, 9)]
        assert rows.shape == (9, 2) and len(labels) == 9

    def test_horizon_exceeded(self):
        sched = full_ncifs(2, 3)
        with pytest.raises(ConfigurationError):
            count_words(1, 9, sched)

    @pytest.mark.parametrize("m, n", [(0, 2), (-1, 2), (4, 2), (3, 2), (2, 4)])
    def test_range_outside_one_to_horizon(self, m, n):
        sched = full_ncifs(2, 3)
        with pytest.raises(ConfigurationError, match="need 1 <= m <= n <= horizon=3"):
            count_words(m, n, sched)

    def test_counts_match_enumeration_everywhere(self):
        sched, _ = cyclic3(5)
        for m in range(1, 5):
            for n in range(m, 6):
                assert count_words(m, n, sched) == len(swept_words(sched, m, n))

    def test_enumeration_matches_brute_oracle_under_pruning(self):
        # the dead-end schedule prunes e7 everywhere, so raw matrix powers
        # over-count; the brute-force oracle applies both word conditions
        sched = crafted_deadend()
        labels = [None] + [["e1", "e3", "e7"]] * 4
        mat = np.array([[1, 1, 1], [1, 1, 1], [0, 0, 0]], dtype=bool)
        idx = {"e1": 0, "e3": 1, "e7": 2}

        def inc_fn(j, a, b):
            return bool(mat[idx[a], idx[b]])

        for m in range(1, 4):
            for j, (_, got) in swept_levels(sched, m, 4).items():
                expect = brute_words(labels, inc_fn, m, j, 4)
                assert got == expect
                assert count_words(m, j, sched) == len(expect)


class TestWalker:
    def test_prefixes_precede_extensions(self):
        sched = full_ncifs(2, 3)
        levels = swept_levels(sched, 1, 2)
        assert list(levels) == [1, 2]
        assert levels[1][1] == [("a0",), ("a1",)]
        assert levels[2][1] == [
            ("a0", "a0"), ("a0", "a1"), ("a1", "a0"), ("a1", "a1"),
        ]

    def test_long_words_do_not_recurse(self):
        # one letter per time for 1200 steps: deeper than the recursion limit
        sched = ncifs_schedule([["a"]] * 1200)
        assert swept_words(sched, 1, 1200) == [("a",) * 1200]
        assert swept_words(sched, 51, 1200) == [("a",) * 1150]


# ---------------------------------------------------------------------------
# growth statistics
# ---------------------------------------------------------------------------


class TestGrowthStats:
    def test_full_matrices(self):
        stats = growth_stats(full_ncifs(4, 6))
        assert set(stats.g_lo) == {4} and set(stats.g_hi) == {4}
        assert set(stats.xi) == {1.0}

    def test_identity_matrices(self):
        stats = growth_stats(ident_schedule(3, 6))
        assert set(stats.g_lo) == {1} and set(stats.g_hi) == {1}

    def test_crafted_matches_brute_force(self):
        sched, mat = cyclic3(5)
        stats = growth_stats(sched)
        # every letter has exactly 2 followers under the cyclic band
        assert set(stats.g_lo) == {2} and set(stats.g_hi) == {2}

    def test_single_step_chain_holds(self, gdms):
        stats = growth_stats(gdms.schedule)
        for k in range(len(stats.g_lo)):
            assert (
                stats.g_lo[k]
                <= stats.g_hi[k]
                <= stats.counts[k + 1]
                <= stats.g_hi[k] * stats.counts[k]
            )

    def test_primitivity_chain_asserted(self, gdms):
        cert = find_primitivity(gdms.schedule, 4)
        stats = growth_stats(gdms.schedule, cert)  # raises on violation
        assert isinstance(stats, GrowthStats)

    def test_empty_alphabet_is_integrity_error(self):
        labels = [["a0", "a1"]] * 3
        base = ncifs_schedule(labels)
        dead = DenseIncidence(np.zeros((2, 2), dtype=bool))
        with pytest.raises(IntegrityError):
            GraphSchedule(base.vertex_sets, base.alphabets, [dead, dead]).kept


# ---------------------------------------------------------------------------
# subexponential diagnostics
# ---------------------------------------------------------------------------


def synthetic_stats(counts):
    h = len(counts)
    return GrowthStats(
        times=tuple(range(1, h + 1)),
        counts=tuple(counts),
        g_lo=tuple(counts[1:]),
        g_hi=tuple(counts[1:]),
        xi=(1.0,) * (h - 1),
        horizon=h,
    )


class TestSubexpDiagnostic:
    def test_constant_alphabets(self):
        rep = subexp_diagnostic(synthetic_stats([3] * 32))
        assert rep.verdict == "subexponential-consistent"
        assert abs(rep.count_trend.slope) < 1e-12

    def test_doubling_alphabets(self):
        rep = subexp_diagnostic(synthetic_stats([2**n for n in range(1, 33)]))
        assert rep.count_trend.verdict == "exponential"
        assert rep.count_trend.rate == pytest.approx(math.log(2), abs=1e-9)

    def test_polynomial_alphabets(self):
        rep = subexp_diagnostic(synthetic_stats([n * n for n in range(1, 65)]))
        assert rep.verdict == "subexponential-consistent"

    def test_horizon_too_short(self):
        with pytest.raises(ConfigurationError):
            subexp_diagnostic(synthetic_stats([2] * 4))


# ---------------------------------------------------------------------------
# finite primitivity
# ---------------------------------------------------------------------------


class TestPrimitivity:
    def test_full_matrices_p0(self):
        cert = find_primitivity(full_ncifs(3, 6), 2)
        assert cert.p == 0 and cert.Q == 1.0

    def test_permutation_returns_none(self):
        assert find_primitivity(ident_schedule(2, 8), 3) is None

    def test_crafted_two_vertex_p2(self, gdms):
        # hand-verified incidence fixture: graph-full on two vertices with
        # letters uu1, uu2, uw, wu, ww1, ww2 (src/dst as labeled)
        dst = ["u", "u", "w", "u", "w", "w"]
        src = ["u", "u", "u", "w", "w", "w"]
        expected = np.array(
            [[dst[a] == src[b] for b in range(6)] for a in range(6)]
        )
        got = gdms.schedule.step_matrix(1)
        assert np.array_equal(got, expected)
        # one-step product (the matrix itself) has zeros; two-step is positive
        assert not expected.all()
        two_step = expected.astype(int) @ expected.astype(int)
        assert (two_step > 0).all()
        cert = find_primitivity(gdms.schedule, 4)
        assert cert.p == 2

    def test_horizon_precondition(self):
        with pytest.raises(ConfigurationError):
            find_primitivity(full_ncifs(2, 3), 4)

    def test_monotone_in_horizon(self, gdms):
        # p found at a horizon works at every smaller horizon >= p + 2
        full = find_primitivity(gdms.schedule, 4)
        for h in range(full.p + 2, gdms.horizon):
            sub = GraphSchedule(
                gdms.schedule.vertex_sets[: h + 1],
                gdms.schedule.alphabets[: h + 1],
                list(gdms.schedule.incidence[1:h]),
            )
            cert = find_primitivity(sub, min(4, h - 2))
            assert cert is not None and cert.p <= full.p

    def test_direct_certificate_at_p1(self, gdms):
        cert = certify_primitivity(gdms.schedule, 1)
        assert cert is not None and cert.p == 1 and cert.Q is None
        # every pair two steps apart is joined by a connector
        lam = all_pairs_connectors(gdms.schedule, 1)[1]
        labels = [e.label for e in gdms.schedule.letters(1)]
        for a in labels:
            for b in labels:
                assert (a, b) in lam
                word = lam[(a, b)]
                assert len(word) == 1 and word.start == 2
                assert is_admissible(
                    Word(1, (a,) + word.letters + (b,)), gdms.schedule
                )

    def test_connectors_lexicographically_smallest(self, gdms):
        lam = all_pairs_connectors(gdms.schedule, 1)[1]
        # pair (uu1 -> uu1): candidates are the u->u letters uu1, uu2; the
        # alphabet lists uu1 first
        assert lam[("uu1", "uu1")].letters == ("uu1",)

    def test_q_lower_bounds_connector_norms(self, gdms):
        # the all-pairs floor bounds the norms of the connectors a block
        # subsystem inserts, so its sandwich constant is at most the one
        # that floor gives
        floor = connector_floor(gdms, 1)
        sub = extract_subsystem_g_bounded(
            gdms, certify_primitivity(gdms.schedule, 1), 3, 0.5
        )
        assert all(floor <= compose_norm(w, gdms).lo for w in sub.connectors)
        m_const = max(
            partition(gdms, j, j, 0.5).hi for j in range(1, gdms.horizon + 1)
        )
        bound = gdms.distortion**2 * m_const / floor**0.5
        assert sub.sandwich_constant <= bound * (1 + 1e-12)


class TestConnectorsOnDemand:
    """Certificates carry no connector words."""

    def test_schedule_search_leaves_connectors_empty(self, gdms):
        cert = find_primitivity(gdms.schedule, 4)
        assert cert.p == 2 and cert.Q is None
        assert not hasattr(cert, "connectors")

    def test_hypothesis_report(self, gdms):
        assert hypothesis_report(gdms).primitivity.p == 2

    def test_check_command(self, tmp_path):
        assert main(["check", "gdms2v", "--out", str(tmp_path)]) in (0, 4)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["hypotheses"]["primitivity_p"] == 2

    def test_uniform_subsystem(self, tmp_path):
        assert main(
            ["subsystem", "gdms2v", "--mode", "uniform", "--out", str(tmp_path)]
        ) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["p"] == 2


# ---------------------------------------------------------------------------
# dense incidence primitives against the original loops
# ---------------------------------------------------------------------------


@st.composite
def irregular_incidence(draw, max_cur=40, max_nxt=12):
    """A bound DenseIncidence whose columns have in-degree 0, 1-7 or >= 8
    (numpy's pairwise-summation regime), and its 0/1 matrix."""
    n_cur = draw(st.integers(1, max_cur))
    n_nxt = draw(st.integers(1, max_nxt))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = np.zeros((n_cur, n_nxt), dtype=bool)
    for b in range(n_nxt):
        regime = draw(st.sampled_from(["none", "few", "many"]))
        k = {"none": 0, "few": min(n_cur, 7), "many": n_cur}[regime]
        if regime != "none":
            k = draw(st.integers(1 if regime == "few" else min(8, n_cur), k))
        mat[rng.choice(n_cur, size=k, replace=False), b] = True
    inc = DenseIncidence(mat).bind([0] * n_cur, [0] * n_nxt, ("v",))
    return inc, mat


class TestDensePrimitives:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), drawn=irregular_incidence())
    def test_transfer_equals_column_loop(self, data, drawn):
        inc, mat = drawn
        n_cur, n_nxt = mat.shape
        # mixed signs and magnitudes: any other summation order shows
        values = st.floats(-1e12, 1e12, allow_subnormal=True)
        u = data.draw(arrays(np.float64, n_cur, elements=values))
        w = data.draw(arrays(np.float64, n_nxt, elements=st.floats(0.0, 1e3)))
        keep = data.draw(arrays(np.bool_, n_nxt))
        got = inc.transfer(u, w, keep)
        want = loop_transfer(mat, u, w, keep)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), drawn=irregular_incidence(max_cur=12, max_nxt=40))
    def test_count_transfer_is_exact(self, data, drawn):
        inc, mat = drawn
        # small counts take int64, counts near or past 2**63 exact ints
        top = data.draw(st.sampled_from([2**20, 2**62, 2**63, 2**80]))
        counts = data.draw(st.lists(st.integers(0, top), min_size=mat.shape[1],
                                    max_size=mat.shape[1]))
        got = inc.count_transfer(counts)
        assert got == loop_count_transfer(mat, counts)
        assert all(type(c) is int for c in got)

    def test_count_transfer_at_the_int64_edge(self):
        mat = np.ones((1, 2), dtype=bool)
        inc = DenseIncidence(mat).bind([0], [0, 0], ("v",))
        assert inc.count_transfer([2**62 - 1] * 2) == [2**63 - 2]
        assert inc.count_transfer([2**62] * 2) == [2**63]
        # rows without ones still must not squeeze a huge count into int64
        empty = DenseIncidence(np.zeros((1, 2), dtype=bool)).bind([0], [0, 0], ("v",))
        assert empty.count_transfer([2**80, 1]) == [0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_boolean_products_equal_int64(self, data):
        horizon = data.draw(st.integers(5, 7))
        sizes = [data.draw(st.integers(1, 6)) for _ in range(horizon)]
        density = data.draw(st.sampled_from([0.3, 0.6, 0.9]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        labels = [[f"a{k}" for k in range(n)] for n in sizes]
        base = ncifs_schedule(labels)
        inc = [
            DenseIncidence(rng.random((a, b)) < density)
            for a, b in zip(sizes, sizes[1:])
        ]
        try:
            sched = GraphSchedule(base.vertex_sets, base.alphabets, inc)
            sched.kept
        except IntegrityError:  # pruning emptied an alphabet
            assume(False)
        for p in range(1, 5):
            assert _products_positive(sched, p) == int64_products_positive(sched, p)


# ---------------------------------------------------------------------------
# the shared incidence primitives against loops over the 0/1 matrix
# ---------------------------------------------------------------------------


@st.composite
def multi_vertex_schedules(draw):
    """A schedule over one to three vertices a time whose steps are complete
    or a drawn subset of the composable pairs, and each step's 0/1 matrix
    from the definition: A(a, b) = 1 iff t(a) = i(b) on a complete step, and
    iff (a, b) is in the drawn subset otherwise."""
    horizon = draw(st.integers(2, 4))
    vertex_sets = [
        tuple(f"v{n}.{k}" for k in range(draw(st.integers(1, 3))))
        for n in range(horizon + 1)
    ]
    alphabets = [()]
    for n in range(1, horizon + 1):
        size = draw(st.integers(1, 8))
        alphabets.append(tuple(
            Letter(
                f"e{k}",
                draw(st.sampled_from(vertex_sets[n - 1])),
                draw(st.sampled_from(vertex_sets[n])),
            )
            for k in range(size)
        ))
    steps, mats = [], []
    for n in range(1, horizon):
        cur, nxt = alphabets[n], alphabets[n + 1]
        mat = np.array([[a.dst == b.src for b in nxt] for a in cur], dtype=bool)
        if draw(st.booleans()):
            steps.append(FullIncidence())
        else:
            mat &= draw(arrays(np.bool_, mat.shape))
            steps.append(DenseIncidence(mat))
        mats.append(mat)
    return GraphSchedule(vertex_sets, alphabets, steps), [None] + mats


def table_followers(table, a):
    """Letter a's successors, read from the table's arrays."""
    start, k = table.ptr[table.row[a]], table.counts[table.row[a]]
    return table.cols[start : start + k].tolist()


def assert_primitives_match_matrix(data, inc, mat):
    n_cur, n_nxt = mat.shape
    keep_cur = data.draw(arrays(np.bool_, n_cur))
    keep_nxt = data.draw(arrays(np.bool_, n_nxt))
    values = data.draw(arrays(np.float64, n_nxt, elements=st.floats(0.0, 1e3)))
    top = data.draw(st.sampled_from([2**20, 2**62, 2**80]))
    counts = data.draw(st.lists(st.integers(0, top), min_size=n_nxt, max_size=n_nxt))

    np.testing.assert_array_equal(inc.matrix(), mat)
    masked = mat & keep_cur[:, None] & keep_nxt[None, :]
    np.testing.assert_array_equal(inc.matrix(keep_cur, keep_nxt), masked)
    table = inc.follower_table(keep_nxt)
    for a in range(n_cur):
        want = [b for b in range(n_nxt) if mat[a, b] and keep_nxt[b]]
        assert inc.followers(a, keep_nxt).tolist() == want
        assert table_followers(table, a) == want
        assert inc.count_followers(keep_nxt)[a] == len(want)
        least = min((values[b] for b in want), default=np.inf)
        assert inc.follower_min(keep_nxt, values)[a] == least
    reach = [any(mat[a, b] for a in range(n_cur) if keep_cur[a]) for b in range(n_nxt)]
    assert inc.reach_next(keep_cur).tolist() == reach
    got = inc.count_transfer(counts)
    assert got == [sum(counts[b] for b in range(n_nxt) if mat[a, b]) for a in range(n_cur)]
    assert all(type(c) is int for c in got)
    complete = all(
        mat[a, b] for a in range(n_cur) for b in range(n_nxt) if keep_cur[a] and keep_nxt[b]
    )
    assert inc.is_complete(keep_cur, keep_nxt) == complete


class TestSharedPrimitives:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), drawn=multi_vertex_schedules())
    def test_primitives_equal_matrix_loops(self, data, drawn):
        sched, mats = drawn
        for n in range(1, sched.horizon):
            assert_primitives_match_matrix(data, sched.incidence[n], mats[n])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), drawn=multi_vertex_schedules())
    def test_complete_step_equals_dense_of_its_matrix(self, data, drawn):
        sched, _ = drawn
        full = [FullIncidence() for _ in range(sched.horizon - 1)]
        full_sched = GraphSchedule(sched.vertex_sets, sched.alphabets, full)
        dense = [DenseIncidence(inc.matrix()) for inc in full_sched.incidence[1:]]
        dense_sched = GraphSchedule(sched.vertex_sets, sched.alphabets, dense)
        for n in range(1, sched.horizon):
            f, d = full_sched.incidence[n], dense_sched.incidence[n]
            mat = f.matrix()
            assert_primitives_match_matrix(data, d, mat)
            assert_primitives_match_matrix(data, f, mat)
            assert f.same_relation(d) and d.same_relation(f)
            u = data.draw(arrays(np.float64, mat.shape[0], elements=st.floats(0.0, 1e3)))
            w = data.draw(arrays(np.float64, mat.shape[1], elements=st.floats(0.0, 1e3)))
            keep = data.draw(arrays(np.bool_, mat.shape[1]))
            np.testing.assert_allclose(f.transfer(u, w, keep), d.transfer(u, w, keep))
            if mat.any():
                # one pair fewer is another relation
                fewer = mat.copy()
                fewer[tuple(np.argwhere(mat)[0])] = False
                steps = list(dense_sched.incidence[1:])
                steps[n - 1] = DenseIncidence(fewer)
                other = GraphSchedule(sched.vertex_sets, sched.alphabets, steps)
                assert not f.same_relation(other.incidence[n])
                assert not other.incidence[n].same_relation(f)

    @settings(max_examples=100, deadline=None)
    @given(drawn=multi_vertex_schedules())
    def test_one_object_at_every_step(self, drawn):
        # one complete-step object passed for every step binds as itself
        # where the vertex codes repeat and as a bound copy where they differ
        sched, _ = drawn
        steps = sched.horizon - 1
        fresh = GraphSchedule(
            sched.vertex_sets, sched.alphabets, [FullIncidence() for _ in range(steps)]
        )
        # an object bound, and read, at one step of another schedule first
        used = fresh.incidence[steps]
        used.reach(np.ones(used.n_cur, dtype=bool))
        for one in (FullIncidence(), used):
            shared = GraphSchedule(sched.vertex_sets, sched.alphabets, [one] * steps)
            for n in range(1, sched.horizon):
                mine, theirs = shared.incidence[n], fresh.incidence[n]
                np.testing.assert_array_equal(mine.matrix(), theirs.matrix())
                ones = np.ones(mine.n_cur, dtype=bool)
                assert mine.reach(ones).tolist() == theirs.reach(ones).tolist()


# ---------------------------------------------------------------------------
# the primitivity search against an int64 scan
# ---------------------------------------------------------------------------


@st.composite
def primitivity_schedules(draw):
    """A schedule over one or two vertices a time, long enough for p up to
    five, whose steps are complete or a dense drawn subset of the
    composable pairs, so that some letters are pruned and some products
    turn positive."""
    horizon = draw(st.integers(3, 7))
    vertex_sets = [
        tuple(f"v{k}" for k in range(draw(st.integers(1, 2))))
        for _ in range(horizon + 1)
    ]
    alphabets = [()]
    for n in range(1, horizon + 1):
        alphabets.append(tuple(
            Letter(
                f"e{k}",
                draw(st.sampled_from(vertex_sets[n - 1])),
                draw(st.sampled_from(vertex_sets[n])),
            )
            for k in range(draw(st.integers(1, 5)))
        ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.5, 0.8, 0.95]))
    steps = []
    for n in range(1, horizon):
        if draw(st.integers(0, 3)) == 0:
            steps.append(FullIncidence())
            continue
        cur, nxt = alphabets[n], alphabets[n + 1]
        mat = np.array([[a.dst == b.src for b in nxt] for a in cur], dtype=bool)
        steps.append(DenseIncidence(mat & (rng.random(mat.shape) < density)))
    sched = GraphSchedule(vertex_sets, alphabets, steps)
    try:
        sched.kept
    except IntegrityError:  # pruning emptied an alphabet
        assume(False)
    return sched


def scanned_primitivity(sched, p_max):
    """The least p <= p_max of the positivity criterion, p by p in int64."""
    if all(sched.step_complete(n) for n in range(1, sched.horizon)):
        return 0
    return next(
        (p for p in range(1, p_max + 1) if int64_products_positive(sched, p)), None
    )


class TestChainedPrimitivity:
    @settings(max_examples=200, deadline=None)
    @given(sched=primitivity_schedules())
    def test_search_equals_int64_scan(self, sched):
        p_max = sched.horizon - 2
        cert = find_primitivity(sched, p_max)
        assert (None if cert is None else cert.p) == scanned_primitivity(sched, p_max)
        for p in range(p_max + 1):
            want = (
                all(sched.step_complete(n) for n in range(1, sched.horizon))
                if p == 0
                else int64_products_positive(sched, p + 1)
            )
            assert (certify_primitivity(sched, p) is not None) == want

    def test_search_extends_each_product_by_one_step(self, monkeypatch):
        # 300 letters of degree 3 and horizon 6: no p <= 4 works, and the
        # search forms A(1)A(2), then extends it by A(3) and by A(4)
        n, horizon = 300, 6
        mat = (np.arange(n)[None, :] - 7 * np.arange(n)[:, None]) % n < 3
        ratios, offsets = [0.5 / n] * n, [k / n for k in range(n)]
        system = build_similarity_system([ratios] * horizon, [offsets] * horizon, mat)
        reach = symbolic.Incidence.reach
        calls = []

        def counted(inc, rows):
            calls.append(rows.shape)
            return reach(inc, rows)

        monkeypatch.setattr(symbolic.Incidence, "reach", counted)
        assert find_primitivity(system.schedule, 4) is None
        assert len(calls) <= 3

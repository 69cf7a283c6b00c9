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
    count_words,
    find_primitivity,
    growth_stats,
    is_admissible,
    ncifs_schedule,
    subexp_diagnostic,
)
from bowendim import _frontier, symbolic
from bowendim.cli import main
from bowendim.symbolic import (
    DenseIncidence,
    GrowthStats,
    _products_positive,
)
from bowendim.systems import system_certify, system_primitivity
from bowendim.thermo import hypothesis_report

from oracles import (
    brute_words,
    int64_products_positive,
    loop_count_transfer,
    loop_transfer,
    matrix_power_count,
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
        cert = system_primitivity(gdms, 4)
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
        assert cert.p == 0 and cert.Q == 1.0 and cert.connectors == {}

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
        cert = system_primitivity(gdms, 4)
        assert cert.p == 2

    def test_horizon_precondition(self):
        with pytest.raises(ConfigurationError):
            find_primitivity(full_ncifs(2, 3), 4)

    def test_monotone_in_horizon(self, gdms):
        # p found at a horizon works at every smaller horizon >= p + 2
        full = system_primitivity(gdms, 4)
        for h in range(full.p + 2, gdms.horizon):
            sub = GraphSchedule(
                gdms.schedule.vertex_sets[: h + 1],
                gdms.schedule.alphabets[: h + 1],
                list(gdms.schedule.incidence[1:h]),
            )
            cert = find_primitivity(sub, min(4, h - 2))
            assert cert is not None and cert.p <= full.p

    def test_direct_certificate_at_p1(self, gdms):
        cert = system_certify(gdms, 1)
        assert cert is not None and cert.p == 1
        assert cert.Q is not None and cert.Q > 0
        # every pair two steps apart is joined by a stored connector
        lam = cert.connectors[1]
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
        cert = system_certify(gdms, 1)
        lam = cert.connectors[1]
        # pair (uu1 -> uu1): candidates are the u->u letters uu1, uu2; the
        # alphabet lists uu1 first
        assert lam[("uu1", "uu1")].letters == ("uu1",)

    def test_q_lower_bounds_connector_norms(self, gdms):
        from bowendim import compose_norm

        cert = system_certify(gdms, 1)
        for table in cert.connectors.values():
            for word in table.values():
                assert cert.Q <= compose_norm(word, gdms).lo + 1e-15


class TestConnectorsOnDemand:
    """Only the system-level certificates build connector words."""

    @pytest.fixture
    def no_connectors(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("connector words built")

        monkeypatch.setattr(symbolic, "_build_connectors", refuse)

    def test_schedule_search_leaves_connectors_empty(self, gdms):
        cert = find_primitivity(gdms.schedule, 4)
        assert cert.p == 2 and cert.connectors == {} and cert.Q is None

    def test_system_certify_builds_them(self, gdms, no_connectors):
        with pytest.raises(AssertionError, match="connector words built"):
            system_certify(gdms, 1)

    def test_hypothesis_report(self, gdms, no_connectors):
        assert hypothesis_report(gdms).primitivity.p == 2

    def test_check_command(self, tmp_path, no_connectors):
        assert main(["check", "gdms2v", "--out", str(tmp_path)]) in (0, 4)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["hypotheses"]["primitivity_p"] == 2

    def test_uniform_subsystem(self, tmp_path, no_connectors):
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
    inc = DenseIncidence(mat).bind(["v"] * n_cur, ["v"] * n_nxt)
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
        inc = DenseIncidence(mat).bind(["v"], ["v", "v"])
        assert inc.count_transfer([2**62 - 1] * 2) == [2**63 - 2]
        assert inc.count_transfer([2**62] * 2) == [2**63]
        # rows without ones still must not squeeze a huge count into int64
        empty = DenseIncidence(np.zeros((1, 2), dtype=bool)).bind(["v"], ["v", "v"])
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

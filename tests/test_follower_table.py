"""Frontier expansion through the per-step follower tables: the same levels,
in the same order, as grouping the frontier letter by letter, and tables of a
size linear in the letters of a complete step."""

import tracemalloc

import numpy as np
import pytest

from bowendim import _frontier, bundled
from bowendim.symbolic import FullIncidence, GraphSchedule, Letter
from bowendim.systems import build_similarity_system

from oracles import grouped_sweep


def mixed_degrees(horizon=6):
    # out-degrees 2, 3 and 1; letter 3 has no follower, so pruning drops it
    # everywhere but at the horizon, and letter 1 keeps 3 followers only on
    # the last step
    mat = [[1, 1, 0, 0], [0, 1, 1, 1], [1, 0, 0, 0], [0, 0, 0, 0]]
    ratios = [[0.2, 0.15, 0.1, 0.05]] * horizon
    offsets = [[0.0, 0.25, 0.5, 0.75]] * horizon
    return build_similarity_system(ratios, offsets, np.array(mat))


SYSTEMS = {
    "mixed-degrees": (mixed_degrees, 1, 6),
    "mixed-degrees-late-start": (mixed_degrees, 2, 6),
    "gdms2v": (lambda: bundled.gdms2v(8), 1, 8),
    "cf12": (lambda: bundled.cf12(10), 1, 10),
}


def table_rows(table):
    """Each letter's successors as the table lists them."""
    return [
        table.cols[start : start + k].tolist()
        for start, k in zip(table.ptr[table.row], table.counts[table.row])
    ]


def swept(system, m, n, draws=None):
    levels = []

    def on_level(j, letters, state, src):
        levels.append((letters, src))

    impl = _frontier.vector_state(system, m, n)
    _frontier.sweep(system, m, n, impl, on_level, draws=draws)
    return levels


def assert_same_levels(got, want):
    assert len(got) == len(want)
    for (letters, src), (ref_letters, ref_src) in zip(got, want):
        np.testing.assert_array_equal(letters, ref_letters)
        if ref_src is None:
            assert src is None
        else:
            np.testing.assert_array_equal(src, ref_src)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_exhaustive_levels_match_the_grouped_loop(name):
    make, m, n = SYSTEMS[name]
    system = make()
    assert_same_levels(swept(system, m, n), grouped_sweep(system.schedule, m, n))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_drawn_levels_match_the_grouped_loop(name):
    make, m, n = SYSTEMS[name]
    system = make()
    draws = np.random.default_rng(7).random((257, n - m + 1))
    want = grouped_sweep(system.schedule, m, n, draws)
    assert_same_levels(swept(system, m, n, draws), want)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_table_rows_are_the_letters_followers(name):
    make, _, n = SYSTEMS[name]
    sched = make().schedule
    for j in range(1, n):
        rows = table_rows(sched.follower_table(j))
        assert rows == [
            sched.followers(j, a).tolist() for a in range(len(sched.letters(j)))
        ]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_follower_min_is_the_least_over_the_followers(name):
    make, _, n = SYSTEMS[name]
    sched = make().schedule
    rng = np.random.default_rng(3)
    for j in range(1, n):
        values = rng.random(len(sched.letters(j + 1)))
        got = sched.incidence[j].follower_min(sched.kept[j + 1], values)
        assert got.tolist() == [
            min(values[sched.followers(j, a)].tolist(), default=np.inf)
            for a in range(len(sched.letters(j)))
        ]


def test_mixed_degrees_exercise_pruning():
    sched = mixed_degrees().schedule
    assert not sched.kept[3][3] and sched.kept[6][3]
    table = sched.follower_table(3)
    assert table_rows(table) == [[0, 1], [1, 2], [0], []]
    # the schedule keeps the table, so callers cannot edit it
    assert sched.follower_table(3) is table
    with pytest.raises(ValueError):
        table.cols[0] = 1


def test_complete_step_table_is_linear_in_the_letters():
    # 2**16 letters on one vertex: a letters-by-letters matrix would take
    # 4 GiB, the table three arrays of about one entry per letter, and
    # follower_min a few
    k = 1 << 16
    inc = FullIncidence().bind([0] * k, [0] * k, ("v",))
    keep = np.ones(k, dtype=bool)
    keep[::3] = False
    tracemalloc.start()
    try:
        table = inc.follower_table(keep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * k
    assert table.row.size == k and table.counts.tolist() == [keep.sum()]
    np.testing.assert_array_equal(table.cols, np.flatnonzero(keep))
    values = np.arange(k, 0, -1, dtype=float)
    tracemalloc.start()
    try:
        least = inc.follower_min(keep, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * k
    assert least.size == k and set(least.tolist()) == {values[keep].min()}


def test_complete_step_rows_are_vertices():
    # two vertices: the followers of a letter are the kept letters leaving
    # its terminal vertex
    labels = [("a", "u", "u"), ("b", "u", "w"), ("c", "w", "u"), ("d", "w", "w")]
    alphabet = tuple(Letter(*lbl) for lbl in labels)
    sched = GraphSchedule(
        [("u", "w")] * 4, [(), alphabet, alphabet, alphabet],
        [FullIncidence(), FullIncidence()],
    )
    table = sched.follower_table(1)
    assert table.counts.size == 2
    assert table_rows(table) == [[0, 1], [2, 3], [0, 1], [2, 3]]

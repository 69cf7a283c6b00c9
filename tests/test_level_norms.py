"""The t-independent level-norm cache: exact sums, the distinct-norm table
against per-word sums of a fresh sweep, walk counts per report and budget
behaviour on cache hits."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bowendim import (
    BudgetError,
    build_cf_system,
    bundled,
    cli,
    partition,
    pressure_estimate,
    reblock_pinched,
)
from bowendim import _frontier, maps
from bowendim._frontier import exact_sum
from bowendim.maps import compose_norm
from conftest import tabulated_pair_system


def cf_wide(horizon=8):
    # continuants pass 2^53 at time 8, so that level carries an outward bracket
    return build_cf_system([[1, 2, 100]] * horizon)


def reference_levels(system, m, n, t):
    """{j: (Z_lo, Z_hi)}: a fresh sweep or word walk, math.fsum per level."""
    impl = _frontier.vector_state(system, m, n)
    out = {}
    if impl is not None:

        def on_level(j, letters, state, src):
            lo, hi = impl.norm_bounds(state, j - m + 1)
            out[j] = (math.fsum(lo**t), math.fsum(hi**t))

        _frontier.sweep(system, m, n, impl, on_level)
        return out
    terms = {j: ([], []) for j in range(m, n + 1)}

    def on_word(j, word, bracket):
        terms[j][0].append(bracket.lo**t)
        terms[j][1].append(bracket.hi**t)

    _frontier.generic_norm_walk(system, m, n, on_word)
    return {j: (math.fsum(lo), math.fsum(hi)) for j, (lo, hi) in terms.items()}


SYSTEMS = {
    "cf12": lambda: bundled.cf12(12),
    "cf-wide": cf_wide,
    "cantor3": lambda: bundled.cantor3(12),
    "gdms2v": lambda: bundled.gdms2v(10),
}
TS = (0.0, 0.27, 0.5312805, 0.8, 1.0)


def _cached_sums(system, m, n, t):
    levels = _frontier.level_norms(system, m, n).power_sums(t)
    return {j: (z_lo, z_hi) for j, (z_lo, z_hi, _) in levels.items()}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_cached_values_equal_fresh_walk(name):
    system = SYSTEMS[name]()
    h = system.horizon
    window = (2, h)
    # similarity ranges evaluate by the transfer product, so only the digit
    # systems read their pressure and partition values from the cache
    digits = _frontier._family(system, 1, h) != "similarity"
    for t in TS:
        ref = reference_levels(system, 1, h, t)
        assert _cached_sums(system, 1, h, t) == ref
        if not digits:
            continue
        est = pressure_estimate(system, t, window)
        expect = [
            (
                j, t, ref[j][0], ref[j][1],
                math.log(ref[j][0]) / j, math.log(ref[j][1]) / j,
            )
            for j in range(window[0], window[1] + 1)
        ]
        assert list(zip(*est.columns())) == expect
        pv = partition(system, 1, h, t)
        assert (pv.lo, pv.hi) == ref[h]
    # a second range evicts the first from the one-slot memo
    for t in TS:
        ref = reference_levels(system, 3, 6, t)
        assert _cached_sums(system, 3, 6, t) == ref
        if digits:
            pv = partition(system, 3, 6, t)
            assert (pv.lo, pv.hi) == ref[6]


def _binade_spread():
    exps = st.integers(min_value=-1070, max_value=-470)
    return st.lists(
        st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), exps),
        max_size=64,
    ).map(lambda xs: np.array(xs, dtype=float))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        arrays(
            np.float64, st.integers(0, 200),
            elements=st.floats(0.0, 1e12, allow_subnormal=True),
        ),
        _binade_spread(),
        st.integers(0, 50).map(lambda k: np.zeros(k)),
        st.integers(0, 5000).map(lambda k: np.ones(k)),
        st.lists(
            st.floats(0.0, 2.0**-1022, allow_subnormal=True), max_size=40,
        ).map(lambda xs: np.array(xs, dtype=float)),
    )
)
def test_exact_sum_equals_fsum(x):
    assert exact_sum(x) == math.fsum(x)


def test_exact_sum_sorted_level():
    rng = np.random.default_rng(3)
    x = np.sort(rng.random(32768) ** 40)
    assert exact_sum(x) == math.fsum(x)
    assert exact_sum(x[::-1]) == math.fsum(x)


# ---------------------------------------------------------------------------
# the distinct-norm table against per-word sums
# ---------------------------------------------------------------------------


def _swept_words(system, n):
    """{j: (lo, hi)}: the per-word norm bounds of a fresh sweep over (1, n),
    or of the word walk where no sweep state applies."""
    impl = _frontier.vector_state(system, 1, n)
    out = {}
    if impl is None:
        brackets = {j: [] for j in range(1, n + 1)}
        _frontier.generic_norm_walk(
            system, 1, n, lambda j, w, b: brackets[j].append((b.lo, b.hi))
        )
        return {j: tuple(np.array(b).T) for j, b in brackets.items()}

    def on_level(j, letters, state, src):
        lo, hi = impl.norm_bounds(state, j)
        out[j] = (lo.copy(), hi.copy())

    _frontier.sweep(system, 1, n, impl, on_level)
    return out


TABLE_SYSTEMS = {
    "cf12": lambda: bundled.cf12(12),
    "ascend-cf12": lambda: bundled.ascend_cf12(12),
    "cf-wide": cf_wide,  # lo and hi part past 2^53, at time 8
    "gdms2v": lambda: bundled.gdms2v(10),
    # walked: composed digit blocks, and tabulated letters
    "pinched-cf12": lambda: reblock_pinched(bundled.cf12(12), [2, 4, 6, 8, 10, 12]),
    "tabulated-pair": lambda: tabulated_pair_system(8),
}


def _segments(norms):
    """The table's (values, counts) segments, in order."""
    cuts = norms._cuts.tolist()[1:]
    return list(zip(np.split(norms.values, cuts), np.split(norms.counts, cuts)))


@pytest.fixture(scope="module", params=sorted(TABLE_SYSTEMS))
def table_and_words(request):
    make = TABLE_SYSTEMS[request.param]
    system = make()
    n = system.horizon
    norms = _frontier.level_norms(system, 1, n)
    # each level's sides hold its distinct norms ascending, counted once each
    segments = _segments(norms)
    for (a, b), size in zip(norms._sides, norms.sizes):
        for values, counts in segments[a : b + 1]:
            assert np.all(values[1:] > values[:-1]) and counts.sum() == size
    return norms, _swept_words(make(), n)


@settings(max_examples=25, deadline=None)
@given(t=st.floats(0.0, 1.0))
@example(t=0.0)
@example(t=0.5)
@example(t=1.0)
def test_table_sums_equal_per_word_sums(table_and_words, t):
    norms, words = table_and_words
    expect = {
        j: (math.fsum((lo**t).tolist()), math.fsum((hi**t).tolist()), lo.size)
        for j, (lo, hi) in words.items()
    }
    assert norms.power_sums(t) == expect


def test_wide_digits_keep_both_sides():
    words = _swept_words(cf_wide(), 8)
    assert [j for j, (lo, hi) in words.items() if not np.array_equal(lo, hi)] == [8]


def test_table_weights_high_multiplicities():
    # one level of 2^20 equal norms and 64 more binades, inside the default
    # budget: count-weighted mantissa halves reach 2^46 in one run
    spread = np.ldexp(0.7, -7 * np.arange(1, 65))
    level = np.concatenate([np.full(2**20, 0.3**20), spread, spread[::3]])
    first = np.array([0.3, 0.3, 0.25])
    tables = [_frontier._distinct(x) for x in (first, level)]
    for x, (values, counts) in zip((first, level), tables):
        ref_values, ref_counts = np.unique(x, return_counts=True)
        assert values.tolist() == ref_values.tolist()
        assert counts.tolist() == ref_counts.tolist() and counts.dtype == np.int64
    norms = _frontier.LevelNorms(1, [(tab, tab) for tab in tables])
    norms.check_budget(_frontier.DEFAULT_BUDGET)
    assert norms.counts.max() == 2**20
    for t in (0.0, 0.31, 0.5, 0.97, 1.0):
        z1 = math.fsum((first**t).tolist())
        z2 = math.fsum((level**t).tolist())
        assert norms.power_sums(t) == {1: (z1, z1, 3), 2: (z2, z2, level.size)}


def test_cf12_table_stores_distinct_norms():
    # 65,534 words in levels 1..15 share 24,725 norms (a word and its
    # reversal have one continuant); the table keeps no per-word powers
    norms = _frontier.level_norms(bundled.cf12(15), 1, 15)
    assert sum(norms.sizes) == 65534
    assert norms.values.size <= 25000


def _count_calls(monkeypatch, attr):
    calls = []
    real = getattr(_frontier, attr)

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(_frontier, attr, counted)
    return calls


def test_one_norm_sweep_per_report(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, "sweep")
    code = cli.main(
        ["report", "cf12", "--out", str(tmp_path), "--n-max", "12",
         "--depth", "8", "--max-points", "256"]
    )
    assert code == 0
    # one norm sweep over (1, n_max), one sampling sweep to the depth
    assert sorted(calls) == [(1, 8), (1, 12)]


def test_wide_digit_report_sweeps_without_a_walk(tmp_path, monkeypatch):
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "system": {"kind": "cf", "digits": [1, 2, 100], "horizon": 8},
        "params": {"t_grid": 5},
    }))
    walks = _count_calls(monkeypatch, "generic_norm_walk")
    sweeps = _count_calls(monkeypatch, "sweep")
    code = cli.main(["report", str(cfg), "--out", str(tmp_path / "out")])
    assert code in (0, 4)
    # continuants pass 2^53 at time 8, yet the norms take one sweep; the
    # other sweep samples points at the report's depth of 7
    assert walks == []
    assert sorted(sweeps) == [(1, 7), (1, 8)]


def _swept_brackets(system, n):
    """(exact q, lo, hi, lo is hi) per word of the norm sweep over (1, n): the
    float state's bracket beside the integer continuant traced through `src`."""
    impl = _frontier.vector_state(system, 1, n)
    out = []
    pairs = []

    def on_level(j, letters, state, src):
        nonlocal pairs
        digits = [int(system.maps[j][a].digit) for a in letters.tolist()]
        if src is None:
            pairs = [(1, d) for d in digits]
        else:
            pairs = [
                (pairs[s][1], d * pairs[s][1] + pairs[s][0])
                for s, d in zip(src.tolist(), digits)
            ]
        lo, hi = impl.norm_bounds(state, j)
        exact = [lo is hi] * lo.size
        out.extend(zip([q for _, q in pairs], lo.tolist(), hi.tolist(), exact))

    _frontier.sweep(system, 1, n, impl, on_level)
    return out


@pytest.mark.parametrize(
    "digits, horizon, words", [([1, 2, 100], 8, 9840), ([1000], 110, 110)]
)
def test_swept_brackets_hold_the_exact_norm(digits, horizon, words):
    swept = _swept_brackets(build_cf_system([digits] * horizon), horizon)
    assert len(swept) == words
    for q, lo, hi, exact in swept:
        if exact:
            # continuants below 2^53 are exact; q**-2 rounds once in pow
            assert q < 2**53 and lo == hi
            assert abs(Fraction(lo) * q * q - 1) <= Fraction(1, 2**52)
        else:
            assert Fraction(lo) * q * q <= 1 <= Fraction(hi) * q * q
    bracketed = [(q, lo) for q, lo, _, exact in swept if not exact]
    if digits == [1000]:
        # the sweep passes subnormal norms and float continuants that overflow
        assert any(0.0 < lo < 2.0**-1022 for _, lo in bracketed)
        assert any(q > 2**1024 for q, _ in bracketed)
    else:
        # only time 8 passes 2^53
        assert len(bracketed) == 3**8


def _budget_message(fn):
    with pytest.raises(BudgetError) as exc:
        fn()
    return str(exc.value)


@pytest.mark.parametrize(
    "make, n, budget",
    [
        (lambda: bundled.cf12(18), 18, 100),
        (cf_wide, 8, 500),
        # walked: the budget counts every composed word of the range
        (TABLE_SYSTEMS["pinched-cf12"], 6, 100),
    ],
)
def test_cache_hit_keeps_the_budget(make, n, budget):
    fresh = _budget_message(
        lambda: partition(make(), 1, n, 0.5, budget=budget)
    )
    system = make()
    partition(system, 1, n, 0.5)  # fills at the default budget
    hit = _budget_message(lambda: partition(system, 1, n, 0.5, budget=budget))
    assert hit == fresh


def test_budget_message_names_no_strategy(tmp_path):
    # cf12 at horizon 22 holds 2,097,152 words at time 21, over the default
    # budget; a similarity sweep gives the same advice
    msg = _budget_message(lambda: partition(bundled.cf12(22), 1, 22, 0.5))
    assert "2097152 words at time 21" in msg
    assert "strategy" not in msg and msg.endswith("lower n_max or raise the budget")
    msg = _budget_message(
        lambda: _frontier.level_norms(bundled.cantor3(8), 1, 8, budget=100)
    )
    assert "strategy" not in msg and msg.endswith("lower n_max or raise the budget")
    # a sampling sweep names its own knob
    out = tmp_path / "o"
    assert cli.main(["sample", "cf12", "--out", str(out), "--depth", "12",
                     "--max-points", "100"]) == 5
    msg = json.loads((out / "summary.json").read_text())["error"]
    assert "strategy" not in msg and msg.endswith("lower the depth or raise the budget")


# ---------------------------------------------------------------------------
# the word walk against independent references
# ---------------------------------------------------------------------------


def _walked(system, m, n, budget=_frontier.DEFAULT_BUDGET):
    out = []
    _frontier.generic_norm_walk(
        system, m, n, lambda j, w, b: out.append((j, w, b)), budget
    )
    return out


@pytest.mark.parametrize("m, n", [(1, 8), (3, 8)])
def test_walk_equals_compose_norm(m, n):
    walked = _walked(cf_wide(), m, n)
    assert len(walked) == sum(3**k for k in range(1, n - m + 2))
    fresh = cf_wide()  # a system the walk never touched
    for j, word, bracket in walked:
        assert word.start == m and word.end == j
        ref = compose_norm(word, fresh)
        assert (bracket.lo, bracket.hi) == (ref.lo, ref.hi)


def test_walk_hi_is_the_exact_continuant_norm():
    system = cf_wide()
    for j, word, bracket in _walked(system, 1, 8):
        digits = [
            system.map_for(word.start + k, lbl).digit
            for k, lbl in enumerate(word.letters)
        ]
        _, q = maps.continuants(digits)
        assert isinstance(q, int)
        # three roundings (float(q), the square, the division) of 1/q^2
        assert abs(Fraction(bracket.hi) * q * q - 1) <= Fraction(3, 2**52)
        assert bracket.lo == bracket.hi


def test_walk_non_integral_digit_falls_back(monkeypatch):
    make = lambda: build_cf_system([[1, 2.5, 100]] * 8)  # noqa: E731
    system = make()
    assert not _frontier._moebius_float_safe(system, 1, 8)
    calls = []
    real = _frontier.compose_norm

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(_frontier, "compose_norm", counted)
    walked = _walked(system, 1, 8)
    assert len(calls) == len(walked) == 9840
    monkeypatch.undo()
    fresh = make()
    for j, word, bracket in walked:
        ref = compose_norm(word, fresh)
        assert (bracket.lo, bracket.hi) == (ref.lo, ref.hi)


def test_walk_budget_boundary():
    # 3 + 9 + ... + 3^8 = 9840 prefixes, each one counted against the budget
    assert len(_walked(cf_wide(), 1, 8, budget=9840)) == 9840
    with pytest.raises(
        BudgetError, match="^enumeration exceeded budget of 9839 word extensions$"
    ):
        _walked(cf_wide(), 1, 8, budget=9839)


def test_walk_budget_checked_before_any_composition(monkeypatch):
    calls = []
    real = _frontier.compose_norm

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(_frontier, "compose_norm", counted)
    with pytest.raises(BudgetError):
        _walked(cf_wide(), 1, 8, budget=9839)
    assert calls == []

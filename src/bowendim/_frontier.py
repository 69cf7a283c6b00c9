"""Vectorized breadth-first sweep over admissible words of a system.

One frontier pass lists the words for every consumer: the partition
functions (norm states), the limit-set samplers (point states, or no state
where points are projected word by word), and through `word_levels` the
level covers, block alphabets, contraction windows and the word-at-a-time
norm walk.  Every word takes all its followers, or, for the random sampler,
one drawn follower.  States are family-specific numpy array bundles.  Each
step reads the schedule's follower table for that step, built once per
schedule, and expands the whole frontier in a fixed number of numpy passes
over its words (a stable sort by last letter, one repeat and one gather),
with no Python loop over letters or words.  The two closed-form families
each have a state: similarity norms keep lo == hi, and a Moebius word
(single digits and folded digit blocks alike) keeps its matrix rows, exact
below 2^53 and past it an outward bracket from a stated error bound, so
digit systems and their block subsystems stay on the sweep at any depth
(their point states still stop at 2^52).  Only ranges that mix the two
families, or hold user map types, compose each word in `generic_norm_walk`;
that walk stays for them, and the benchmark's tracer patches it by name.

The words of a range (m, n) and their norms do not depend on t, so
`level_norms` walks each (system, range) once and keeps its norms in a
one-slot memo on the system; every evaluation at a t (bisection, the t grid,
the measure trend) sums powers of those cached norms.  Every range, swept or
walked, keeps one table: each level's distinct norm bounds, with how many
words share each, so an evaluation raises every distinct norm to t once (a
word and its reversal share a continuant, so digit levels repeat most norms)
and sums all levels in one count-weighted pass.  Level sums are correctly rounded: `exact_sum` equals
`math.fsum`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError, UnsupportedError
from .maps import compose_norm
from .symbolic import Word, count_words

DEFAULT_BUDGET = 2_000_000


def _family(system, m, n):
    """The map family of the kept letters of times m..n ("similarity",
    "moebius" or "generic"), from the system's per-time family counts."""
    sim, moebius, other = system._family_counts[m : n + 1].sum(axis=0).tolist()
    if not (moebius or other):
        return "similarity"
    if not (sim or other):
        return "moebius"
    return "generic"


def _moebius_float_safe(system, m, n) -> bool:
    """Continuants stay exact in float64 on this range (the point-state gate):
    a letter grows the entries of a word's rows by at most its matrix's
    largest column sum, b + d."""
    tab = system.letter_table
    bound = 1.0
    for j in range(m, n + 1):
        _, b, _, d = tab.matrix[:, tab.span(j)]
        bound *= float((b + d)[system.schedule.kept[j]].max())
        if bound > 2.0**52:
            return False
    return True


def vector_state(system, m, n, points=False):
    """The vectorized state for the range m..n, or None when only the
    word-at-a-time walk applies.  Similarity states place points too; Moebius
    ranges take both matrix rows for the samplers (`points`), while their
    continuants stay below 2^52."""
    fam = _family(system, m, n)
    if fam == "similarity":
        return SimilarityState(system)
    if fam == "moebius" and (not points or _moebius_float_safe(system, m, n)):
        return (MoebiusPointState if points else MoebiusState)(system)
    return None


class SimilarityState:
    """Affine composition (scale, offset...) of each frontier word: the
    norm |D phi_w| = |scale| (exact, as rounding is sign-symmetric, so it
    equals the product of |ratio|) and the point samplers' images."""

    def __init__(self, system):
        self.system = system

    def init(self, j, letters):
        return self._columns(j, letters)

    def extend(self, j, state, src, new_letters):
        scale, *off = state
        nscale, *noffs = self._columns(j, new_letters)
        out_scale = scale[src] * nscale
        out_offs = [scale[src] * no + o[src] for o, no in zip(off, noffs)]
        return (out_scale, *out_offs)

    def _columns(self, j, letters):
        """(ratio, offset...) of the given letters of time j."""
        tab = self.system.letter_table
        sp = tab.span(j)
        return (tab.ratio[sp][letters],) + tuple(tab.offset[:, sp][:, letters])

    def norm_bounds(self, state, k):
        norms = np.abs(state[0])
        return norms, norms

    def region(self, state, dom):
        """Per-word (center..., radius) of the image of the domain space."""
        scale, *off = state
        if self.system.dim == 1:
            lo, hi = dom.bounds
            a = scale * lo + off[0]
            b = scale * hi + off[0]
            return (0.5 * (a + b),), 0.5 * np.abs(b - a)
        cx, cy, r = dom.bounds
        return (
            (scale * cx + off[0], scale * cy + off[1]),
            np.abs(scale) * r,
        )


def _row_times(x, y, src, matrix, letters):
    """Each word's row (x, y), read at its parent `src`, times its new
    letter's matrix ((a, b), (c, d)): (a*x + c*y, b*x + d*y).  For a single
    digit ((0, 1), (1, d)) these are exactly the continuant step (y, d*y + x),
    except that an inf x times a = 0 gives NaN, read as inf (x <= y)."""
    x, y = x[src], y[src]
    a, b, c, d = matrix
    with np.errstate(over="ignore", invalid="ignore"):  # inf continuants bound as 0
        new_x = a[letters]
        new_x *= x
        term = c[letters]
        term *= y
        new_x += term
        new_x[np.isnan(new_x)] = np.inf
        new_y = b[letters]
        new_y *= x
        np.take(d, letters, out=term)
        term *= y
        new_y += term
    return new_x, new_y


class MoebiusState:
    """Each word's bottom matrix row (q_prev, q_cur); sup norm = q_cur^-2."""

    def __init__(self, system):
        self.system = system
        # roundings a letter adds to a continuant (`norm_bounds`): entry a is
        # 0 in single digits and the other families, and >= 1 in folded blocks
        self.step_roundings = 3 if system.letter_table.matrix[0].any() else 2

    def _matrix(self, j):
        tab = self.system.letter_table
        return tab.matrix[:, tab.span(j)]

    def init(self, j, letters):
        _, _, c, d = self._matrix(j)
        return c[letters], d[letters]

    def extend(self, j, state, src, new_letters):
        return _row_times(*state, src, self._matrix(j), new_letters)

    def norm_bounds(self, state, k):
        """(lo, hi) around 1/q^2 for the k-letter words of a level.

        Below 2^53 integral digits keep continuants exact: v = q**-2 is both
        ends (lo is hi).  Past it, each step takes an entry to b*x + d*y (or
        a*x + c*y), one sum of products of positive terms.  A single digit's
        entries are exact, so its step adds two roundings (a product and the
        sum); a folded block's are its exact ones rounded once, so its step
        adds three.  With s = 2, or 3 where the system holds a folded block,
        a k-letter float continuant is within relative gamma_{sk} = sk*u /
        (1 - sk*u), u = 2^-53, of the exact one (Higham, "Accuracy and
        Stability of Numerical Algorithms", sec. 3.1).  With pow within two
        ulps, 1/q^2 is within relative gamma_{2sk+4} of v, and
        gamma_{2sk+10} also covers rounding the ends.  Subnormal results err
        by absolute units of 2^-1074 (two from pow, half of one per product),
        so the ends move a further 2^-1072; an inf continuant gives v = 0 and
        [0, 2^-1072], which holds its 1/q^2 < 2^-2046.
        """
        qp, qc = state
        v = qc**-2.0
        if qc.max() < 2.0**53:
            return v, v
        width = (2 * self.step_roundings * k + 10) * 2.0**-53
        rel = width / (1.0 - width)
        lo = np.maximum(v * (1.0 - rel) - 2.0**-1072, 0.0)
        return lo, v * (1.0 + rel) + 2.0**-1072


class MoebiusPointState(MoebiusState):
    """Both rows of each word's matrix: phi_w(x) = (pp*x + pc) / (qp*x + qc)."""

    def init(self, j, letters):
        return tuple(entry[letters] for entry in self._matrix(j))

    def extend(self, j, state, src, new_letters):
        pp, pc, qp, qc = state
        matrix = self._matrix(j)
        return _row_times(pp, pc, src, matrix, new_letters) + _row_times(
            qp, qc, src, matrix, new_letters
        )

    def region(self, state, dom):
        pp, pc, qp, qc = state
        lo, hi = dom.bounds
        a = (pp * lo + pc) / (qp * lo + qc)
        b = (pp * hi + pc) / (qp * hi + qc)
        left = np.minimum(a, b)
        right = np.maximum(a, b)
        return (0.5 * (left + right),), 0.5 * (right - left)


def _frontier_over_budget(total, j, budget):
    return BudgetError(
        f"frontier would hold {total} words at time {j},"
        f" over the budget of {budget}; lower n_max or raise the budget"
    )


def _walk_over_budget(budget):
    return BudgetError(f"enumeration exceeded budget of {budget} word extensions")


def sweep(system, m, n, state_impl, on_level, budget=DEFAULT_BUDGET, draws=None):
    """Expand the pruned frontier from time m to n, reporting every level.

    `on_level(j, letters, state, src)` runs once per time j in [m, n]; `src`
    holds each word's parent position in the level before (None at time m),
    so a caller that wants the words traces their letters back through it.
    Every word takes all its followers, read from the schedule's follower
    table of the step: the new level lists the words by last letter
    ascending, then by position, and each word's followers together,
    ascending.  With `draws`, an (N, n - m + 1) array of uniforms in [0, 1)
    whose row i walks one word, each word instead takes choice floor(u * k)
    of its k candidates at each time and keeps its position.
    """
    sched = system.schedule
    letters = sched.kept_indices(m)
    if draws is not None:
        letters = letters[(draws[:, 0] * letters.size).astype(np.intp)]
    state = state_impl.init(m, letters)
    on_level(m, letters, state, None)
    for j in range(m, n):
        u = None if draws is None else draws[:, j - m + 1]
        table = sched.follower_table(j)
        src, letters = _expand(table, letters, j, u, budget)
        state = state_impl.extend(j + 1, state, src, letters)
        on_level(j + 1, letters, state, src)


def _expand(table, letters, j, u, budget):
    """(src, letters) of the level after time j, from its follower table:
    every word's followers, or with uniforms `u` the follower floor(u * k) of
    each word's k.  Its scratch arrays are freed before the caller extends
    the state."""
    if u is None:
        # a stable radix sort (linear) where the letters fit 16 bits
        small = table.row.size <= 1 << 16
        src = np.argsort(
            letters.astype(np.uint16) if small else letters, kind="stable"
        )
        cls = table.row[letters[src]]
    else:
        src = np.arange(letters.size)
        cls = table.row[letters]
    first = table.ptr[cls]
    degree = table.counts[cls]
    total = int(degree.sum())
    if not total:
        raise UnsupportedError(
            f"frontier died at time {j}; pruning should prevent this"
        )
    if u is not None:
        return src, table.cols[first + (u * degree).astype(np.intp)]
    if total > budget:
        raise _frontier_over_budget(total, j + 1, budget)
    # entry k of word i's run reads cols[first[i] + k]; first is our copy, so
    # shifting it by each run's start allocates nothing more
    first -= np.cumsum(degree) - degree
    pick = np.repeat(first, degree)
    pick += np.arange(total)
    return np.repeat(src, degree), table.cols[pick]


class _NoState:
    """Sweep state of the walks that need only the words: none."""

    def init(self, j, letters):
        return ()

    def extend(self, j, state, src, new_letters):
        return ()


def word_levels(system, m, n, on_words=None):
    """The admissible words m..j for j = m..n, from one sweep; returns level
    n's (rows, labels).

    `on_words(j, rows, labels)` runs once per level: rows[i] holds word i's
    letter indices and labels[i] its tuple of letter labels, in lexicographic
    index order, the order of a depth-first walk.  Only the current level is
    kept.  The sweep takes no budget: callers check theirs from `count_words`.
    """
    sched = system.schedule
    # per level: each swept word's lexicographic rank, then the rows and
    # labels in that order; the level before m holds the empty word
    ranks, rows, labels = np.zeros(1, np.intp), np.zeros((1, 0), np.intp), [()]

    def on_level(j, letters, state, src):
        nonlocal ranks, rows, labels
        names = [e.label for e in sched.letters(j)]
        parent = ranks[np.zeros(letters.size, np.intp) if src is None else src]
        # a word's followers sit together and ascending, so a stable sort by
        # the parents' ranks puts the level in lexicographic order
        order = np.argsort(parent, kind="stable")
        parent, letters = parent[order], letters[order]
        ranks = np.empty_like(order)
        ranks[order] = np.arange(order.size)
        rows = np.column_stack((rows[parent], letters))
        labels = [
            labels[p] + (names[a],) for p, a in zip(parent.tolist(), letters.tolist())
        ]
        if on_words is not None:
            on_words(j, rows, labels)

    sweep(system, m, n, _NoState(), on_level, budget=math.inf)
    return rows, labels


def generic_norm_walk(system, m, n, on_word, budget=DEFAULT_BUDGET):
    """Word-at-a-time norms: on_word(j, word, bracket) per admissible prefix,
    level by level, each bracket composed afresh through `compose_norm`; the
    norm fallback for ranges without a vectorized state."""
    if sum(count_words(m, j, system.schedule) for j in range(m, n + 1)) > budget:
        raise _walk_over_budget(budget)

    def on_words(j, rows, labels):
        for letters in labels:
            word = Word(m, letters)
            on_word(j, word, compose_norm(word, system, check=False))

    word_levels(system, m, n, on_words)


# ---------------------------------------------------------------------------
# t-independent level norms
# ---------------------------------------------------------------------------


def exact_sum(x) -> float:
    """Correctly rounded sum of a non-negative float64 array: equals math.fsum."""
    if x.size == 0:
        return 0.0
    return _segment_sums(x, np.ones(x.size, dtype=np.int64), [0])[0]


_HALF = (1 << 26) - 1


def _segment_sums(x, counts, cuts):
    """Correctly rounded sums of the segments x[cuts[i]:cuts[i + 1]] (the last
    runs to the end) of a non-negative float64 array, each x[k] taken
    counts[k] times.

    Read from its bits, each term is M * 2**(E - 1075): E is its exponent
    field (1 for subnormals and zero) and M its 52-bit fraction, plus 2**52
    when the field is nonzero.  Per run of equal fields, a run never crossing
    a cut, the fraction is added in int64 as two 26-bit halves weighted by the
    counts, and the implicit bits as the run's word count: a run whose counts
    add to fewer than 2**36 words cannot overflow (2**26 * 2**36 < 2**63).  A
    run lies in one level, and the sweep stops before a level passes its
    budget (DEFAULT_BUDGET = 2,000,000 < 2**21 words), so every run stays far
    below that.  The run sums of a segment meet in one Python int and a single
    int/int division rounds once.  Any order is exact; sorted segments keep
    the runs few.
    """
    bits = x.view(np.int64)
    work = bits >> 52  # the exponent fields, then each weighted half
    first = np.empty(x.size, dtype=bool)
    first[0] = True
    np.not_equal(work[1:], work[:-1], out=first[1:])
    first[cuts] = True
    starts = np.flatnonzero(first)
    fields = work[starts].tolist()

    def run_sums(part):
        np.multiply(part, counts, out=part)
        return np.add.reduceat(part, starts).tolist()

    np.right_shift(bits, 26, out=work)
    high = run_sums(np.bitwise_and(work, _HALF, out=work))
    low = run_sums(np.bitwise_and(bits, _HALF, out=work))
    words = np.add.reduceat(counts, starts).tolist()
    base = max(min(fields), 1)
    terms = [
        ((w << 52 if f else 0) + (h << 26) + lo) << (max(f, 1) - base)
        for f, w, h, lo in zip(fields, words, high, low)
    ]
    bounds = np.searchsorted(starts, cuts).tolist() + [starts.size]
    totals = [sum(terms[a:b]) for a, b in zip(bounds, bounds[1:])]
    scale = 1075 - base
    if scale <= 0:
        return [float(total << -scale) for total in totals]
    return [total / (1 << scale) for total in totals]


class LevelNorms:
    """Norm bounds of the admissible words of one range (m, n), level by level.

    Nothing here depends on t.  The levels are kept as one table, one
    segment per level and side: `values` holds the distinct sorted lo bounds
    of each level, and its distinct hi bounds where they differ from lo,
    segment after segment, and `counts[i]` is how many of the segment's
    words share values[i].  Equal floats have equal powers, so each t takes
    one numpy power and one weighted `_segment_sums` pass over every level.
    `sizes[j - m]` is the word count at time j, and `walked` tells levels of
    the word-at-a-time walk from swept ones.
    """

    def __init__(self, m, levels, walked=False):
        """`levels[j - m]` is the `_distinct` (values, counts) pair of lo and
        of hi at time j (hi is lo where the two are equal)."""
        self.m = m
        self.walked = walked
        segments = []
        self._sides = []
        for lo, hi in levels:
            first = len(segments)
            segments.append(lo)
            if hi is not lo:
                segments.append(hi)
            self._sides.append((first, len(segments) - 1))
        self.values = np.concatenate([v for v, _ in segments])
        self.counts = np.concatenate([c for _, c in segments])
        self._cuts = np.cumsum([0] + [v.size for v, _ in segments[:-1]])
        self.sizes = [int(c.sum()) for (_, c), _ in levels]

    def check_budget(self, budget):
        """Raise the BudgetError a fresh walk of this range would raise."""
        if self.walked:
            if sum(self.sizes) > budget:
                raise _walk_over_budget(budget)
            return
        for j, size in enumerate(self.sizes[1:], self.m + 1):
            if size > budget:
                raise _frontier_over_budget(size, j, budget)

    def power_sums(self, t):
        """{j: (Z_lo, Z_hi, words)}: sums of norm**t per level, correctly rounded."""
        sums = _segment_sums(self.values**t, self.counts, self._cuts)
        return {
            j: (sums[a], sums[b], size)
            for j, ((a, b), size) in enumerate(zip(self._sides, self.sizes), self.m)
        }


def _distinct(x):
    """(sorted distinct values, int64 counts) of x, as np.unique gives them
    with return_counts, from a sort and one mask (about half np.unique's
    time on a cf12 level)."""
    x = np.sort(x)
    first = np.empty(x.size, dtype=bool)
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = x.size - starts[-1:]
    return x[starts], counts


def _walk_levels(system, m, n, budget):
    impl = vector_state(system, m, n)
    levels = []

    def add(lo, hi):
        lo_table = _distinct(lo)
        levels.append((lo_table, lo_table if hi is lo else _distinct(hi)))

    if impl is not None:

        def on_level(j, letters, state, src):
            add(*impl.norm_bounds(state, j - m + 1))

        sweep(system, m, n, impl, on_level, budget)
        return LevelNorms(m, levels)
    brackets = [([], []) for _ in range(m, n + 1)]

    def on_word(j, word, bracket):
        lows, highs = brackets[j - m]
        lows.append(bracket.lo)
        highs.append(bracket.hi)

    generic_norm_walk(system, m, n, on_word, budget)
    for lows, highs in brackets:
        lo = np.array(lows, dtype=float)
        add(lo, lo if lows == highs else np.array(highs, dtype=float))
    return LevelNorms(m, levels, walked=True)


def level_norms(system, m, n, budget=DEFAULT_BUDGET) -> LevelNorms:
    """The level norms of range (m, n), walked once per system.

    A one-slot memo on the system keeps the last range walked; a hit raises
    the same BudgetError under `budget` that a fresh walk would.
    """
    memo = system._level_memo
    hit = memo.get((m, n))
    if hit is None:
        hit = _walk_levels(system, m, n, budget)
        memo.clear()
        memo[(m, n)] = hit
    else:
        hit.check_budget(budget)
    return hit

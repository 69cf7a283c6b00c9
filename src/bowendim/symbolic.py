"""Time-indexed multigraphs, admissible words, follower statistics, primitivity.

A schedule materializes finitely many time steps of a (possibly rule-defined)
multigraph: vertex sets V_n, edge alphabets I^(n) with source/target vertices,
and step incidence relations between consecutive alphabets.  Words are
admissible when consecutive letters are incidence-allowed; all statistics are
taken over the *pruned* alphabets, keeping only letters that both extend
forward to the horizon and are reachable from time 1.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    BudgetError,
    ConfigurationError,
    InputError,
    IntegrityError,
)
from .trend import TrendReport, trend_report

# explicit incidence products are materialized as dense matrices up to this
# many letters per side; complete ("full") steps never materialize
DENSE_LETTER_CAP = 5000


@dataclass(frozen=True)
class Letter:
    """Edge at a fixed time: src = initial vertex (one time earlier), dst = terminal."""

    label: str
    src: str
    dst: str


@dataclass(frozen=True)
class Word:
    """Finite admissible string; letters carry their time via start + position."""

    start: int
    letters: tuple

    def __post_init__(self):
        if self.start < 1 or not self.letters:
            raise InputError(f"word needs start >= 1 and letters, got {self!r}")

    @property
    def end(self) -> int:
        return self.start + len(self.letters) - 1

    def __len__(self) -> int:
        return len(self.letters)

    def label(self) -> str:
        return ".".join(str(c) for c in self.letters)


def _shared_rows(rows, make, key=id):
    """[make(row) for row in rows], with `make` called once per distinct
    key(row): rows that repeat under a cycle rule are one object, so by
    default each repeat shares the first one's result."""
    made = {}  # key -> (row, result); holding the row keeps its id unused
    out = []
    for row in rows:
        k = key(row)
        if k not in made:
            made[k] = row, make(row)
        out.append(made[k][1])
    return out


# ---------------------------------------------------------------------------
# incidence rules
# ---------------------------------------------------------------------------


class FollowerTable:
    """The allowed successors of every letter of one step, by row class.

    Letter a belongs to row class `row[a]`: itself for explicit matrices, its
    terminal vertex for complete steps, so a complete step never builds a
    letters-by-letters matrix.  Class c has `counts[c]` successors,
    `cols[ptr[c]:ptr[c] + counts[c]]`, ascending.  The arrays are read-only,
    since a schedule caches its tables.
    """

    def __init__(self, row, counts, cols):
        ptr = np.zeros(counts.size, dtype=np.intp)
        np.add.accumulate(counts[:-1], out=ptr[1:])  # np.cumsum's wrapper costs more
        for arr in (row, counts, ptr, cols):
            arr.flags.writeable = False
        self.row, self.counts, self.ptr, self.cols = row, counts, ptr, cols

    def followers(self, a: int) -> np.ndarray:
        """The successors of letter a, ascending (a read-only view)."""
        c = self.row[a]
        return self.cols[self.ptr[c] : self.ptr[c] + self.counts[c]]


def _grouped(keys, values, n):
    """[(ids, members)]: the ids 0..n-1 grouped by how many entries have
    them as key; members[i] lists, in entry order, the values of the
    entries with key ids[i]."""
    values = values[np.argsort(keys, kind="stable")]
    deg = np.bincount(keys, minlength=n)
    starts = np.cumsum(deg) - deg
    groups = []
    for k in np.unique(deg).tolist():
        ids = np.flatnonzero(deg == k)
        groups.append((ids, values[starts[ids, None] + np.arange(k)]))
    return groups


def _any_of(groups, rows, n):
    """Row i of the result: the OR of rows[m] over the members m of id i in
    `groups` (from `_grouped`)."""
    out = np.empty((n,) + rows.shape[1:], dtype=bool)
    for ids, members in groups:
        out[ids] = rows[members].any(axis=1)
    return out


class Incidence:
    """Relation between the alphabet at time n and at time n+1.

    `bind` stores the relation once, as a `FollowerTable` of every next
    letter; a subclass says how that table is built and how a transfer
    product runs, and every other primitive reads the table.
    """

    def bind(self, cur_dst, nxt_src, vertices):
        """Bind the letters of both times: `cur_dst[a]` is the position in
        `vertices` (= V_n) of current letter a's terminal vertex, and
        `nxt_src[b]` that of next letter b's initial vertex.

        Returns the bound incidence.  One that is bound already returns
        itself when the codes and the vertex count are the same, so the
        steps of a schedule that reuse one incidence share its table, and
        a bound copy of itself otherwise."""
        cur_dst = np.asarray(cur_dst, dtype=np.intp)
        nxt_src = np.asarray(nxt_src, dtype=np.intp)
        if hasattr(self, "_table"):  # bound already
            if (
                self._n_vertices == len(vertices)
                and np.array_equal(self._cur_dst, cur_dst)
                and np.array_equal(self._nxt_src, nxt_src)
            ):
                return self
            self = copy.copy(self)
            # the copy drops what was derived from the old table
            for derived in ("_predecessors", "_class_letters"):
                vars(self).pop(derived, None)
        self._cur_dst, self._nxt_src = cur_dst, nxt_src
        self._n_vertices = len(vertices)
        self._check(vertices)
        # _entry: the row class of each entry of the table's cols
        self._table, self._entry = self._build(len(vertices))
        return self

    def _check(self, vertices):
        pass

    def _build(self, n_vertices):
        """(table, entry): the `FollowerTable` of every next letter, and the
        row class of each entry of its cols."""
        raise NotImplementedError

    @cached_property
    def _predecessors(self):
        """The next letters grouped by how many row classes lead to them,
        with those classes in ascending order (see `_grouped`)."""
        return _grouped(self._table.cols, self._entry, self.n_nxt)

    @cached_property
    def _class_letters(self):
        """The row classes grouped by their number of current letters, with
        those letters in ascending order (see `_grouped`)."""
        table = self._table
        return _grouped(table.row, np.arange(self.n_cur), table.counts.size)

    @property
    def n_cur(self):
        return self._cur_dst.size

    @property
    def n_nxt(self):
        return self._nxt_src.size

    # -- primitives -------------------------------------------------------
    def followers(self, a: int, keep_nxt) -> np.ndarray:
        """Allowed successors in keep_nxt of current letter a, ascending."""
        cols = self._table.followers(a)
        return cols[keep_nxt[cols]]

    def follower_table(self, keep_nxt) -> FollowerTable:
        """The allowed successors in keep_nxt of every current letter."""
        table = self._table
        on = keep_nxt[table.cols]
        counts = np.bincount(self._entry[on], minlength=table.counts.size)
        return FollowerTable(table.row, counts, table.cols[on])

    def count_followers(self, keep_nxt) -> np.ndarray:
        """Per current letter, number of allowed kept successors."""
        table = self._table
        on = keep_nxt[table.cols]
        return np.bincount(self._entry[on], minlength=table.counts.size)[table.row]

    def follower_min(self, keep_nxt, values) -> np.ndarray:
        """Per current letter, the least `values[b]` over its allowed kept
        successors b (inf when it has none)."""
        table = self._table
        on = keep_nxt[table.cols]
        least = np.empty(table.counts.size)
        least.fill(np.inf)  # np.full costs twice as much here
        np.minimum.at(least, self._entry[on], values[table.cols[on]])
        return least[table.row]

    def reach_next(self, cur_mask) -> np.ndarray:
        """Mask of next letters reachable from any current letter in cur_mask."""
        table = self._table
        hit = np.zeros(table.counts.size, dtype=bool)
        hit[table.row[cur_mask]] = True
        out = np.zeros(self.n_nxt, dtype=bool)
        out[table.cols[hit[self._entry]]] = True
        return out

    def reach(self, rows) -> np.ndarray:
        """The boolean product through this step: row b of the result is
        the OR of rows[a] over the current letters a -> b.  `rows` is a
        boolean array with one row per current letter; no sum is formed,
        so the result is exact."""
        by_class = _any_of(self._class_letters, rows, self._table.counts.size)
        return _any_of(self._predecessors, by_class, self.n_nxt)

    def transfer(self, u, w_nxt, keep_nxt) -> np.ndarray:
        """u'_b = w_b * sum_{a -> b} u_a, zero outside keep_nxt (float64)."""
        raise NotImplementedError

    def count_transfer(self, counts_nxt) -> list:
        """c_a = sum over followers b of counts_nxt[b], in exact ints."""
        table = self._table
        # int64 while no prefix sum can pass 2**63 - 1, else exact ints
        small = int(max(counts_nxt, default=0)) * max(table.cols.size, 1) < 2**63
        counts = np.array(counts_nxt, dtype=np.int64 if small else object)
        ends = np.zeros(table.cols.size + 1, dtype=counts.dtype)
        np.cumsum(counts[table.cols], out=ends[1:])
        start = table.ptr[table.row]
        return (ends[start + table.counts[table.row]] - ends[start]).tolist()

    def is_complete(self, keep_cur, keep_nxt) -> bool:
        """True when every kept pair is allowed (the all-ones case)."""
        kept = self.count_followers(keep_nxt)[keep_cur]
        return bool((kept == np.count_nonzero(keep_nxt)).all())

    def matrix(self, keep_cur=None, keep_nxt=None) -> np.ndarray:
        """Dense boolean matrix, zeroed outside the keep masks."""
        table = self._table
        by_class = np.zeros((table.counts.size, self.n_nxt), dtype=bool)
        by_class[self._entry, table.cols] = True
        mat = by_class[table.row]
        if keep_cur is not None:
            mat &= keep_cur[:, None]
        if keep_nxt is not None:
            mat &= keep_nxt[None, :]
        return mat

    def same_relation(self, other: "Incidence") -> bool:
        """True when both steps allow the same pairs of letters."""
        if other is self:
            return True
        mine, theirs = self._table, other._table
        if (self.n_cur, self.n_nxt) != (other.n_cur, other.n_nxt):
            return False
        # letters in the same pair of row classes have the same followers
        # on both sides, so one letter of each pair decides
        pairs = mine.row * theirs.counts.size + theirs.row
        _, firsts = np.unique(pairs, return_index=True)
        return all(
            np.array_equal(mine.followers(a), theirs.followers(a))
            for a in firsts.tolist()
        )


class FullIncidence(Incidence):
    """Every composable pair allowed: A(a, b) = 1 iff t(a) = i(b)."""

    def _build(self, n_vertices):
        # one row class per vertex: the next letters starting there
        cols = np.argsort(self._nxt_src, kind="stable")
        counts = np.bincount(self._nxt_src, minlength=n_vertices)
        return FollowerTable(self._cur_dst, counts, cols), self._nxt_src[cols]

    def transfer(self, u, w_nxt, keep_nxt):
        sums = np.bincount(self._cur_dst, weights=u, minlength=self._table.counts.size)
        out = w_nxt * sums[self._nxt_src]
        out[~keep_nxt] = 0.0
        return out


class DenseIncidence(Incidence):
    """Explicit 0/1 matrix (also the compiled form of identity/banded rules)."""

    def __init__(self, mat):
        self._mat = np.asarray(mat, dtype=bool)

    def _check(self, vertices):
        if self._mat.shape != (self.n_cur, self.n_nxt):
            raise IntegrityError(
                f"incidence shape {self._mat.shape} != ({self.n_cur}, {self.n_nxt})"
            )
        # composability: allowed implies matching vertices
        bad = self._mat & (self._cur_dst[:, None] != self._nxt_src[None, :])
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise IntegrityError(
                f"incidence allows letters {a}->{b} with"
                f" t(a)={vertices[self._cur_dst[a]]!r}"
                f" != i(b)={vertices[self._nxt_src[b]]!r}"
            )

    def _build(self, n_vertices):
        # one row class per letter
        rows, cols = np.nonzero(self._mat)
        counts = np.bincount(rows, minlength=self.n_cur)
        return FollowerTable(np.arange(self.n_cur), counts, cols), rows

    def transfer(self, u, w_nxt, keep_nxt):
        # each letter is its own row class, so u[rows].sum(axis=1) adds each
        # column's entries in ascending row order, exactly as a 1-D sum over
        # u[mat[:, b]] does
        out = np.empty(self.n_nxt, dtype=float)
        for cols, rows in self._predecessors:
            out[cols] = u[rows].sum(axis=1)
        out[~keep_nxt] = 0.0
        return out * np.where(keep_nxt, w_nxt, 0.0)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


class GraphSchedule:
    """Materialized vertex/alphabet/incidence data for times 0..horizon.

    `vertex_sets[n]` lists vertices of V_n; `alphabets[n]` the letters of
    I^(n) for n >= 1 (index 0 is an empty placeholder); `incidence[n]`
    relates I^(n) to I^(n+1) for 1 <= n <= horizon-1.  Vertices are coded by
    position: `vertex_index[n]` maps each vertex of V_n to it, and for the
    letters of I^(n), `src_index[n]` holds their initial vertices' positions
    in V_{n-1} and `dst_index[n]` their terminal vertices' in V_n.
    """

    def __init__(self, vertex_sets, alphabets, incidence):
        # a row that repeats (one object at several times) stays one tuple
        self.vertex_sets = tuple(_shared_rows(vertex_sets, tuple))
        self.alphabets = tuple(_shared_rows(alphabets, tuple))
        self.horizon = len(self.alphabets) - 1
        if len(self.vertex_sets) != self.horizon + 1:
            raise IntegrityError(
                f"need {self.horizon + 1} vertex sets, got {len(self.vertex_sets)}"
            )
        if self.horizon < 1 or self.alphabets[0]:
            raise IntegrityError("alphabets[0] must be an empty placeholder")
        inc = list(incidence)
        if len(inc) == self.horizon - 1:
            inc = [None] + inc  # accept 1-based payload without placeholder
        if len(inc) != self.horizon:
            raise IntegrityError(
                f"need {self.horizon - 1} incidence steps, got {len(inc) - 1}"
            )
        self.incidence = tuple(inc)
        self._validate_and_bind()
        self._tables = {}

    def _validate_and_bind(self):
        self.vertex_index = tuple(
            _shared_rows(self.vertex_sets, lambda vs: {v: i for i, v in enumerate(vs)})
        )
        # each distinct (I^(n), V_{n-1}, V_n) is checked and coded once, at
        # its first time
        coded, src, dst = {}, [None], [None]
        for n in range(1, self.horizon + 1):
            key = id(self.alphabets[n]), id(self.vertex_sets[n - 1]), id(self.vertex_sets[n])
            if key not in coded:
                coded[key] = self._code(n)
            src.append(coded[key][0])
            dst.append(coded[key][1])
        self.src_index, self.dst_index = tuple(src), tuple(dst)
        # one bind per distinct incidence on one pair of step codings
        self.incidence = (None,) + tuple(_shared_rows(
            range(1, self.horizon),
            lambda n: self.incidence[n].bind(dst[n], src[n + 1], self.vertex_sets[n]),
            key=lambda n: (id(self.incidence[n]), id(dst[n]), id(src[n + 1])),
        ))

    def _code(self, n):
        """(src, dst): the positions in V_{n-1} of the initial vertices and
        in V_n of the terminal vertices of the letters of time n."""
        seen = set()
        src, dst = [], []
        for e in self.alphabets[n]:
            if e.label in seen:
                raise IntegrityError(f"duplicate letter {e.label!r} at time {n}")
            seen.add(e.label)
            i = self.vertex_index[n - 1].get(e.src)
            t = self.vertex_index[n].get(e.dst)
            if i is None:
                raise IntegrityError(
                    f"letter {e.label!r} at time {n}: src {e.src!r} not in V_{n-1}"
                )
            if t is None:
                raise IntegrityError(
                    f"letter {e.label!r} at time {n}: dst {e.dst!r} not in V_{n}"
                )
            src.append(i)
            dst.append(t)
        return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)

    # -- lookups ----------------------------------------------------------
    @cached_property
    def _index(self):
        return tuple(
            {e.label: i for i, e in enumerate(al)} for al in self.alphabets
        )

    def letter_index(self, n: int, label) -> int:
        if n < 1 or n > self.horizon:
            raise InputError(f"time {n} outside materialized range 1..{self.horizon}")
        idx = self._index[n].get(label)
        if idx is None:
            raise InputError(f"unknown letter {label!r} at time {n}")
        return idx

    def letters(self, n: int):
        return self.alphabets[n]

    # -- pruning ----------------------------------------------------------
    @cached_property
    def kept(self):
        """Boolean keep-mask per time: forward-extendable and reachable from time 1.

        Iterated elimination until fixpoint; letters at the horizon count as
        forward-extendable (horizon-bounded semantics).
        """
        keep = [None] + [
            np.ones(len(self.alphabets[n]), dtype=bool)
            for n in range(1, self.horizon + 1)
        ]
        # each pass only drops letters, so a mask changed iff its count did
        changed = True
        while changed:
            changed = False
            for n in range(self.horizon - 1, 0, -1):
                new = keep[n] & (self.incidence[n].count_followers(keep[n + 1]) > 0)
                if np.count_nonzero(new) < np.count_nonzero(keep[n]):
                    keep[n] = new
                    changed = True
            for n in range(1, self.horizon):
                new = keep[n + 1] & self.incidence[n].reach_next(keep[n])
                if np.count_nonzero(new) < np.count_nonzero(keep[n + 1]):
                    keep[n + 1] = new
                    changed = True
        for n in range(1, self.horizon + 1):
            if not keep[n].any():
                raise IntegrityError(
                    f"pruning emptied the alphabet at time {n}; no admissible"
                    " infinite words exist"
                )
        return tuple(keep)

    def kept_count(self, n: int) -> int:
        return int(self.kept[n].sum())

    def kept_indices(self, n: int) -> np.ndarray:
        return np.flatnonzero(self.kept[n])

    def followers(self, n: int, a: int) -> np.ndarray:
        """Kept successors of letter index a at time n (empty at the horizon)."""
        if n >= self.horizon:
            return np.zeros(0, dtype=np.int64)
        return self.incidence[n].followers(a, self.kept[n + 1])

    def follower_table(self, n: int) -> FollowerTable:
        """The kept successors of every letter at time n < horizon, for
        expanding a whole frontier; built once per step, on first use."""
        table = self._tables.get(n)
        if table is None:
            table = self.incidence[n].follower_table(self.kept[n + 1])
            self._tables[n] = table
        return table

    def step_complete(self, n: int) -> bool:
        return self.incidence[n].is_complete(self.kept[n], self.kept[n + 1])

    def _capped_step(self, n: int) -> Incidence:
        """incidence[n], for a product of explicit steps: BudgetError when it
        is a complete step with more than DENSE_LETTER_CAP letters a side."""
        inc = self.incidence[n]
        if max(inc.n_cur, inc.n_nxt) > DENSE_LETTER_CAP and isinstance(
            inc, FullIncidence
        ):
            raise BudgetError(
                f"step {n} too large to materialize ({inc.n_cur}x{inc.n_nxt})"
            )
        return inc

    def step_matrix(self, n: int) -> np.ndarray:
        return self._capped_step(n).matrix(self.kept[n], self.kept[n + 1])


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def _word_indices(word: Word, schedule: GraphSchedule):
    if word.end > schedule.horizon:
        raise InputError(
            f"word ends at time {word.end} beyond horizon {schedule.horizon}"
        )
    return [
        schedule.letter_index(word.start + k, lbl)
        for k, lbl in enumerate(word.letters)
    ]


def is_admissible(word: Word, schedule: GraphSchedule) -> bool:
    """Consecutive pairs allowed and the word embeds in an infinite admissible word."""
    idxs = _word_indices(word, schedule)
    for k in range(len(idxs) - 1):
        n = word.start + k
        if idxs[k + 1] not in schedule.followers(n, idxs[k]):
            return False
    # pruned membership of every letter covers forward extension and
    # reachability from time 1 simultaneously
    return all(
        schedule.kept[word.start + k][idxs[k]] for k in range(len(idxs))
    )


def _word_counts(schedule: GraphSchedule, m: int, n: int) -> list:
    """Per letter at time m, the number of pruned words m..n it starts (0 for
    pruned-away letters), by exact integer transfer backward from time n."""
    counts = [1 if k else 0 for k in schedule.kept[n]]
    for j in range(n - 1, m - 1, -1):
        nxt = schedule.incidence[j].count_transfer(counts)
        counts = [c if k else 0 for c, k in zip(nxt, schedule.kept[j])]
    return counts


def count_words(m: int, n: int, schedule: GraphSchedule) -> int:
    """#I^{m,n} over pruned letters, by exact integer transfer."""
    if not 1 <= m <= n <= schedule.horizon:
        raise ConfigurationError(
            f"need 1 <= m <= n <= horizon={schedule.horizon}, got ({m}, {n})"
        )
    return sum(_word_counts(schedule, m, n))


# ---------------------------------------------------------------------------
# growth statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthStats:
    """Per-time alphabet sizes and follower extremes over pruned letters.

    counts[k] = #I^(n) for n = times[k]; g_lo/g_hi are the least/greatest
    single-step follower counts (defined up to horizon-1); xi = g_hi/g_lo.
    """

    times: tuple
    counts: tuple
    g_lo: tuple
    g_hi: tuple
    xi: tuple
    horizon: int

    def count_trend(self) -> TrendReport:
        return trend_report(self.times, values=self.counts)

    def follower_trend(self) -> TrendReport:
        ns = self.times[: len(self.g_hi)]
        return trend_report(ns, values=self.g_hi)


def _follower_count_range(schedule, n, depth):
    """(min, max) over kept letters at time n of #length-`depth` continuations."""
    counts = _word_counts(schedule, n, n + depth)
    vals = [c for c, k in zip(counts, schedule.kept[n]) if k]
    return min(vals), max(vals)


def growth_stats(schedule: GraphSchedule, cert=None) -> GrowthStats:
    """Follower statistics; with a certificate, asserts the primitivity chain.

    The asserted chain, for each time n with everything materialized:
    g_lo[n+p] <= g_hi[n+p] <= #I^(n+p+1) <= G_lo^{p+1}(n) <= G_hi^{p+1}(n)
    <= #I^{n, n+p+1}.
    """
    if schedule.horizon < 2:
        raise ConfigurationError("growth statistics need horizon >= 2")
    times = tuple(range(1, schedule.horizon + 1))
    counts = tuple(schedule.kept_count(n) for n in times)
    g_lo, g_hi, xi = [], [], []
    for n in range(1, schedule.horizon):
        per = schedule.incidence[n].count_followers(schedule.kept[n + 1])
        vals = per[schedule.kept[n]]
        lo, hi = int(vals.min()), int(vals.max())
        if lo < 1:
            raise IntegrityError(
                f"pruned letter without follower at time {n}; pruning is broken"
            )
        g_lo.append(lo)
        g_hi.append(hi)
        xi.append(hi / lo)
    stats = GrowthStats(times, counts, tuple(g_lo), tuple(g_hi), tuple(xi), schedule.horizon)

    for k, n in enumerate(times[:-1]):
        # single-step chain g_lo <= g_hi <= #I^(n+1) <= g_hi * #I^(n)
        if not (g_lo[k] <= g_hi[k] <= counts[k + 1] <= g_hi[k] * counts[k]):
            raise IntegrityError(f"follower-count chain violated at time {n}")

    if cert is not None:
        p = cert.p
        for n in range(1, schedule.horizon - p):
            glo_p1, ghi_p1 = _follower_count_range(schedule, n, p + 1)
            count_block = count_words(n, n + p + 1, schedule)
            chain = (
                g_lo[n + p - 1]
                <= g_hi[n + p - 1]
                <= counts[n + p]
                <= glo_p1
                <= ghi_p1
                <= count_block
            )
            if not chain:
                raise IntegrityError(
                    f"primitivity inequality chain violated at time {n}: "
                    f"({g_lo[n + p - 1]}, {g_hi[n + p - 1]}, {counts[n + p]}, "
                    f"{glo_p1}, {ghi_p1}, {count_block})"
                )
    return stats


def subexp_diagnostic(stats: GrowthStats):
    """Alphabet- and follower-growth trend reports with a combined verdict."""
    if stats.horizon < 8:
        raise ConfigurationError("subexponential diagnostics need horizon >= 8")
    return SubexpReport(stats.count_trend(), stats.follower_trend())


@dataclass(frozen=True)
class SubexpReport:
    count_trend: TrendReport
    follower_trend: TrendReport

    @property
    def verdict(self) -> str:
        return self.count_trend.label


# ---------------------------------------------------------------------------
# finite primitivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimitivityCertificate:
    """Every (a, b) separated by p+1 steps is joined by a length-p word.

    `p` is the connector length (products of p + 1 steps) from
    `certify_primitivity`, but the steps of the positive product from
    `find_primitivity`: gdms2v certifies at p = 1 and finds p = 2.  The
    certificate holds no connector words: Q, the floor on their derivative
    norms, is 1.0 at p = 0 (no connector is needed) and None otherwise.
    `systems.extract_subsystem_g_bounded` finds the connectors it inserts
    and takes their own norm floor.
    """

    p: int
    Q: Optional[float]


def _products_positive(schedule, p, chains=None):
    """All p-matrix products A^(n)...A^(n+p-1) entrywise positive on kept letters.

    Each product is boolean and kept transposed: row b of the one from time
    n says which letters of time n reach letter b of time n+p on kept
    letters.  It grows one step at a time through `Incidence.reach`, an OR
    with no sum, so the test is exact.  `chains` maps each start time n to
    its longest product so far, as (number of steps, product); a caller that
    asks for p = 1, 2, ... in turn passes one dict, so each start time's
    product of p matrices extends its product of p-1 by one step.
    """
    chains = {} if chains is None else chains
    kept = schedule.kept
    for n in range(1, schedule.horizon - p + 1):
        k, prod = chains.get(n) or (1, schedule.step_matrix(n).T)
        for j in range(n + k, n + p):
            prod = schedule._capped_step(j).reach(prod)
            prod[~kept[j + 1]] = False
        chains[n] = (p, prod)
        prod = prod[kept[n + p]][:, kept[n]]
        if prod.size == 0 or not prod.all():
            return False
    return True


def certify_primitivity(schedule: GraphSchedule, p: int):
    """Check the connector definition directly at a given p.

    Succeeds when every a in I^(n), b in I^(n+p+1) is joined by a length-p
    word, i.e. the (p+1)-matrix products are entrywise positive; p=0 demands
    complete steps.  Returns the certificate, or None.
    Here p is the connector length, one less than the steps that
    `find_primitivity` counts: gdms2v certifies at p = 1 and finds p = 2.
    """
    if p < 0:
        raise InputError(f"connector length p must be >= 0, got {p}")
    if schedule.horizon < p + 2:
        raise ConfigurationError(
            f"certifying p={p} needs horizon >= {p + 2}, have {schedule.horizon}"
        )
    if p == 0:
        if not all(schedule.step_complete(n) for n in range(1, schedule.horizon)):
            return None
        return PrimitivityCertificate(0, 1.0)
    if not _products_positive(schedule, p + 1):
        return None
    return PrimitivityCertificate(p, None)


def find_primitivity(schedule: GraphSchedule, p_max: int):
    """Minimal p in [0, p_max] under the matrix-positivity criterion.

    p=0 is returned when every step is complete (all-ones on pruned letters);
    otherwise the smallest p >= 2 whose p-matrix products are all entrywise
    positive.  p = 1 is never tried: its products are the single steps, all
    positive exactly when every step is complete, which p = 0 has just
    refuted.  With pruned alphabets this implies the connector definition at
    the same p; no connector words are built.  None when no p <= p_max works.
    The search over p keeps each start time's product and extends it by one
    step for the next p, so it forms each product of consecutive steps once.
    Here p counts the product's steps, one more than the connector length of
    `certify_primitivity`: gdms2v finds p = 2 (`primitivity_p`), certifies at 1.
    """
    if schedule.horizon < p_max + 2:
        raise ConfigurationError(
            f"searching p <= {p_max} needs horizon >= {p_max + 2},"
            f" have {schedule.horizon}"
        )
    if all(schedule.step_complete(n) for n in range(1, schedule.horizon)):
        return PrimitivityCertificate(0, 1.0)
    chains = {}
    for p in range(2, p_max + 1):
        if _products_positive(schedule, p, chains):
            return PrimitivityCertificate(p, None)
    return None

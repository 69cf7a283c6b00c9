"""Time-indexed multigraphs, admissible words, follower statistics, primitivity.

A schedule materializes finitely many time steps of a (possibly rule-defined)
multigraph: vertex sets V_n, edge alphabets I^(n) with source/target vertices,
and step incidence relations between consecutive alphabets.  Words are
admissible when consecutive letters are incidence-allowed; all statistics are
taken over the *pruned* alphabets, keeping only letters that both extend
forward to the horizon and are reachable from time 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

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


# ---------------------------------------------------------------------------
# incidence rules
# ---------------------------------------------------------------------------


class Incidence:
    """Relation between the alphabet at time n and at time n+1.

    Subclasses provide the primitives used by pruning, enumeration and
    transfer products.  `cur`/`nxt` letter metadata is bound at schedule
    construction via `bind`.
    """

    def bind(self, cur_dst_vertex, nxt_src_vertex):
        self._cur_dst = np.asarray(cur_dst_vertex)
        self._nxt_src = np.asarray(nxt_src_vertex)
        self._check()
        return self

    def _check(self):
        pass

    @property
    def n_cur(self):
        return self._cur_dst.size

    @property
    def n_nxt(self):
        return self._nxt_src.size

    # -- primitives -------------------------------------------------------
    def followers(self, a: int, keep_nxt) -> np.ndarray:
        raise NotImplementedError

    def follower_table(self, keep_nxt) -> "FollowerTable":
        """The allowed successors in keep_nxt of every current letter."""
        raise NotImplementedError

    def count_followers(self, keep_nxt) -> np.ndarray:
        """Per current letter, number of allowed kept successors."""
        raise NotImplementedError

    def follower_min(self, keep_nxt, values) -> np.ndarray:
        """Per current letter, the least `values[b]` over its allowed kept
        successors b (inf when it has none)."""
        raise NotImplementedError

    def reach_next(self, cur_mask) -> np.ndarray:
        """Mask of next letters reachable from any current letter in cur_mask."""
        raise NotImplementedError

    def transfer(self, u, w_nxt, keep_nxt) -> np.ndarray:
        """u'_b = w_b * sum_{a -> b} u_a, zero outside keep_nxt (float64)."""
        raise NotImplementedError

    def count_transfer(self, counts_nxt) -> list:
        """c_a = sum over followers b of counts_nxt[b], in exact ints."""
        raise NotImplementedError

    def is_complete(self, keep_cur, keep_nxt) -> bool:
        """True when every kept pair is allowed (the all-ones case)."""
        raise NotImplementedError

    def matrix(self, keep_cur=None, keep_nxt=None) -> np.ndarray:
        """Dense boolean matrix, zeroed outside the keep masks."""
        raise NotImplementedError


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
        np.cumsum(counts[:-1], out=ptr[1:])
        for arr in (row, counts, ptr, cols):
            arr.flags.writeable = False
        self.row, self.counts, self.ptr, self.cols = row, counts, ptr, cols


class FullIncidence(Incidence):
    """Every composable pair allowed: A(a, b) = 1 iff t(a) = i(b)."""

    def _vertex_codes(self):
        # integer codes for dst(cur) and src(nxt) over their union
        verts = {}
        for v in list(self._cur_dst) + list(self._nxt_src):
            verts.setdefault(v, len(verts))
        cur = np.array([verts[v] for v in self._cur_dst], dtype=np.int64)
        nxt = np.array([verts[v] for v in self._nxt_src], dtype=np.int64)
        return cur, nxt, len(verts)

    @cached_property
    def _codes(self):
        return self._vertex_codes()

    def followers(self, a, keep_nxt):
        cur, nxt, _ = self._codes
        return np.flatnonzero((nxt == cur[a]) & keep_nxt)

    def follower_table(self, keep_nxt):
        # one row per vertex: the kept next letters starting there
        cur, nxt, nv = self._codes
        kept = np.flatnonzero(keep_nxt)
        by_vertex = nxt[kept]
        cols = kept[np.argsort(by_vertex, kind="stable")]
        return FollowerTable(cur, np.bincount(by_vertex, minlength=nv), cols)

    def count_followers(self, keep_nxt):
        cur, nxt, nv = self._codes
        per_vertex = np.bincount(nxt[keep_nxt], minlength=nv)
        return per_vertex[cur]

    def follower_min(self, keep_nxt, values):
        cur, nxt, nv = self._codes
        per_vertex = np.empty(nv)
        per_vertex.fill(np.inf)  # np.full costs twice as much here
        np.minimum.at(per_vertex, nxt[keep_nxt], values[keep_nxt])
        return per_vertex[cur]

    def reach_next(self, cur_mask):
        cur, nxt, nv = self._codes
        hit = np.zeros(nv, dtype=bool)
        hit[cur[cur_mask]] = True
        return hit[nxt]

    def transfer(self, u, w_nxt, keep_nxt):
        cur, nxt, nv = self._codes
        sums = np.bincount(cur, weights=u, minlength=nv)
        out = w_nxt * sums[nxt]
        out[~keep_nxt] = 0.0
        return out

    def count_transfer(self, counts_nxt):
        cur, nxt, nv = self._codes
        sums = [0] * nv
        for b, c in enumerate(counts_nxt):
            sums[nxt[b]] += c
        return [sums[cur[a]] for a in range(self.n_cur)]

    def is_complete(self, keep_cur, keep_nxt):
        cur, nxt, _ = self._codes
        cs = set(cur[keep_cur].tolist())
        ns = set(nxt[keep_nxt].tolist())
        return len(cs) <= 1 and cs == ns if cs else True

    def matrix(self, keep_cur=None, keep_nxt=None):
        cur, nxt, _ = self._codes
        mat = cur[:, None] == nxt[None, :]
        if keep_cur is not None:
            mat = mat & keep_cur[:, None]
        if keep_nxt is not None:
            mat = mat & keep_nxt[None, :]
        return mat


def _by_degree(mat):
    """[(idx, nbrs)]: the rows of a 0/1 matrix grouped by their number of
    ones; nbrs[i] lists the columns of row idx[i]'s ones in ascending order."""
    deg = mat.sum(axis=1)
    _, cols = np.nonzero(mat)
    starts = np.cumsum(deg) - deg
    groups = []
    for k in np.unique(deg).tolist():
        idx = np.flatnonzero(deg == k)
        groups.append((idx, cols[starts[idx, None] + np.arange(k)]))
    return groups


class DenseIncidence(Incidence):
    """Explicit 0/1 matrix (also the compiled form of identity/banded rules)."""

    def __init__(self, mat):
        self._mat = np.asarray(mat, dtype=bool)

    def _check(self):
        if self._mat.shape != (self.n_cur, self.n_nxt):
            raise IntegrityError(
                f"incidence shape {self._mat.shape} != ({self.n_cur}, {self.n_nxt})"
            )
        # composability: allowed implies matching vertices
        bad = self._mat & (self._cur_dst[:, None] != self._nxt_src[None, :])
        if bad.any():
            a, b = np.argwhere(bad)[0]
            raise IntegrityError(
                f"incidence allows letters {a}->{b} with t(a)={self._cur_dst[a]!r}"
                f" != i(b)={self._nxt_src[b]!r}"
            )

    def followers(self, a, keep_nxt):
        return np.flatnonzero(self._mat[a] & keep_nxt)

    def follower_table(self, keep_nxt):
        rows, cols = np.nonzero(self._mat & keep_nxt)
        counts = np.bincount(rows, minlength=self.n_cur)
        return FollowerTable(np.arange(self.n_cur), counts, cols)

    def count_followers(self, keep_nxt):
        return (self._mat & keep_nxt[None, :]).sum(axis=1)

    def follower_min(self, keep_nxt, values):
        # a masked row minimum over a broadcast view: no float matrix is built
        allowed = self._mat & keep_nxt
        return np.min(
            np.broadcast_to(values, allowed.shape), axis=1, where=allowed, initial=np.inf
        )

    def reach_next(self, cur_mask):
        return self._mat[cur_mask].any(axis=0) if cur_mask.any() else np.zeros(self.n_nxt, bool)

    @cached_property
    def _columns(self):
        return _by_degree(self._mat.T)

    @cached_property
    def _rows(self):
        return _by_degree(self._mat)

    def transfer(self, u, w_nxt, keep_nxt):
        # u[rows].sum(axis=1) adds each column's entries in ascending row
        # order, exactly as a 1-D sum over u[mat[:, b]] does
        out = np.empty(self.n_nxt, dtype=float)
        for cols, rows in self._columns:
            out[cols] = u[rows].sum(axis=1)
        out[~keep_nxt] = 0.0
        return out * np.where(keep_nxt, w_nxt, 0.0)

    def count_transfer(self, counts_nxt):
        # int64 while no count or row sum can pass 2**63 - 1, else exact ints
        widest = max((r.shape[1] for _, r in self._rows), default=0)
        small = int(max(counts_nxt, default=0)) * max(widest, 1) < 2**63
        counts = np.array(counts_nxt, dtype=np.int64 if small else object)
        out = np.zeros(self.n_cur, dtype=counts.dtype)
        for rows, cols in self._rows:
            out[rows] = counts[cols].sum(axis=1)
        return out.tolist()

    def is_complete(self, keep_cur, keep_nxt):
        sub = self._mat[keep_cur][:, keep_nxt]
        return bool(sub.all()) if sub.size else True

    def matrix(self, keep_cur=None, keep_nxt=None):
        mat = self._mat.copy()
        if keep_cur is not None:
            mat &= keep_cur[:, None]
        if keep_nxt is not None:
            mat &= keep_nxt[None, :]
        return mat


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


class GraphSchedule:
    """Materialized vertex/alphabet/incidence data for times 0..horizon.

    `vertex_sets[n]` lists vertices of V_n; `alphabets[n]` the letters of
    I^(n) for n >= 1 (index 0 is an empty placeholder); `incidence[n]`
    relates I^(n) to I^(n+1) for 1 <= n <= horizon-1.
    """

    def __init__(self, vertex_sets, alphabets, incidence):
        self.vertex_sets = tuple(tuple(vs) for vs in vertex_sets)
        self.alphabets = tuple(tuple(al) for al in alphabets)
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
        for n in range(1, self.horizon + 1):
            vs_prev = set(self.vertex_sets[n - 1])
            vs_cur = set(self.vertex_sets[n])
            seen = set()
            for e in self.alphabets[n]:
                if e.label in seen:
                    raise IntegrityError(f"duplicate letter {e.label!r} at time {n}")
                seen.add(e.label)
                if e.src not in vs_prev:
                    raise IntegrityError(
                        f"letter {e.label!r} at time {n}: src {e.src!r} not in V_{n-1}"
                    )
                if e.dst not in vs_cur:
                    raise IntegrityError(
                        f"letter {e.label!r} at time {n}: dst {e.dst!r} not in V_{n}"
                    )
        for n in range(1, self.horizon):
            cur = self.alphabets[n]
            nxt = self.alphabets[n + 1]
            self.incidence[n].bind(
                [e.dst for e in cur], [e.src for e in nxt]
            )

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
        changed = True
        while changed:
            changed = False
            for n in range(self.horizon - 1, 0, -1):
                ok = self.incidence[n].count_followers(keep[n + 1]) > 0
                new = keep[n] & ok
                if not np.array_equal(new, keep[n]):
                    keep[n] = new
                    changed = True
            for n in range(1, self.horizon):
                new = keep[n + 1] & self.incidence[n].reach_next(keep[n])
                if not np.array_equal(new, keep[n + 1]):
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
        expanding a whole frontier; built once per step, on first use (a walk
        that reads a few letters a step asks `followers` instead)."""
        table = self._tables.get(n)
        if table is None:
            table = self.incidence[n].follower_table(self.kept[n + 1])
            self._tables[n] = table
        return table

    def step_complete(self, n: int) -> bool:
        return self.incidence[n].is_complete(self.kept[n], self.kept[n + 1])

    def step_matrix(self, n: int) -> np.ndarray:
        inc = self.incidence[n]
        if max(inc.n_cur, inc.n_nxt) > DENSE_LETTER_CAP and isinstance(
            inc, FullIncidence
        ):
            raise BudgetError(
                f"step {n} too large to materialize ({inc.n_cur}x{inc.n_nxt})"
            )
        return inc.matrix(self.kept[n], self.kept[n + 1])


def ncifs_schedule(letter_labels_per_time, vertex="v"):
    """Single vertex per time, complete incidence: the iterated-function case."""
    horizon = len(letter_labels_per_time)
    vs = [(vertex,)] * (horizon + 1)
    alphabets = [()]
    for labels in letter_labels_per_time:
        alphabets.append(tuple(Letter(lbl, vertex, vertex) for lbl in labels))
    inc = [FullIncidence() for _ in range(horizon - 1)]
    return GraphSchedule(vs, alphabets, inc)


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
    if n > schedule.horizon:
        raise ConfigurationError(f"time {n} beyond horizon {schedule.horizon}")
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
        return trend_report("#I", self.times, values=self.counts)

    def follower_trend(self) -> TrendReport:
        ns = self.times[: len(self.g_hi)]
        return trend_report("G_hi", ns, values=self.g_hi)


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
        for n in range(1, schedule.horizon - p - 1 + 1):
            if n + p + 1 > schedule.horizon or n + p >= schedule.horizon:
                break
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

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "alphabet": self.count_trend.as_dict(),
            "followers": self.follower_trend.as_dict(),
        }


# ---------------------------------------------------------------------------
# finite primitivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimitivityCertificate:
    """Every (a, b) separated by p+1 steps is joined by a length-p word.

    The schedule-level searches leave `connectors` empty and Q None for p >= 1;
    `systems.system_certify`/`system_primitivity` fill in one joining word per
    pair and Q, a lower bound on their derivative norms."""

    p: int
    connectors: Mapping  # time n -> {(a_label, b_label): Word}
    Q: Optional[float]
    horizon_checked: int


def _products_positive(schedule, p):
    """All p-matrix products A^(n)...A^(n+p-1) entrywise positive on kept letters.

    The products are boolean: each step multiplies 0/1 matrices in float32
    and keeps only `> 0`.  A sum of non-negative terms is positive exactly
    when one term is, whatever the rounding, so the test is exact.
    """
    for n in range(1, schedule.horizon - p + 1):
        prod = schedule.step_matrix(n)
        for j in range(n + 1, n + p):
            step = schedule.step_matrix(j).astype(np.float32)
            prod = (prod.astype(np.float32) @ step) > 0
        prod = prod[schedule.kept[n]][:, schedule.kept[n + p]]
        if prod.size == 0 or not prod.all():
            return False
    return True


def _build_connectors(schedule, p):
    """Lexicographically smallest length-p connector per (a, b) pair, p >= 1.

    For each time n, pairs range over kept I^(n) x kept I^(n+p+1); the word
    lives at times n+1 .. n+p.  Returns {n: {(a_label, b_label): Word}}.
    """
    connectors = {}
    for n in range(1, schedule.horizon - p):
        mats = [schedule.step_matrix(j) for j in range(n, n + p + 1)]
        # backward reachability to each target letter b
        nxt_count = mats[-1].shape[1]
        lam_n = {}
        for b in np.flatnonzero(schedule.kept[n + p + 1]):
            back = [None] * (p + 2)
            vec = np.zeros(nxt_count, dtype=bool)
            vec[b] = True
            back[p + 1] = vec
            for k in range(p, -1, -1):
                back[k] = (
                    mats[k].astype(np.int64) @ back[k + 1].astype(np.int64)
                ) > 0
            for a in np.flatnonzero(schedule.kept[n]):
                if not back[0][a]:
                    raise IntegrityError(
                        f"connector missing for pair at time {n}; positivity"
                        " check and connector construction disagree"
                    )
                lam = []
                prev = a
                for k in range(1, p + 1):
                    row = mats[k - 1][prev]
                    cand = np.flatnonzero(row & back[k])
                    c = int(cand[0])  # smallest index = lexicographic order
                    lam.append(schedule.letters(n + k)[c].label)
                    prev = c
                a_lbl = schedule.letters(n)[a].label
                b_lbl = schedule.letters(n + p + 1)[b].label
                lam_n[(a_lbl, b_lbl)] = Word(n + 1, tuple(lam))
        connectors[n] = lam_n
    return connectors


def certify_primitivity(schedule: GraphSchedule, p: int):
    """Check the connector definition directly at a given p.

    Succeeds when every a in I^(n), b in I^(n+p+1) is joined by a length-p
    word, i.e. the (p+1)-matrix products are entrywise positive; p=0 demands
    complete steps.  Returns a certificate without connector words or None.
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
        return PrimitivityCertificate(0, {}, 1.0, schedule.horizon)
    if not _products_positive(schedule, p + 1):
        return None
    return PrimitivityCertificate(p, {}, None, schedule.horizon)


def find_primitivity(schedule: GraphSchedule, p_max: int):
    """Minimal p in [0, p_max] under the matrix-positivity criterion.

    p=0 is returned when every step is complete (all-ones on pruned letters);
    otherwise the smallest p >= 1 whose p-matrix products are all entrywise
    positive.  With pruned alphabets this implies the connector definition at
    the same p; no connector words are built.  None when no p <= p_max works.
    """
    if schedule.horizon < p_max + 2:
        raise ConfigurationError(
            f"searching p <= {p_max} needs horizon >= {p_max + 2},"
            f" have {schedule.horizon}"
        )
    if all(schedule.step_complete(n) for n in range(1, schedule.horizon)):
        return PrimitivityCertificate(0, {}, 1.0, schedule.horizon)
    for p in range(1, p_max + 1):
        if _products_positive(schedule, p):
            return PrimitivityCertificate(p, {}, None, schedule.horizon)
    return None

"""Limit-set sampling, level covers, box counting, geometric checks.

Points are sampled through finite word prefixes: the nested image of a
prefix's domain space encloses the true limit point, so every sample carries
a certified radius.  Both sampling strategies run one frontier sweep
(`_frontier.sweep`), which keeps every follower of each word (exhaustive)
or one drawn follower (random-admissible), and feed one projector: the
family's vectorized point state where it has one, else each word's image
region.  Level covers take their words from the same sweep
(`_frontier.word_levels`) and each word's image region.  In box counting a
sampled point occupies every box its enclosure meets, so the count
over-counts rather than misses mass; the slope is reported beside the
dimension bracket and compared with nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _frontier
from .errors import BudgetError, ConfigurationError, InputError
from .maps import image_region
from .symbolic import Word, count_words
from .trend import TrendReport, trend_report


@dataclass(frozen=True)
class PointCloud:
    """Column layout: coords is (N, d); words align with rows."""

    coords: np.ndarray
    radii: np.ndarray
    words: tuple
    depth: int
    seed: Optional[int] = None

    def __len__(self):
        return self.coords.shape[0]

    def columns(self):
        """CSV columns (x[, y], radius, word)."""
        return (*self.coords.T, self.radii, self.words)


def _center_radius(region):
    """(center, radius) of an interval or disk region."""
    if region.kind == "interval":
        lo, hi = region.bounds
        return (0.5 * (lo + hi),), 0.5 * (hi - lo)
    cx, cy, r = region.bounds
    return (cx, cy), r


SAMPLE_STRATEGIES = ("exhaustive", "random-admissible")


def sample_limit_set(
    system,
    depth: int,
    max_points: int,
    strategy: str = "exhaustive",
    seed: int = 0,
    with_words: bool = True,
) -> PointCloud:
    """Point cloud of depth-`depth` prefix projections.

    One frontier sweep walks the words; the strategy only chooses each
    level's letters.  exhaustive: every admissible word, in frontier order
    (budget error past max_points).  random-admissible: `max_points` words,
    word i taking follower floor(u * k) of its k at each time from row i of
    one row-major `default_rng(seed).random((max_points, depth))` draw, so it
    depends on (seed, i) alone.  Families with a vectorized point state
    project the whole frontier at once; the others project word by word.
    `with_words=False` skips the per-point word labels (large clouds feeding
    the box-counting oracle don't need them).
    """
    if depth < 1 or max_points < 1:
        raise InputError("depth and max_points must be >= 1")
    if depth > system.horizon:
        raise ConfigurationError(
            f"depth {depth} beyond materialized horizon {system.horizon}"
        )
    if strategy not in SAMPLE_STRATEGIES:
        raise InputError(f"unknown sampling strategy {strategy!r}")
    draws = None
    if strategy == "random-admissible":
        draws = np.random.default_rng(seed).random((max_points, depth))
    elif count_words(1, depth, system.schedule) > max_points:
        raise BudgetError(
            f"exhaustive sampling exceeds {max_points} points at"
            f" depth {depth}; lower the depth or raise the budget"
        )
    impl = _frontier.vector_state(system, 1, depth, points=True)
    levels, last, words = [], [], []

    def on_level(j, letters, state, src):
        if impl is None:
            levels.append((letters, src))
        if with_words:
            # a word's label extends its parent's by its last letter's
            tags = _labels(system, j, "" if src is None else ".")[letters]
            words[:] = [tags if src is None else words[0][src] + tags]
        last[:] = letters, state

    state_impl = impl or _frontier._NoState()
    _frontier.sweep(system, 1, depth, state_impl, on_level, max_points, draws)
    columns = _label_columns(system, levels) if impl is None else None
    coords, radii = _project(system, depth, impl, *last, columns)
    words = tuple(words[0].tolist()) if with_words else ("",) * len(radii)
    return PointCloud(coords, radii, words, depth, None if draws is None else seed)


def _labels(system, j, sep=""):
    """Object array of the time-j letters' labels after `sep`, in alphabet order."""
    return np.array([sep + e.label for e in system.schedule.letters(j)], dtype=object)


def _label_columns(system, levels):
    """Per time, the label of every final word's letter, traced back from the
    last level through each level's parent positions."""
    columns, pos = [], None
    for j in range(len(levels), 0, -1):
        letters, src = levels[j - 1]
        labels = _labels(system, j)
        columns.append(labels[letters if pos is None else letters[pos]].tolist())
        if src is not None:
            pos = src if pos is None else src[pos]
    return columns[::-1]


def _project(system, depth, impl, letters, state, columns):
    """(coords, radii) of the final words.  With a point state: one region
    per distinct domain space of the words' last letters.  Without: each
    word's image region, unchecked since the sweep only follows followers."""
    if impl is None:
        pairs = [
            _center_radius(image_region(Word(1, labels), system, check=False))
            for labels in zip(*columns)
        ]
        return np.array([p for p, _ in pairs]), np.array([r for _, r in pairs])
    tab = system.letter_table
    used = np.flatnonzero(np.bincount(letters))
    doms = tab.dom[tab.span(depth)][used] - tab.space_start[depth]
    groups = np.unique(doms).tolist()
    coords = np.empty((letters.size, system.dim))
    radii = np.empty(letters.size)
    for k in groups:
        # a lone domain takes the whole state without copying it
        mask = slice(None) if len(groups) == 1 else np.isin(letters, used[doms == k])
        dom = system.spaces[depth][k]
        centers, r = impl.region(tuple(arr[mask] for arr in state), dom)
        coords[mask] = np.stack(centers, axis=1)
        radii[mask] = r
    return coords, radii


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxCountFit:
    slope: float
    stderr: float
    scales: tuple
    counts: tuple


def _flat_codes(idx):
    """Collision-free int64 codes for integer box coordinates."""
    if idx.shape[1] == 1:
        return idx[:, 0]
    shift = np.int64(1) << 31
    return idx[:, 0] * shift + idx[:, 1]


def _boxes_at_scale(coords, radii, eps, budget=20_000_000):
    """Distinct grid boxes (anchored at 0) met by the enclosures.

    Point i meets the cells lo_idx[i] .. hi_idx[i] on every axis; all of them
    are listed in one pass by splitting a running per-point index into
    mixed-radix digits, one axis at a time.
    """
    # counted in floats first: far or non-finite enclosures overflow int64,
    # and the inf or nan they leave fails the budget test below
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.floor((coords - radii[:, None]) / eps)
        extent = np.floor((coords + radii[:, None]) / eps) - lo + 1
    total = extent.prod(axis=1).sum()
    if not total <= budget:
        raise BudgetError(f"box enumeration at scale {eps} needs {total:.0f} cells")
    lo_idx = lo.astype(np.int64)
    extent = extent.astype(np.int64)
    cells = extent.prod(axis=1)
    total = int(cells.sum())
    local = np.arange(total, dtype=np.int64)
    local -= np.repeat(np.cumsum(cells) - cells, cells)
    boxes = np.empty((total, coords.shape[1]), dtype=np.int64)
    for k in range(coords.shape[1]):
        radix = np.repeat(extent[:, k], cells)
        np.remainder(local, radix, out=boxes[:, k])
        boxes[:, k] += np.repeat(lo_idx[:, k], cells)
        local //= radix
    return _frontier._distinct(_flat_codes(boxes))[0].size


def box_counting_dim(points, radii, scale_window=(2.0**-14, 2.0**-4)) -> BoxCountFit:
    """Least-squares slope of log N(eps) against log(1/eps) over dyadic scales.

    Each point's enclosure (center +- radius) counts toward every box it
    meets, so the slope over-counts rather than misses mass.
    """
    coords = np.asarray(points, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    radii = np.asarray(radii, dtype=float)
    if radii.ndim == 0:
        radii = np.full(coords.shape[0], float(radii))
    eps_min, eps_max = scale_window
    if not (0 < eps_min < eps_max):
        raise InputError(f"degenerate scale window {scale_window}")
    k_lo = int(math.ceil(-math.log2(eps_max)))
    k_hi = int(math.floor(-math.log2(eps_min)))
    if k_hi <= k_lo:
        raise InputError(
            f"scale window {scale_window} holds fewer than two dyadic scales"
        )
    scales, counts = [], []
    for k in range(k_lo, k_hi + 1):
        eps = 2.0**-k
        scales.append(eps)
        counts.append(_boxes_at_scale(coords, radii, eps))
    xs = [math.log(1.0 / e) for e in scales]
    ys = [math.log(c) for c in counts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    resid = [y - (ybar + slope * (x - xbar)) for x, y in zip(xs, ys)]
    dof = max(len(xs) - 2, 1)
    stderr = math.sqrt(sum(r * r for r in resid) / dof / sxx)
    return BoxCountFit(slope, stderr, tuple(scales), tuple(counts))


# ---------------------------------------------------------------------------
# level covers and the open-set check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelCover:
    level: int
    cells: tuple  # (word_label, root_vertex, Space)

    def columns(self):
        """CSV columns (word, root, lo/hi or cx/cy/r..., diam)."""
        labels, roots, regions = zip(*self.cells)
        bounds = zip(*(region.bounds for region in regions))
        return (labels, roots, *bounds, tuple(region.diam for region in regions))


def level_cover(system, n: int, budget: int = 200_000) -> LevelCover:
    """All depth-n cells: the images of the admissible words 1..n, in
    lexicographic order."""
    if n > system.horizon:
        raise ConfigurationError(f"level {n} beyond horizon {system.horizon}")
    if count_words(1, n, system.schedule) > budget:
        raise BudgetError(f"level cover at depth {n} exceeds {budget} cells")
    rows, labels = _frontier.word_levels(system, 1, n)
    first = system.schedule.letters(1)
    cells = []
    for a, letters in zip(rows[:, 0].tolist(), labels):
        w = Word(1, letters)
        region = image_region(w, system, check=False)
        cells.append((w.label(), first[a].src, region))
    return LevelCover(n, tuple(cells))


@dataclass(frozen=True)
class OscReport:
    level: int
    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


#: interior overlap up to this size counts as touching, not overlapping
OSC_TOL = 1e-12


def verify_osc(system, n: int, budget: int = 200_000) -> OscReport:
    """Pairwise interior-overlap check of the level-n cells sharing a root vertex."""
    cover = level_cover(system, n, budget)
    groups = {}
    for lbl, root, region in cover.cells:
        groups.setdefault(root, []).append((lbl, region))
    violations = []
    for root, cells in groups.items():
        if cells[0][1].kind == "interval":
            cells = sorted(cells, key=lambda c: c[1].bounds[0])
            for (la, ra), (lb, rb) in zip(cells, cells[1:]):
                overlap = ra.interior_overlap(rb)
                if overlap > OSC_TOL:
                    violations.append((la, lb, overlap))
        else:
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    overlap = cells[i][1].interior_overlap(cells[j][1])
                    if overlap > OSC_TOL:
                        violations.append((cells[i][0], cells[j][0], overlap))
    return OscReport(n, len(cover.cells), tuple(violations))


# ---------------------------------------------------------------------------
# diameter diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiameterReport:
    upper_trend: TrendReport
    ratio_trend: TrendReport
    vertex_trend: TrendReport

    @property
    def satisfied(self) -> bool:
        """Horizon-bounded verdict on both diameter limits and vertex growth."""
        from .trend import SUBEXPONENTIAL

        return all(
            t.verdict == SUBEXPONENTIAL
            for t in (self.upper_trend, self.ratio_trend, self.vertex_trend)
        )


def diameter_diagnostics(system) -> DiameterReport:
    """Fitted rates of both space-diameter limits and of the vertex-count
    growth."""
    h = system.horizon
    d_lo, d_hi = [], []
    for n in range(0, h + 1):
        lo, hi = system.diam_bounds(n)
        d_lo.append(lo)
        d_hi.append(hi)
    ns = list(range(1, h + 1))
    upper = trend_report(ns, values=d_hi[1:])
    # second limit: y_n = (1/n) sup_{k >= 0} log(d_hi[k+n] / d_lo[k])
    ratio_vals = []
    for n in ns:
        sup = max(
            math.log(d_hi[k + n] / d_lo[k]) for k in range(0, h - n + 1)
        )
        ratio_vals.append(sup)
    ratio = trend_report(ns, log_values=ratio_vals)
    nverts = [len(system.schedule.vertex_sets[n]) for n in ns]
    verts = trend_report(ns, values=nverts)
    return DiameterReport(upper, ratio, verts)

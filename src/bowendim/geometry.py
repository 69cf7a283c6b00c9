"""Limit-set sampling, level covers, box-counting oracle, geometric checks.

Points are sampled through finite word prefixes: the nested image of a
prefix's domain space encloses the true limit point, so every sample carries
a certified radius.  The box-counting slope is the package's independent
oracle; a sampled point occupies every box its enclosure meets, making the
count conservative for upper-consistency checks against the pressure-based
dimension estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _frontier
from .errors import BudgetError, ConfigurationError, InputError
from .maps import image_region
from .symbolic import Word, walk_words
from .trend import TrendReport, trend_report


@dataclass(frozen=True)
class LimitPoint:
    point: tuple
    radius: float
    word: Word


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

    def rows(self):
        """CSV rows (x[, y], radius, word)."""
        for i in range(len(self)):
            yield tuple(self.coords[i]) + (float(self.radii[i]), self.words[i])


def _center_radius(region):
    """(center, radius) of an interval or disk region."""
    if region.kind == "interval":
        lo, hi = region.bounds
        return (0.5 * (lo + hi),), 0.5 * (hi - lo)
    cx, cy, r = region.bounds
    return (cx, cy), r


def project_point(word_prefix: Word, system) -> LimitPoint:
    """Midpoint of the prefix's nested image with certified enclosure radius."""
    if len(word_prefix) < 1:
        raise InputError("need a nonempty prefix")
    point, radius = _center_radius(image_region(word_prefix, system))
    return LimitPoint(point, radius, word_prefix)


def sample_limit_set(
    system,
    depth: int,
    max_points: int,
    strategy: str = "exhaustive",
    seed: int = 0,
    with_words: bool = True,
) -> PointCloud:
    """Point cloud of depth-`depth` prefix projections.

    exhaustive: one point per admissible word (budget error past max_points);
    random-admissible: `max_points` uniform random admissible extensions, each
    drawn from its own (seed, index) stream.
    `with_words=False` skips the per-point word labels (large clouds feeding
    the box-counting oracle don't need them).
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if depth > system.horizon:
        raise ConfigurationError(
            f"depth {depth} beyond materialized horizon {system.horizon}"
        )
    if strategy == "exhaustive":
        return _sample_exhaustive(system, depth, max_points, with_words)
    if strategy == "random-admissible":
        return _sample_random(system, depth, max_points, seed)
    raise InputError(f"unknown sampling strategy {strategy!r}")


def _join_words(raw, count):
    if raw is None:
        return ("",) * count
    return tuple(".".join(w) for w in raw)


def _sample_exhaustive(system, depth, max_points, with_words=True):
    impl = _frontier.vector_state(system, 1, depth, points=True)
    if impl is not None:
        holder = {}

        def on_level(j, letters, state, words):
            if j == depth:
                holder["letters"] = letters
                holder["state"] = state
                holder["words"] = words

        on_level.needs_words = with_words
        _frontier.sweep(system, 1, depth, impl, on_level, budget=max_points)
        letters = holder["letters"]
        # one region per distinct domain space of the words' last letters
        groups = {}
        for a in np.unique(letters).tolist():
            dom = system.domain_space_idx(depth, a)
            groups.setdefault(dom.bounds, (dom, []))[1].append(a)
        coords = np.empty((letters.size, system.dim))
        radii = np.empty(letters.size)
        for dom, group in groups.values():
            # a lone domain takes the whole state without copying it
            mask = slice(None) if len(groups) == 1 else np.isin(letters, group)
            centers, r = impl.region(tuple(arr[mask] for arr in holder["state"]), dom)
            coords[mask] = np.stack(centers, axis=1)
            radii[mask] = r
        words = _join_words(holder["words"], letters.size)
        return PointCloud(coords, radii, words, depth)

    # generic fallback: region per word
    pts, radii, words = [], [], []
    for j, _, labels in walk_words(system.schedule, 1, depth):
        if j < depth:
            continue
        if len(pts) >= max_points:
            raise BudgetError(
                f"exhaustive sampling exceeds {max_points} points at"
                f" depth {depth}; lower the depth or raise the budget"
            )
        w = Word(1, labels)
        point, radius = _center_radius(image_region(w, system, check=False))
        pts.append(point)
        radii.append(radius)
        words.append(w.label())
    return PointCloud(np.array(pts), np.array(radii), tuple(words), depth)


def _one_random_word(system, depth, seed, index):
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    sched = system.schedule
    labels = []
    prev = None
    for j in range(1, depth + 1):
        cand = sched.kept_indices(1) if j == 1 else sched.followers(j - 1, prev)
        prev = int(cand[rng.integers(cand.size)])
        labels.append(sched.letters(j)[prev].label)
    return Word(1, tuple(labels))


def _sample_random(system, depth, max_points, seed):
    pts, radii, words = [], [], []
    for i in range(max_points):
        w = _one_random_word(system, depth, seed, i)
        # built from followers, so admissible without a re-check
        point, radius = _center_radius(image_region(w, system, check=False))
        pts.append(point)
        radii.append(radius)
        words.append(w.label())
    return PointCloud(np.array(pts), np.array(radii), tuple(words), depth, seed)


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxCountFit:
    slope: float
    stderr: float
    scales: tuple
    counts: tuple

    def as_dict(self):
        return {
            "slope": self.slope,
            "stderr": self.stderr,
            "scales": list(self.scales),
            "counts": list(self.counts),
        }


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
    lo_idx = np.floor((coords - radii[:, None]) / eps).astype(np.int64)
    hi_idx = np.floor((coords + radii[:, None]) / eps).astype(np.int64)
    extent = hi_idx - lo_idx + 1
    cells = extent.prod(axis=1)
    total = int(cells.sum())
    if total > budget:
        raise BudgetError(f"box enumeration at scale {eps} needs {total} cells")
    local = np.arange(total, dtype=np.int64)
    local -= np.repeat(np.cumsum(cells) - cells, cells)
    boxes = np.empty((total, coords.shape[1]), dtype=np.int64)
    for k in range(coords.shape[1]):
        radix = np.repeat(extent[:, k], cells)
        np.remainder(local, radix, out=boxes[:, k])
        boxes[:, k] += np.repeat(lo_idx[:, k], cells)
        local //= radix
    return int(np.unique(_flat_codes(boxes)).size)


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

    def rows(self):
        """CSV rows (word, root, lo/hi or cx/cy/r..., diam)."""
        for lbl, root, region in self.cells:
            yield (lbl, root) + tuple(region.bounds) + (region.diam,)


def level_cover(system, n: int, budget: int = 200_000) -> LevelCover:
    """All depth-n cells: the images of the admissible word prefixes."""
    if n > system.horizon:
        raise ConfigurationError(f"level {n} beyond horizon {system.horizon}")
    sched = system.schedule
    cells = []
    for j, idx, labels in walk_words(sched, 1, n):
        if j < n:
            continue
        if len(cells) >= budget:
            raise BudgetError(f"level cover at depth {n} exceeds {budget} cells")
        w = Word(1, labels)
        region = image_region(w, system, check=False)
        cells.append((w.label(), sched.letters(1)[idx[0]].src, region))
    return LevelCover(n, tuple(cells))


@dataclass(frozen=True)
class OscReport:
    level: int
    checked: int
    violations: tuple
    tol: float

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_osc(system, n: int, tol: float = 1e-12, budget: int = 200_000) -> OscReport:
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
                if overlap > tol:
                    violations.append((la, lb, overlap))
        else:
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    overlap = cells[i][1].interior_overlap(cells[j][1])
                    if overlap > tol:
                        violations.append((cells[i][0], cells[j][0], overlap))
    return OscReport(n, len(cover.cells), tuple(violations), tol)


# ---------------------------------------------------------------------------
# diameter diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiameterReport:
    d_lo: tuple
    d_hi: tuple
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

    def as_dict(self):
        return {
            "d_lo": list(self.d_lo),
            "d_hi": list(self.d_hi),
            "upper": self.upper_trend.as_dict(),
            "ratio": self.ratio_trend.as_dict(),
            "vertices": self.vertex_trend.as_dict(),
            "satisfied": self.satisfied,
        }


def diameter_diagnostics(system, horizon: Optional[int] = None) -> DiameterReport:
    """Space-diameter sequences with fitted rates for both diameter limits
    and for the vertex-count growth."""
    h = horizon or system.horizon
    d_lo, d_hi = [], []
    for n in range(0, h + 1):
        lo, hi = system.diam_bounds(n)
        d_lo.append(lo)
        d_hi.append(hi)
    ns = list(range(1, h + 1))
    upper = trend_report("diam_hi", ns, values=d_hi[1:])
    # second limit: y_n = (1/n) sup_{k >= 0} log(d_hi[k+n] / d_lo[k])
    ratio_vals = []
    for n in ns:
        sup = max(
            math.log(d_hi[k + n] / d_lo[k]) for k in range(0, h - n + 1)
        )
        ratio_vals.append(sup)
    ratio = trend_report("diam_ratio", ns, log_values=ratio_vals)
    nverts = [len(system.schedule.vertex_sets[n]) for n in ns]
    verts = trend_report("#V", ns, values=nverts)
    return DiameterReport(tuple(d_lo), tuple(d_hi), upper, ratio, verts)

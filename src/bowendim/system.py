"""The assembled system: schedule + spaces + map family per edge + constants.

Besides the per-letter maps, a system keeps one letter table: numpy columns,
time after time, of each letter's family, similarity ratio and offset or
Moebius matrix (a reciprocal shift's, or a folded digit block's), and
domain and codomain space indices.  Validation, the letter norm brackets,
the distortion constant, the vectorized frontier states and each range's map
family read these columns, so the images and norms of the two closed-form
families are computed for every time at once; user map types and disk
spaces keep the per-letter `image` and `norm_on`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Optional

import numpy as np

from . import maps as _maps
from .errors import BuildError, InputError
from .maps import (
    CONTAIN_TOL,
    MOEBIUS,
    OTHER,
    SIMILARITY,
    ConformalMap,
    Contraction,
    MoebiusInverse,
    Similarity,
    Space,
)
from .symbolic import GraphSchedule, _shared_rows


@dataclass(frozen=True)
class LetterTable:
    """Every letter of times 1..H as numpy columns, time after time and each
    time in alphabet order: letter idx of time n sits at start[n] + idx.

    `family` is SIMILARITY (a `Similarity` of the system's dim), MOEBIUS (a
    `MoebiusInverse`) or OTHER; `ratio` and `offset` (dim x letters) hold a
    SIMILARITY letter's ratio and offset, 0 elsewhere; `matrix` (4 x
    letters) a MOEBIUS letter's entries a, b, c, d, each its exact value
    rounded once, and (0, 1, 1, 1) elsewhere; `kept` the schedule's
    pruning mask and `time` each letter's time.  `dom` and `cod` index the
    letter's domain space (its terminal vertex, at time n) and codomain
    space (its initial vertex, at time n - 1) in the space columns
    `space_lo`, `space_hi` and `space_interval`, which list the spaces of
    times 0..H the same way from `space_start`; a disk has NaN bounds.
    """

    start: tuple
    time: np.ndarray
    family: np.ndarray
    ratio: np.ndarray
    offset: np.ndarray
    matrix: np.ndarray
    kept: np.ndarray
    dom: np.ndarray
    cod: np.ndarray
    space_start: tuple
    space_lo: np.ndarray
    space_hi: np.ndarray
    space_interval: np.ndarray

    def span(self, n: int) -> slice:
        """The positions of time n's letters."""
        return slice(self.start[n], self.start[n + 1])

    def locate(self, i: int):
        """(n, idx): the time and alphabet index of position i."""
        n = int(self.time[i])
        return n, i - self.start[n]


def _map_columns(maps, dim):
    """(family, ratio, offset, matrix) lists of one time's maps, as the
    letter table's columns take them (offset and matrix flat)."""
    blank, digit_one = (0.0,) * dim, (0.0, 1.0, 1.0, 1.0)
    family, ratio, offset, matrix = [], [], [], []
    for p in maps:
        kind = type(p)
        if kind is Similarity and p.dim == dim:
            family.append(SIMILARITY)
            ratio.append(p.ratio)
            offset += p.offset
            matrix += digit_one
            continue
        moebius = kind is MoebiusInverse
        family.append(MOEBIUS if moebius else OTHER)
        matrix += map(float, chain(*p.matrix)) if moebius else digit_one
        ratio.append(0.0)
        offset += blank
    return family, ratio, offset, matrix


def _letter_table(system) -> LetterTable:
    """The system's letters and spaces as columns, in one pass over each
    distinct row of maps (rows that repeat under a cycle rule are one)."""
    sched = system.schedule
    space_start = tuple(accumulate([0] + [len(row) for row in system.spaces]))
    spaces = [s for row in system.spaces for s in row]
    interval = [s.kind == "interval" for s in spaces]
    bounds = [s.bounds if iv else (np.nan, np.nan) for s, iv in zip(spaces, interval)]
    times = range(1, system.horizon + 1)
    family, ratio, offset, matrix = (
        list(chain.from_iterable(column))
        for column in zip(*_shared_rows(
            (system.maps[n] for n in times), lambda maps: _map_columns(maps, system.dim)
        ))
    )
    sizes = [0] + [len(sched.letters(n)) for n in times]
    space_lo, space_hi = np.array(bounds, dtype=float).reshape(-1, 2).T
    return LetterTable(
        start=tuple(accumulate([0] + sizes)),
        time=np.repeat(np.arange(system.horizon + 1), sizes),
        family=np.array(family, dtype=np.int8),
        ratio=np.array(ratio, dtype=float),
        offset=np.array(offset, dtype=float).reshape(-1, system.dim).T.copy(),
        matrix=np.array(matrix, dtype=float).reshape(-1, 4).T.copy(),
        kept=np.concatenate(sched.kept[1:]),
        dom=np.concatenate([space_start[n] + sched.dst_index[n] for n in times]),
        cod=np.concatenate([space_start[n - 1] + sched.src_index[n] for n in times]),
        space_start=space_start,
        space_lo=space_lo,
        space_hi=space_hi,
        space_interval=np.array(interval, dtype=bool),
    )


@dataclass(frozen=True)
class SystemSpec:
    """Immutable bundle of everything the numeric layers consume.

    `spaces[n]` is a tuple of Space aligned with vertex_sets[n] (n = 0..H);
    `maps[n]` a tuple of ConformalMap aligned with the alphabet at time n
    (index 0 is an empty placeholder), the public per-letter view.
    `letter_table` holds the same letters, and the spaces, as numpy columns
    (LetterTable), built in one pass over `maps` on first use.  `tail_rule`
    describes single-time partition convergence for infinite parametric
    families; finite systems leave it None.
    """

    schedule: GraphSchedule
    spaces: tuple
    maps: tuple
    dim: int = 1
    declared_distortion: Optional[float] = None
    tail_rule: object = None
    flags: frozenset = frozenset()
    provenance: str = ""
    notes: tuple = ()

    # -- accessors ----------------------------------------------------------
    @property
    def horizon(self) -> int:
        return self.schedule.horizon

    def space_for(self, n: int, vertex) -> Space:
        idx = self.schedule.vertex_index[n].get(vertex)
        if idx is None:
            raise InputError(f"unknown vertex {vertex!r} at time {n}")
        return self.spaces[n][idx]

    def map_for(self, n: int, label) -> ConformalMap:
        return self.maps[n][self.schedule.letter_index(n, label)]

    def domain_space_idx(self, n: int, idx: int) -> Space:
        return self.spaces[n][self.schedule.dst_index[n][idx]]

    def domain_space(self, n: int, label) -> Space:
        return self.domain_space_idx(n, self.schedule.letter_index(n, label))

    def codomain_space_idx(self, n: int, idx: int) -> Space:
        return self.spaces[n - 1][self.schedule.src_index[n][idx]]

    # -- the letter table ----------------------------------------------------
    @cached_property
    def letter_table(self) -> LetterTable:
        """Every letter and space as numpy columns (LetterTable)."""
        return _letter_table(self)

    @cached_property
    def _family_counts(self) -> np.ndarray:
        """(H + 1, 3) int array: row n counts time n's kept letters per
        family code (SIMILARITY, MOEBIUS, OTHER); row 0 is zero."""
        tab = self.letter_table
        codes = tab.time[tab.kept] * 3 + tab.family[tab.kept]
        return np.bincount(codes, minlength=3 * (self.horizon + 1)).reshape(-1, 3)

    @cached_property
    def _level_memo(self) -> dict:
        """One slot: (m, n) -> that range's t-independent level norms."""
        return {}

    # -- single-letter norm tables -------------------------------------------
    @cached_property
    def _letter_norms(self):
        """(lo, hi) single-map norm brackets over the letter-table positions,
        zero outside the kept letters.

        A similarity's bracket is |ratio| at both ends; a Moebius letter's
        on an interval [a, b] is 1/(c*a + d)**2 at both ends, taken in
        Python floats as `MoebiusInverse.norm_on` takes it; other letters
        call `norm_on` one at a time.
        """
        tab = self.letter_table
        sim = tab.kept & (tab.family == SIMILARITY)
        hi = np.where(sim, np.abs(tab.ratio), 0.0)
        lo = hi.copy()
        moeb = tab.kept & (tab.family == MOEBIUS) & tab.space_interval[tab.dom]
        idx = np.flatnonzero(moeb)
        _, _, c, d = tab.matrix[:, idx].tolist()
        lo[idx] = hi[idx] = [
            1.0 / (ci * a + di) ** 2
            for ci, di, a in zip(c, d, tab.space_lo[tab.dom[idx]].tolist())
        ]
        for i in np.flatnonzero(tab.kept & ~sim & ~moeb).tolist():
            n, k = tab.locate(i)
            br = self.maps[n][k].norm_on(self.domain_space_idx(n, k))
            lo[i], hi[i] = br.lo, br.hi
        return lo, hi

    @cached_property
    def letter_brackets(self):
        """Per time n: (lo, hi) float arrays of single-map norm brackets,
        aligned with the alphabet and zero outside the kept letters."""
        lo, hi = self._letter_norms
        spans = [self.letter_table.span(n) for n in range(1, self.horizon + 1)]
        return (None,) + tuple((lo[sp], hi[sp]) for sp in spans)

    def c_bounds(self, n: int):
        """(c_lo, c_hi): least and greatest single-letter norms at time n."""
        lo, hi = self.letter_brackets[n]
        keep = self.schedule.kept[n]
        return float(lo[keep].min()), float(hi[keep].max())

    def rho(self, n: int) -> float:
        c_lo, c_hi = self.c_bounds(n)
        return c_hi / c_lo

    def diam_bounds(self, n: int):
        ds = [s.diam for s in self.spaces[n]]
        return min(ds), max(ds)

    # -- derived constants ---------------------------------------------------
    @cached_property
    def distortion(self) -> float:
        return _maps.distortion_constant(self)

    @cached_property
    def contraction(self) -> Contraction:
        return _maps.contraction_eta(self)

    # -- structural classification -------------------------------------------
    @cached_property
    def is_ncifs(self) -> bool:
        """Single vertex per time and complete incidence at every step."""
        if any(len(vs) != 1 for vs in self.schedule.vertex_sets):
            return False
        return all(
            self.schedule.step_complete(n) for n in range(1, self.horizon)
        )

    @cached_property
    def is_stationary(self) -> bool:
        return all(self.spaces[n] == self.spaces[0] for n in range(1, self.horizon + 1))

    @cached_property
    def is_autonomous(self) -> bool:
        """Same alphabet, maps and incidence at every time (and stationary)."""
        if not self.is_stationary:
            return False
        first = self.schedule.alphabets[1]
        if any(self.schedule.alphabets[n] != first for n in range(2, self.horizon + 1)):
            return False
        if any(self.maps[n] != self.maps[1] for n in range(2, self.horizon + 1)):
            return False
        inc = self.schedule.incidence
        return all(inc[n].same_relation(inc[1]) for n in range(2, self.horizon))


def _closed_form_clears(system: SystemSpec) -> np.ndarray:
    """Mask over the letter-table positions: the letters whose image, in
    closed form, is a nondegenerate interval inside their codomain.

    Covers similarity (of dim 1) and Moebius letters between interval
    spaces, with `Similarity.image`'s and `MoebiusInverse.image`'s arithmetic
    (the latter's one-ulp widening included) and `Space.contains`'
    CONTAIN_TOL; every other letter is left to the per-letter check.
    """
    tab = system.letter_table
    x0, x1 = tab.space_lo[tab.dom], tab.space_hi[tab.dom]
    a, b, c, d = tab.matrix
    on_intervals = tab.space_interval[tab.dom] & tab.space_interval[tab.cod]
    sim = on_intervals & (tab.family == SIMILARITY) & (system.dim == 1)
    # image ends; NaN, which fails every comparison below, where no closed
    # form applies (overflow and NaN ends fall to the per-letter check too)
    lo, hi = np.full((2, tab.family.size), np.nan)
    with np.errstate(all="ignore"):
        moeb = on_intervals & (tab.family == MOEBIUS) & (c * x0 + d > 0)
        if sim.any():
            ends = tab.ratio * x0 + tab.offset[0], tab.ratio * x1 + tab.offset[0]
            np.copyto(lo, np.minimum(*ends), where=sim)
            np.copyto(hi, np.maximum(*ends), where=sim)
        if moeb.any():
            # monotone: the domain's ends map to the image's, in either order
            ends = (a * x0 + b) / (c * x0 + d), (a * x1 + b) / (c * x1 + d)
            left, right = np.minimum(*ends), np.maximum(*ends)
            sub_ulp = ~(left < right)
            np.copyto(lo, np.where(sub_ulp, np.nextafter(left, -np.inf), left), where=moeb)
            np.copyto(hi, np.where(sub_ulp, np.nextafter(right, np.inf), right), where=moeb)
        inside = (lo >= tab.space_lo[tab.cod] - CONTAIN_TOL) & (
            hi <= tab.space_hi[tab.cod] + CONTAIN_TOL
        )
    return (lo < hi) & inside


def _check_image(system: SystemSpec, n: int, idx: int) -> None:
    """Raise BuildError unless letter idx of time n maps its domain space
    onto a space inside its codomain space."""
    label = system.schedule.letters(n)[idx].label
    try:
        img = system.maps[n][idx].image(system.domain_space_idx(n, idx))
    except InputError as exc:
        raise BuildError(f"image of letter {label!r} at time {n} collapses: {exc}") from exc
    cod = system.codomain_space_idx(n, idx)
    if not cod.contains(img):
        raise BuildError(
            f"image of letter {label!r} at time {n} escapes its"
            f" codomain: {img.bounds} not within {cod.bounds}"
        )


def validate_images(system: SystemSpec) -> None:
    """Every single-letter image must land inside its codomain space.

    The letter table clears most letters at once; the rest, and every
    letter it flags, go through the per-letter check in time and alphabet
    order, so the first offending letter and its message are those of a
    letter-by-letter pass.
    """
    tab = system.letter_table
    for i in np.flatnonzero(tab.kept & ~_closed_form_clears(system)).tolist():
        _check_image(system, *tab.locate(i))


def validate_system(system: SystemSpec) -> SystemSpec:
    """Builder-side checks: image containment plus contraction certification."""
    validate_images(system)
    system.contraction  # raises CertificationError when nothing contracts
    return system

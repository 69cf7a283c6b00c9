"""The assembled system: schedule + spaces + map family per edge + constants."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import maps as _maps
from .errors import BuildError, InputError
from .maps import ConformalMap, Contraction, Space
from .symbolic import GraphSchedule


@dataclass(frozen=True)
class SystemSpec:
    """Immutable bundle of everything the numeric layers consume.

    `spaces[n]` is a tuple of Space aligned with vertex_sets[n] (n = 0..H);
    `maps[n]` a tuple of ConformalMap aligned with the alphabet at time n
    (index 0 is an empty placeholder).  `tail_rule` describes single-time
    partition convergence for infinite parametric families; finite systems
    leave it None.
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

    @cached_property
    def _vertex_index(self):
        return tuple(
            {v: i for i, v in enumerate(vs)} for vs in self.schedule.vertex_sets
        )

    def space_for(self, n: int, vertex) -> Space:
        idx = self._vertex_index[n].get(vertex)
        if idx is None:
            raise InputError(f"unknown vertex {vertex!r} at time {n}")
        return self.spaces[n][idx]

    def map_for(self, n: int, label) -> ConformalMap:
        return self.maps[n][self.schedule.letter_index(n, label)]

    def domain_space_idx(self, n: int, idx: int) -> Space:
        return self.space_for(n, self.schedule.letters(n)[idx].dst)

    def domain_space(self, n: int, label) -> Space:
        return self.domain_space_idx(n, self.schedule.letter_index(n, label))

    def codomain_space_idx(self, n: int, idx: int) -> Space:
        return self.space_for(n - 1, self.schedule.letters(n)[idx].src)

    @cached_property
    def _map_types(self) -> tuple:
        """Per time n, the frozenset of map types of the kept letters."""
        return tuple(
            frozenset(type(self.maps[n][idx]) for idx in self.schedule.kept_indices(n))
            if n else frozenset()
            for n in range(self.horizon + 1)
        )

    @cached_property
    def _level_memo(self) -> dict:
        """One slot: (m, n) -> that range's t-independent level norms."""
        return {}

    # -- single-letter norm tables -------------------------------------------
    @cached_property
    def letter_brackets(self):
        """Per time n: (lo, hi) float arrays of single-map norm brackets."""
        out = [None]
        for n in range(1, self.horizon + 1):
            lo = np.zeros(len(self.schedule.letters(n)))
            hi = np.zeros_like(lo)
            for idx in self.schedule.kept_indices(n):
                br = self.maps[n][idx].norm_on(self.domain_space_idx(n, idx))
                lo[idx], hi[idx] = br.lo, br.hi
            out.append((lo, hi))
        return tuple(out)

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
        for n in range(2, self.horizon):
            a = self.schedule.incidence[1].matrix()
            b = self.schedule.incidence[n].matrix()
            if a.shape != b.shape or not np.array_equal(a, b):
                return False
        return True


def validate_images(system: SystemSpec) -> None:
    """Every single-letter image must land inside its codomain space."""
    sched = system.schedule
    for n in range(1, system.horizon + 1):
        for idx in sched.kept_indices(n):
            dom = system.domain_space_idx(n, idx)
            img = system.maps[n][idx].image(dom)
            cod = system.codomain_space_idx(n, idx)
            if not cod.contains(img):
                e = sched.letters(n)[idx]
                raise BuildError(
                    f"image of letter {e.label!r} at time {n} escapes its"
                    f" codomain: {img.bounds} not within {cod.bounds}"
                )


def validate_system(system: SystemSpec) -> SystemSpec:
    """Builder-side checks: image containment plus contraction certification."""
    validate_images(system)
    system.contraction  # raises CertificationError when nothing contracts
    return system

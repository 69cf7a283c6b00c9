"""Conformal map families with certified derivative-norm brackets.

Three families cover the bundled systems: affine similarities (exact norms),
reciprocal shifts x -> 1/(digit + x) on [0, 1] (exact norms through the
continuant recursion of the composed Moebius transform), and tabulated
monotone interval maps carrying user-certified derivative bounds per cell.
Brackets are exact expressions evaluated in float64; no outward rounding
(only the frontier's digit levels past 2^53 carry a stated error bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificationError, InputError, UnsupportedError
from .symbolic import Word, is_admissible, walk_words


@dataclass(frozen=True)
class NormBracket:
    """Certified lo <= sup |D phi| <= hi over the word's domain."""

    lo: float
    hi: float
    method: str  # exact | continuant | interval

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi):
            raise InputError(f"invalid bracket [{self.lo}, {self.hi}]")

    @property
    def exact(self) -> bool:
        return self.lo == self.hi


#: slack at the boundary of `Space.contains`
CONTAIN_TOL = 1e-12


@dataclass(frozen=True)
class Space:
    """Compact space attached to a (vertex, time) pair.

    kind "interval": bounds = (lo, hi); kind "disk": bounds = (cx, cy, r).
    `enlargement` records the factor of the concentric conformality domain W
    (1.5 keeps diam(W) <= 2 diam(X)).  `declared` may carry user-asserted
    cone/covering constants for planar model systems.  Nothing numeric
    consumes either, and intervals satisfy those conditions trivially.
    """

    kind: str
    bounds: tuple
    enlargement: float = 1.5
    declared: tuple = ()

    def __post_init__(self):
        if self.kind == "interval":
            lo, hi = self.bounds
            if not lo < hi:
                raise InputError(f"degenerate interval {self.bounds}")
        elif self.kind == "disk":
            if self.bounds[2] <= 0:
                raise InputError(f"degenerate disk {self.bounds}")
        else:
            raise InputError(f"unknown space kind {self.kind!r}")

    @property
    def diam(self) -> float:
        if self.kind == "interval":
            return self.bounds[1] - self.bounds[0]
        return 2.0 * self.bounds[2]

    def contains(self, other: "Space") -> bool:
        """`other` lies inside this space, up to CONTAIN_TOL at the boundary."""
        tol = CONTAIN_TOL
        if self.kind != other.kind:
            return False
        if self.kind == "interval":
            return (
                other.bounds[0] >= self.bounds[0] - tol
                and other.bounds[1] <= self.bounds[1] + tol
            )
        cx, cy, r = self.bounds
        ox, oy, orr = other.bounds
        return math.hypot(ox - cx, oy - cy) + orr <= r + tol

    def interior_overlap(self, other: "Space") -> float:
        """Positive overlap measure of interiors (length / radial excess)."""
        if self.kind == "interval":
            return min(self.bounds[1], other.bounds[1]) - max(
                self.bounds[0], other.bounds[0]
            )
        cx, cy, r = self.bounds
        ox, oy, orr = other.bounds
        return (r + orr) - math.hypot(ox - cx, oy - cy)


def interval(lo, hi) -> Space:
    return Space("interval", (float(lo), float(hi)))


def disk(cx, cy, r) -> Space:
    return Space("disk", (float(cx), float(cy), float(r)))


# ---------------------------------------------------------------------------
# map families
# ---------------------------------------------------------------------------


class ConformalMap:
    dim = 1

    def __call__(self, x):
        raise NotImplementedError

    def deriv_abs(self, x) -> float:
        raise NotImplementedError

    def image(self, dom: Space) -> Space:
        raise NotImplementedError

    def deriv_range_on(self, dom: Space):
        """(inf, sup) bounds of |D phi| over dom."""
        raise NotImplementedError

    def norm_on(self, dom: Space) -> NormBracket:
        lo, hi = self.deriv_range_on(dom)
        return NormBracket(hi, hi, "exact")


@dataclass(frozen=True)
class Similarity(ConformalMap):
    """x -> ratio*x + offset (1D) or z -> ratio*z + offset (2D model systems)."""

    ratio: float
    offset: tuple
    dim: int = 1

    def __post_init__(self):
        off = self.offset if isinstance(self.offset, tuple) else (float(self.offset),)
        object.__setattr__(self, "offset", tuple(float(o) for o in off))
        if len(self.offset) != self.dim:
            raise InputError(f"offset {self.offset} does not match dim {self.dim}")

    def __call__(self, x):
        if self.dim == 1:
            return self.ratio * x + self.offset[0]
        return (self.ratio * x[0] + self.offset[0], self.ratio * x[1] + self.offset[1])

    def deriv_abs(self, x) -> float:
        return abs(self.ratio)

    def image(self, dom: Space) -> Space:
        if dom.kind == "interval":
            a = self(dom.bounds[0])
            b = self(dom.bounds[1])
            return interval(min(a, b), max(a, b))
        cx, cy, r = dom.bounds
        nx, ny = self((cx, cy))
        return disk(nx, ny, abs(self.ratio) * r)

    def deriv_range_on(self, dom):
        r = abs(self.ratio)
        return (r, r)


@dataclass(frozen=True)
class MoebiusInverse(ConformalMap):
    """x -> 1/(digit + x) on [0, 1]; the continued-fraction branch map."""

    digit: float

    def __post_init__(self):
        # past 2^52 the branch maps [0, 1] into less than one float64 ulp
        if not 1 <= self.digit <= 2.0**52:
            raise InputError(f"digit must lie in [1, 2^52], got {self.digit}")

    def __call__(self, x):
        return 1.0 / (self.digit + x)

    def deriv_abs(self, x) -> float:
        return 1.0 / (self.digit + x) ** 2

    def image(self, dom: Space) -> Space:
        a = self(dom.bounds[1])  # decreasing map: endpoints swap
        b = self(dom.bounds[0])
        if not a < b:
            # a sub-ulp image rounds both endpoints to one float: widen by an
            # ulp on each side instead of returning an empty interval
            a, b = math.nextafter(a, -math.inf), math.nextafter(b, math.inf)
        return interval(a, b)

    def deriv_range_on(self, dom):
        lo, hi = dom.bounds
        return (self.deriv_abs(hi), self.deriv_abs(lo))


@dataclass(frozen=True)
class TabulatedInterval(ConformalMap):
    """Monotone C^1 interval map given by node values plus certified
    per-cell derivative bounds; evaluation returns enclosure midpoints."""

    nodes: tuple
    values: tuple
    deriv_lo: tuple
    deriv_hi: tuple
    distortion: Optional[float] = None

    def __post_init__(self):
        n = len(self.nodes)
        if n < 2 or len(self.values) != n:
            raise InputError("need matching nodes/values with >= 2 nodes")
        if len(self.deriv_lo) != n - 1 or len(self.deriv_hi) != n - 1:
            raise InputError("derivative bounds must cover each cell")
        dx = [self.nodes[i + 1] - self.nodes[i] for i in range(n - 1)]
        if any(d <= 0 for d in dx):
            raise InputError("nodes must be strictly increasing")
        inc = self.values[-1] > self.values[0]
        for i in range(n - 1):
            dv = self.values[i + 1] - self.values[i]
            if inc and dv <= 0 or not inc and dv >= 0:
                raise InputError("values must be strictly monotone")
            if not (0 <= self.deriv_lo[i] <= self.deriv_hi[i]):
                raise InputError("invalid derivative bounds")
            mean = abs(dv) / dx[i]
            if not (self.deriv_lo[i] - 1e-12 <= mean <= self.deriv_hi[i] + 1e-12):
                raise InputError(
                    f"cell {i}: mean slope {mean} escapes "
                    f"[{self.deriv_lo[i]}, {self.deriv_hi[i]}]"
                )

    @property
    def increasing(self) -> bool:
        return self.values[-1] > self.values[0]

    def _cell(self, x) -> int:
        for i in range(len(self.nodes) - 2, -1, -1):
            if x >= self.nodes[i]:
                return i
        return 0

    def enclosure(self, x):
        """Certified (lo, hi) interval containing phi(x)."""
        i = self._cell(x)
        x0, x1 = self.nodes[i], self.nodes[i + 1]
        y0, y1 = self.values[i], self.values[i + 1]
        dlo, dhi = self.deriv_lo[i], self.deriv_hi[i]
        if self.increasing:
            lo = max(y0 + dlo * (x - x0), y1 - dhi * (x1 - x))
            hi = min(y0 + dhi * (x - x0), y1 - dlo * (x1 - x))
        else:
            lo = max(y0 - dhi * (x - x0), y1 + dlo * (x1 - x))
            hi = min(y0 - dlo * (x - x0), y1 + dhi * (x1 - x))
        return (min(lo, hi), max(lo, hi))

    def __call__(self, x):
        lo, hi = self.enclosure(x)
        return 0.5 * (lo + hi)

    def deriv_abs(self, x) -> float:
        i = self._cell(x)
        return 0.5 * (self.deriv_lo[i] + self.deriv_hi[i])

    def image(self, dom: Space) -> Space:
        lo_enc = self.enclosure(dom.bounds[0])
        hi_enc = self.enclosure(dom.bounds[1])
        a = min(lo_enc[0], hi_enc[0])
        b = max(lo_enc[1], hi_enc[1])
        return interval(a, b)

    def deriv_range_on(self, dom):
        lo, hi = dom.bounds
        dlo, dhi = math.inf, 0.0
        for i in range(len(self.nodes) - 1):
            if self.nodes[i + 1] <= lo or self.nodes[i] >= hi:
                continue
            dlo = min(dlo, self.deriv_lo[i])
            dhi = max(dhi, self.deriv_hi[i])
        if dhi == 0.0:
            raise InputError(f"domain {dom.bounds} outside tabulated range")
        return (dlo, dhi)

    def norm_on(self, dom: Space) -> NormBracket:
        lo, hi = self.deriv_range_on(dom)
        return NormBracket(lo, hi, "interval")


@dataclass(frozen=True)
class ComposedMap(ConformalMap):
    """Frozen composition used as a single letter after re-blocking."""

    parts: tuple  # applied right to left: parts[0] is the outermost map

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(_flatten_maps(self.parts)))
        dims = {getattr(p, "dim", 1) for p in self.parts}
        if len(dims) != 1:
            raise InputError("mixed dimensions in composition")
        object.__setattr__(self, "dim", dims.pop())

    def __call__(self, x):
        for p in reversed(self.parts):
            x = p(x)
        return x

    def deriv_abs(self, x) -> float:
        acc = 1.0
        for p in reversed(self.parts):
            acc *= p.deriv_abs(x)
            x = p(x)
        return acc

    def image(self, dom: Space) -> Space:
        for p in reversed(self.parts):
            dom = p.image(dom)
        return dom

    def deriv_range_on(self, dom):
        br = _compose_bracket(self.parts, dom)
        return (br.lo, br.hi)

    def norm_on(self, dom: Space) -> NormBracket:
        return _compose_bracket(self.parts, dom)


#: family codes of `system.LetterTable.family`: the two families whose images
#: and norms have closed forms, and every other map type
SIMILARITY, MOEBIUS, OTHER = 0, 1, 2


# ---------------------------------------------------------------------------
# composition norms
# ---------------------------------------------------------------------------


def continuants(digits):
    """(q_prev, q_cur) for the composed Moebius map of a digit string.

    phi maps x to (p_prev*x + p_cur) / (q_prev*x + q_cur); the sup of |D phi|
    on [0, 1] is 1/q_cur^2, the inf 1/(q_prev + q_cur)^2.  Integer digits run
    in exact arithmetic.
    """
    exact = all(float(d) == int(d) for d in digits)
    qp, qc = (0, 1) if exact else (0.0, 1.0)
    for d in digits:
        d = int(d) if exact else float(d)
        qp, qc = qc, d * qc + qp
    return qp, qc


def _flatten_maps(maps_seq):
    flat = []
    for p in maps_seq:
        if isinstance(p, ComposedMap):
            flat.extend(p.parts)
        else:
            flat.append(p)
    return flat


def _continuant_sup(qc) -> float:
    """The sup norm 1/q_cur^2 of a composed reciprocal shift on [0, 1]; 0.0
    (below 2^-1024) once q_cur passes 2^512, where the float square would
    overflow."""
    return 1.0 / float(qc) ** 2 if qc < 2.0**512 else 0.0


def _compose_bracket(maps_seq, dom: Space) -> NormBracket:
    """Certified bracket for a composition, dispatching on family."""
    maps_seq = _flatten_maps(maps_seq)
    if all(isinstance(p, Similarity) for p in maps_seq):
        v = 1.0
        for p in maps_seq:
            v *= abs(p.ratio)
        return NormBracket(v, v, "exact")
    if all(isinstance(p, MoebiusInverse) for p in maps_seq):
        _, qc = continuants([p.digit for p in maps_seq])
        sup = _continuant_sup(qc)
        return NormBracket(sup, sup or 2.0**-1024, "continuant")
    # generic chain: accumulate pointwise bounds right to left; the product of
    # infima lower-bounds the sup as well
    lo = hi = 1.0
    region = dom
    for p in reversed(list(maps_seq)):
        dlo, dhi = p.deriv_range_on(region)
        lo *= dlo
        hi *= dhi
        region = p.image(region)
    return NormBracket(lo, hi, "interval")


def _word_maps(word: Word, system):
    return [
        system.map_for(word.start + k, lbl) for k, lbl in enumerate(word.letters)
    ]


def compose_norm(word: Word, system, check: bool = True) -> NormBracket:
    """Certified bracket on the sup derivative norm of phi_word."""
    if check and not is_admissible(word, system.schedule):
        raise InputError(f"word {word} is not admissible")
    dom = system.domain_space(word.end, word.letters[-1])
    return _compose_bracket(_word_maps(word, system), dom)


def image_region(word: Word, system, check: bool = True) -> Space:
    """Image of the word's domain space: exact endpoints for monotone 1D maps,
    certified enclosure for tabulated ones."""
    if check and not is_admissible(word, system.schedule):
        raise InputError(f"word {word} is not admissible")
    region = system.domain_space(word.end, word.letters[-1])
    for p in reversed(_word_maps(word, system)):
        region = p.image(region)
    return region


def _map_distortion(p) -> float:
    if isinstance(p, Similarity):
        return 1.0
    if isinstance(p, MoebiusInverse):
        # sup/inf ratio of any composed branch is ((q_prev+q_cur)/q_cur)^2 <= 4
        return 4.0
    if isinstance(p, TabulatedInterval):
        if p.distortion is not None:
            return p.distortion
        raise CertificationError(
            "tabulated map without a declared distortion constant"
        )
    if isinstance(p, ComposedMap):
        return max(_map_distortion(q) for q in p.parts)
    raise UnsupportedError(f"no distortion rule for {type(p).__name__}")


def distortion_constant(system) -> float:
    """Certified bound K with |D phi_w(x)| <= K |D phi_w(y)| along any branch."""
    if system.declared_distortion is not None:
        return float(system.declared_distortion)
    tab = system.letter_table
    # similarities give 1, the floor already
    k = 4.0 if (tab.family[tab.kept] == MOEBIUS).any() else 1.0
    for i in np.flatnonzero(tab.kept & (tab.family == OTHER)).tolist():
        n, idx = tab.locate(i)
        k = max(k, _map_distortion(system.maps[n][idx]))
    return k


@dataclass(frozen=True)
class Contraction:
    """Uniform contraction certificate: every admissible `block` — letter
    window has sup norm <= eta_block < 1; eta_step is the per-step rate."""

    block: int
    eta_block: float
    eta_step: float
    singles_max: float


def contraction_eta(system, m_max: int = 8, budget: int = 200_000) -> Contraction:
    """Smallest block length m <= m_max whose admissible m-windows all contract.

    Windows of two reciprocal shifts take their worst norm in closed form
    (`_moebius_pairs`); every other window is walked and composed, at
    most `budget` of them.  Rejects the system (CertificationError) when
    even length-m_max blocks reach norm >= 1.
    """
    sched = system.schedule
    # the letters' hi brackets are zero outside the kept letters
    his = [hi for _, hi in system.letter_brackets[1:]]
    singles_max = float(np.concatenate(his).max())
    if singles_max < 1.0:
        return Contraction(1, singles_max, singles_max, singles_max)

    closed, closed_worst = _moebius_pairs(system)
    counter = [0]
    for m in range(2, m_max + 1):
        if sched.horizon < m:
            break  # no window of length m exists; nothing to certify
        worst = closed_worst if m == 2 else 0.0
        for j in range(1, sched.horizon - m + 2):
            if m == 2 and j in closed:
                continue
            worst = max(worst, _worst_window(system, j, m, budget, counter))
        if worst < 1.0:
            return Contraction(m, worst, worst ** (1.0 / m), singles_max)
    raise CertificationError(
        f"no contracting block length <= {m_max}; system rejected"
    )


def _moebius_pairs(system):
    """(starts, worst): the window starts j whose two times keep only
    reciprocal shifts, and the largest sup norm over their admissible
    2-letter windows (0.0 when there are none).

    The window (a, b) composes to continuant q = d_a*d_b + 1, so the worst
    window has the least digit product over kept allowed pairs, and its norm
    is the one `_compose_bracket` gives.  A float product below 2^53 equals
    the exact integer one and the float recursion alike; starts whose least
    product reaches 2^53 are left out, for the walk.
    """
    tab = system.letter_table
    sched = system.schedule
    # moebius[n]: time n keeps only reciprocal shifts; time 0 and the pad
    # past the horizon have no letters
    moebius = np.ones(sched.horizon + 2, dtype=bool)
    moebius[tab.time[tab.kept & (tab.family != MOEBIUS)]] = False
    moebius[[0, -1]] = False
    starts = np.flatnonzero(moebius[:-1] & moebius[1:]).tolist()
    # per letter of each start time, its least follower digit
    least = np.full(tab.time.size, np.inf)
    for j in starts:
        least[tab.span(j)] = sched.incidence[j].follower_min(
            sched.kept[j + 1], tab.digit[tab.span(j + 1)]
        )
    least_prod = np.full(sched.horizon + 1, np.inf)
    np.minimum.at(least_prod, tab.time, np.where(tab.kept, tab.digit * least, np.inf))
    closed = [j for j in starts if least_prod[j] < 2.0**53]
    worst = _continuant_sup(least_prod[closed].min() + 1.0) if closed else 0.0
    return set(closed), worst


def _worst_window(system, j, m, budget, counter):
    """Max sup-norm bracket hi over admissible m-letter windows starting at j."""
    worst = 0.0
    end = j + m - 1
    for t, _, labels in walk_words(system.schedule, j, end):
        if t < end:
            continue
        counter[0] += 1
        if counter[0] > budget:
            raise CertificationError(f"contraction search exceeded {budget} windows")
        worst = max(worst, compose_norm(Word(j, labels), system, check=False).hi)
    return worst

"""Conformal map families with certified derivative-norm brackets.

Two families, both with closed-form images and norms, cover the bundled
systems and their block subsystems: affine similarities (exact norms) and
reciprocal shifts x -> 1/(digit + x) on [0, 1], each held as its exact
matrix ((0, 1), (1, digit)).  A block of digits folds into one Moebius
letter, the product of its digits' matrices, whose norm is 1/q^2 for the
continuant q of its bottom row.  Only compositions that mix the two
families, or hold a user `ConformalMap` subclass, compose pointwise bounds
letter by letter.  Brackets are exact expressions evaluated in float64; no
outward rounding (only the frontier's digit levels past 2^53 carry a stated
error bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CertificationError, InputError, UnsupportedError
from .symbolic import Word, count_words, is_admissible


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


@dataclass(frozen=True, init=False, repr=False)
class MoebiusInverse(ConformalMap):
    """x -> (a*x + b) / (c*x + d) on [0, 1] for the exact matrix ((a, b),
    (c, d)) of a digit string, the product of its digits' ((0, 1), (1, d)):
    `MoebiusInverse(digit)` is the branch x -> 1/(digit + x), and `fold`
    composes a block.  Entries are nonnegative, a <= b and c <= d, and k
    digits give determinant (-1)^k (even blocks increase); |D phi| =
    1/(c*x + d)^2."""

    matrix: tuple

    def __init__(self, digit: float):
        # past 2^52 the branch maps [0, 1] into less than one float64 ulp
        if not 1 <= digit <= 2.0**52:
            raise InputError(f"digit must lie in [1, 2^52], got {digit}")
        object.__setattr__(self, "matrix", ((0, 1), (1, digit)))

    @classmethod
    def fold(cls, parts):
        """parts[0] o parts[1] o ... as one map: the exact product of their
        matrices (ints, or Fractions for non-integral digits)."""
        matrix = _product(p.matrix for p in parts)
        q = matrix[1][1]
        # the letter table holds each entry as a float64, and 1/q^2 stays normal
        if not q < 2.0**512:
            raise InputError("a block's continuant passes 2^512")
        folded = object.__new__(cls)
        object.__setattr__(folded, "matrix", matrix)
        return folded

    @property
    def digit(self):
        """The digit of a single branch; None for a folded block."""
        (a, _), (_, d) = self.matrix
        return d if a == 0 else None

    def __repr__(self):
        if self.digit is None:
            return f"MoebiusInverse(matrix={self.matrix!r})"
        return f"MoebiusInverse(digit={self.digit!r})"

    def __call__(self, x):
        (a, b), (c, d) = self.matrix
        return (a * x + b) / (c * x + d)

    def deriv_abs(self, x) -> float:
        _, (c, d) = self.matrix
        return 1.0 / (c * x + d) ** 2

    def image(self, dom: Space) -> Space:
        _, (c, d) = self.matrix
        lo, hi = dom.bounds
        if not c * lo + d > 0:
            raise InputError(f"domain {dom.bounds} reaches the pole at {-d / c}")
        a, b = sorted((self(lo), self(hi)))  # monotone: the ends map to the ends
        if not a < b:
            # a sub-ulp image rounds both endpoints to one float: widen by an
            # ulp on each side instead of returning an empty interval
            a, b = math.nextafter(a, -math.inf), math.nextafter(b, math.inf)
        return interval(a, b)

    def deriv_range_on(self, dom):
        lo, hi = dom.bounds
        return (self.deriv_abs(hi), self.deriv_abs(lo))


#: family codes of `system.LetterTable.family`: the two families whose images
#: and norms have closed forms, and every other map type
SIMILARITY, MOEBIUS, OTHER = 0, 1, 2


# ---------------------------------------------------------------------------
# composition norms
# ---------------------------------------------------------------------------


def _exact(x):
    """x as an int when it is integral, else as an exact Fraction."""
    return int(x) if x == int(x) else Fraction(x)


def _product(matrices):
    """The exact product of 2x2 matrices ((a, b), (c, d)): ints, or
    Fractions once an entry is not integral."""
    a, b, c, d = 1, 0, 0, 1
    for (e, f), (g, h) in matrices:
        e, f, g, h = _exact(e), _exact(f), _exact(g), _exact(h)
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return (a, b), (c, d)


def continuants(digits):
    """(q_prev, q_cur) for the composed Moebius map of a digit string: the
    bottom row of the product of the digits' matrices ((0, 1), (1, d)).

    phi maps x to (p_prev*x + p_cur) / (q_prev*x + q_cur); the sup of |D phi|
    on [0, 1] is 1/q_cur^2, the inf 1/(q_prev + q_cur)^2.  The arithmetic is
    exact: ints, or Fractions for non-integral digits.
    """
    return _product(((0, 1), (1, d)) for d in digits)[1]


def _continuant_sup(qc) -> float:
    """The sup norm 1/q_cur^2 of a composed reciprocal shift on [0, 1]; 0.0
    (below 2^-1024) once q_cur passes 2^512, where the float square would
    overflow."""
    return 1.0 / float(qc) ** 2 if qc < 2.0**512 else 0.0


def _compose_bracket(maps_seq, dom: Space) -> NormBracket:
    """Certified bracket for a composition, dispatching on family."""
    if all(isinstance(p, Similarity) for p in maps_seq):
        v = 1.0
        for p in maps_seq:
            v *= abs(p.ratio)
        return NormBracket(v, v, "exact")
    if all(isinstance(p, MoebiusInverse) for p in maps_seq):
        _, (_, qc) = _product(p.matrix for p in maps_seq)
        sup = _continuant_sup(qc)
        return NormBracket(sup, sup or 2.0**-1024, "continuant")
    # generic chain (mixed families, user map types): accumulate pointwise
    # bounds right to left; the product of infima lower-bounds the sup as well
    lo = hi = 1.0
    region = dom
    for p in reversed(maps_seq):
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
    """Image of the word's domain space, one letter's image after another."""
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

    Windows of two single digits take their worst norm in closed form
    (`_moebius_pairs`); every other window is listed by the frontier sweep
    and composed, at most `budget` of them (counted exactly before any is
    composed).  Rejects the system (CertificationError) when even
    length-m_max blocks reach norm >= 1.
    """
    sched = system.schedule
    # the letters' hi brackets are zero outside the kept letters
    his = [hi for _, hi in system.letter_brackets[1:]]
    singles_max = float(np.concatenate(his).max())
    if singles_max < 1.0:
        return Contraction(1, singles_max, singles_max, singles_max)

    closed, closed_worst = _moebius_pairs(system)
    windows = 0
    for m in range(2, m_max + 1):
        if sched.horizon < m:
            break  # no window of length m exists; nothing to certify
        starts = [
            j for j in range(1, sched.horizon - m + 2) if m > 2 or j not in closed
        ]
        windows += sum(count_words(j, j + m - 1, sched) for j in starts)
        if windows > budget:
            raise CertificationError(f"contraction search exceeded {budget} windows")
        worst = max(
            [closed_worst if m == 2 else 0.0]
            + [_worst_window(system, j, m) for j in starts]
        )
        if worst < 1.0:
            return Contraction(m, worst, worst ** (1.0 / m), singles_max)
    raise CertificationError(
        f"no contracting block length <= {m_max}; system rejected"
    )


def _moebius_pairs(system):
    """(starts, worst): the window starts j whose two times keep only single
    digits, and the largest sup norm over their admissible 2-letter windows
    (0.0 when there are none).

    The window (a, b) composes to continuant q = d_a*d_b + 1, so the worst
    window has the least digit product over kept allowed pairs, and its norm
    is the one `_compose_bracket` gives.  Rounding is monotone, so every pair
    of least exact product has the least float product too: those pairs are
    multiplied exactly and the least taken.  Starts whose least product
    reaches 2^53, and those with a folded block, are left out, for the walk.
    """
    tab = system.letter_table
    sched = system.schedule
    a, _, _, digit = tab.matrix
    single = (tab.family == MOEBIUS) & (a == 0)
    # singles[n]: time n keeps only single digits; time 0 and the pad past
    # the horizon have no letters
    singles = np.ones(sched.horizon + 2, dtype=bool)
    singles[tab.time[tab.kept & ~single]] = False
    singles[[0, -1]] = False
    starts = np.flatnonzero(singles[:-1] & singles[1:]).tolist()
    # per letter of each start time, its least follower digit
    least = np.full(tab.time.size, np.inf)
    for j in starts:
        least[tab.span(j)] = sched.incidence[j].follower_min(
            sched.kept[j + 1], digit[tab.span(j + 1)]
        )
    prod = np.where(tab.kept, digit * least, np.inf)
    closed = {j for j in starts if prod[tab.span(j)].min() < 2.0**53}
    if not closed:
        return closed, 0.0
    # the least product lies at a closed start: the others reach 2^53
    ties = np.flatnonzero(prod == prod.min()).tolist()
    q = min(_exact(digit[i]) * _exact(least[i]) for i in ties) + 1
    return closed, _continuant_sup(q)


def _worst_window(system, j, m):
    """Max sup-norm bracket hi over admissible m-letter windows starting at j."""
    from . import _frontier  # _frontier imports this module

    _, labels = _frontier.word_levels(system, j, j + m - 1)
    return max(compose_norm(Word(j, w), system, check=False).hi for w in labels)

"""Builders for the bundled system families and subsystem constructions.

Every builder makes the letters, maps and spaces of its system and hands
them to `_assemble`, which expands the incidence spec ("full", "identity",
one 0/1 array, or a list of those per step), builds the schedule and
validates the system; the one-vertex (iterated-function) builders go
through `_one_vertex`.  Covers plain similarity schedules, continued
fraction digit schedules, general multigraph schedules, ascending families
with their autonomous closures, the two re-blocking constructions (uniform
blocks from a primitivity certificate, and blocks cut at single-vertex
pinch times), the block subsystem selected by partition-maximizing endpoint
pairs, and the planar model family whose letter norms follow the
inverse-branch decay law near poles of a doubly periodic map.  The three
block constructions share one block builder, `_block_system`, which makes
each block word one letter, its maps folded into one closed-form map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Optional, Sequence

import numpy as np

from . import _frontier, symbolic, thermo
from .errors import (
    BudgetError,
    BuildError,
    CertificationError,
    ConfigurationError,
    InputError,
)
from .maps import (
    ConformalMap,
    MoebiusInverse,
    Similarity,
    compose_norm,
    disk,
    interval,
)
from .symbolic import (
    FullIncidence,
    DenseIncidence,
    GraphSchedule,
    Letter,
    PrimitivityCertificate,
    Word,
    certify_primitivity,
    find_primitivity,  # not called here; the bench tracer patches this name
    _shared_rows,
)
from .system import SystemSpec, validate_system
from .thermo import PSeriesTail


# ---------------------------------------------------------------------------
# the assembler every builder goes through
# ---------------------------------------------------------------------------


def _incidences(matrices, alphabets):
    """Step incidences between consecutive alphabets (times 1..H).

    `matrices` is "full", "identity" (same-label successor only), one 0/1
    matrix reused at every step (an array or a list of rows of numbers), or
    a list of those, one per step.
    """
    steps = len(alphabets) - 1
    # a list of rows of numbers is one matrix; other lists hold one per step
    one = not isinstance(matrices, (list, tuple)) or np.ndim(matrices[:1]) == 2
    per_step = [matrices] * steps if one else list(matrices)
    if len(per_step) != steps:
        raise BuildError(f"need {steps} incidence steps, got {len(per_step)}")

    def incidence(step):
        cur, nxt, spec = step
        if isinstance(spec, str):
            if spec == "full":
                return FullIncidence()
            if spec != "identity":
                raise BuildError(f"unknown incidence rule {spec!r}")
            spec = [[a.label == b.label for b in nxt] for a in cur]
        return DenseIncidence(np.asarray(spec, dtype=bool))

    # steps that reuse one spec on one pair of alphabets share one incidence,
    # which the schedule then binds once
    return _shared_rows(
        zip(alphabets, alphabets[1:], per_step),
        incidence,
        key=lambda step: tuple(map(id, step)),
    )


def _assemble(vertex_sets, alphabets, maps, spaces, matrices="full", **fields):
    """The validated system of a vertex schedule (times 0..H), letter and map
    rows (times 1..H), space rows (times 0..H) and an incidence spec;
    `fields` are the remaining SystemSpec fields."""
    schedule = GraphSchedule(
        vertex_sets, [()] + list(alphabets), _incidences(matrices, alphabets)
    )
    system = SystemSpec(
        schedule=schedule,
        spaces=tuple(_shared_rows(spaces, tuple)),
        maps=((),) + tuple(_shared_rows(maps, tuple)),
        **fields,
    )
    return validate_system(system)


def _one_vertex(labels, maps, space, matrices="full", **fields):
    """The one-vertex case: every letter a loop at "v" on the same space;
    a label row that repeats (one object at several times) gives one row of
    letters."""
    horizon = len(labels)
    # letters are immutable: one object per label serves every time
    pool = {lbl: Letter(lbl, "v", "v") for lbl in set(chain.from_iterable(labels))}
    return _assemble(
        [("v",)] * (horizon + 1),
        _shared_rows(labels, lambda row: tuple(pool[lbl] for lbl in row)),
        maps,
        [(space,)] * (horizon + 1),
        matrices,
        **fields,
    )


# ---------------------------------------------------------------------------
# similarity, continued-fraction and multigraph builders
# ---------------------------------------------------------------------------


def build_similarity_system(
    ratios_schedule: Sequence[Sequence[float]],
    offsets: Sequence[Sequence],
    matrices="full",
    provenance: str = "similarity schedule",
) -> SystemSpec:
    """Single-vertex system of affine contractions x -> r x + o on [0, 1],
    one list of ratios and one of offsets per time step.

    `matrices` is "full", "identity", a per-step list of those/0-1 arrays, or
    a single explicit array reused at every step.
    """
    if len(offsets) != len(ratios_schedule):
        raise BuildError("ratios and offsets schedules differ in length")
    pool = {}

    def similarity(r, o):
        # one map per distinct letter; -0.0 == 0.0, so zeros are not shared
        r, o = float(r), float(o)
        if not (r and o):
            return Similarity(r, (o,))
        found = pool.get((r, o))
        if found is None:
            found = pool[r, o] = Similarity(r, (o,))
        return found

    # one row of maps per distinct pair of rows, one of labels per row length
    maps = _shared_rows(
        zip(ratios_schedule, offsets),
        lambda rows: tuple(similarity(r, o) for r, o in zip(*rows)),
        key=lambda rows: tuple(map(id, rows)),
    )
    labels = _shared_rows(
        ratios_schedule, lambda row: tuple(f"m{k}" for k in range(len(row))), key=len
    )
    return _one_vertex(
        labels, maps, interval(0.0, 1.0), matrices, provenance=provenance
    )


def build_cf_system(
    digit_schedule: Sequence[Sequence[float]],
    matrix_rule="full",
    provenance: str = "continued-fraction digits",
    tail_rule=None,
) -> SystemSpec:
    """Reciprocal-shift maps x -> 1/(b + x) on [0, 1], one digit set per time."""
    for n, digits in enumerate(digit_schedule, start=1):
        if any(b < 1 for b in digits):
            raise BuildError(f"digit < 1 at time {n}; branches would expand")
    return _one_vertex(
        _shared_rows(digit_schedule, lambda digits: tuple(str(b) for b in digits)),
        _shared_rows(
            digit_schedule, lambda digits: tuple(MoebiusInverse(float(b)) for b in digits)
        ),
        interval(0.0, 1.0),
        matrix_rule,
        tail_rule=tail_rule,
        provenance=provenance,
    )


@dataclass(frozen=True)
class EdgeSpec:
    label: str
    src: str
    dst: str
    map: ConformalMap


def build_gdms(
    vertex_schedule: Sequence[Sequence[str]],
    edge_schedule: Sequence[Sequence[EdgeSpec]],
    spaces: Mapping,
    matrices="full",
    provenance: str = "graph directed schedule",
) -> SystemSpec:
    """General multi-vertex builder.

    `vertex_schedule[n]` lists V_n for n = 0..horizon; `edge_schedule[n-1]`
    the letters of time n, an edge row that repeats (one object at several
    times) giving one row of letters and of maps; `spaces[(n, v)]` the
    compact space of vertex v at time n; "full" incidence means every
    composable pair.
    """
    horizon = len(edge_schedule)
    if len(vertex_schedule) != horizon + 1:
        raise BuildError("vertex schedule must cover times 0..horizon")

    def space_row(n):
        row = []
        for v in vertex_schedule[n]:
            s = spaces.get((n, v)) or spaces.get(v)
            if s is None:
                raise BuildError(f"no space declared for vertex {v!r} at time {n}")
            row.append(s)
        return row

    # one space row per distinct vertex row, except at times with (n, v) keys
    timed = {key[0] for key in spaces if isinstance(key, tuple)}
    return _assemble(
        vertex_schedule,
        _shared_rows(
            edge_schedule, lambda edges: tuple(Letter(e.label, e.src, e.dst) for e in edges)
        ),
        _shared_rows(edge_schedule, lambda edges: tuple(e.map for e in edges)),
        _shared_rows(
            range(horizon + 1),
            space_row,
            key=lambda n: (n,) if n in timed else id(vertex_schedule[n]),
        ),
        matrices,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# ascending systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AscendingSpec:
    """Nested alphabets over one master map family on [0, 1], with complete
    incidence.

    include[n-1] lists the labels active at time n; nesting, map agreement
    and incidence agreement across times then hold by construction.
    `infinite_family` marks truncations of an unbounded family.
    """

    base_maps: Mapping
    include: Sequence[Sequence[str]]
    infinite_family: bool = False
    tail_rule: object = None

    def validate(self):
        prev = None
        for n, labels in enumerate(self.include, start=1):
            cur = list(labels)
            if len(set(cur)) != len(cur):
                raise BuildError(f"duplicate labels at time {n}")
            for lbl in cur:
                if lbl not in self.base_maps:
                    raise BuildError(f"label {lbl!r} at time {n} not in base family")
            if prev is not None and not set(prev) <= set(cur):
                raise BuildError(
                    f"alphabet at time {n} does not contain time {n - 1};"
                    " nesting violated"
                )
            prev = cur


def build_ascending(spec: AscendingSpec) -> SystemSpec:
    spec.validate()
    return _one_vertex(
        spec.include,
        _shared_rows(
            spec.include, lambda labels: tuple(spec.base_maps[lbl] for lbl in labels)
        ),
        interval(0.0, 1.0),
        tail_rule=spec.tail_rule,
        flags=frozenset({"ascending"}),
        provenance="ascending family",
    )


def autonomous_closure(spec: AscendingSpec) -> SystemSpec:
    """The time-independent system on the union alphabet, over the spec's
    horizon.

    Materialized alphabets are nested, so the union is the last include list;
    truncations of unbounded families carry an explicit tail note.
    """
    spec.validate()
    union = list(spec.include[-1])
    h = len(spec.include)
    return _one_vertex(
        [union] * h,
        [[spec.base_maps[lbl] for lbl in union]] * h,
        interval(0.0, 1.0),
        tail_rule=spec.tail_rule,
        flags=frozenset({"closure"}),
        provenance="autonomous closure of ascending family",
        notes=(
            ("union alphabet truncated; dimension approaches the closure from"
             " below as the truncation grows",)
            if spec.infinite_family
            else ()
        ),
    )


# ---------------------------------------------------------------------------
# re-blocking constructions
# ---------------------------------------------------------------------------


def _compose_letter(label, maps_seq):
    """Single map for the block word `label`: a similarity block folds into
    one `Similarity`, a reciprocal-shift block into one `MoebiusInverse`;
    any other block, or a reciprocal-shift block whose continuant passes
    2^512, raises BuildError."""
    if all(isinstance(p, Similarity) for p in maps_seq):
        dim = maps_seq[0].dim
        ratio = 1.0
        for p in maps_seq:
            ratio *= p.ratio
        # offset of the affine fold phi_1 o ... o phi_k, outermost first
        off = list(maps_seq[-1].offset)
        for p in reversed(maps_seq[:-1]):
            off = [p.ratio * o + po for o, po in zip(off, p.offset)]
        return Similarity(ratio, tuple(off) if dim > 1 else (off[0],), dim=dim)
    if all(isinstance(p, MoebiusInverse) for p in maps_seq):
        try:
            return MoebiusInverse.fold(maps_seq)
        except InputError as err:  # a continuant past 2^512
            raise BuildError(f"block {label!r}: {err}") from None
    kinds = ", ".join(sorted({type(p).__name__ for p in maps_seq}))
    raise BuildError(
        f"block {label!r} holds {kinds}; only a block of similarities or of"
        " reciprocal shifts folds into one map"
    )


def _block_words(system, start, length):
    """Letter indices of the admissible words covering times
    start..start+length-1, one row per word in lexicographic order."""
    return _frontier.word_levels(system, start, start + length - 1)[0]


def _block_system(system, cuts, rows, vertex_sets, spaces, matrices="full", **fields):
    """The system whose time-n letters are block n's words: `rows[n - 1]`
    holds them as rows of letter indices over times cuts[n - 1] + 1 ..
    cuts[n].  Each word becomes one letter, labelled by its joined labels,
    from its first letter's source to its last letter's target, with the
    composition of its letters' maps folded into one map of the same closed
    form family (`_compose_letter`): a similarity, or a Moebius letter whose
    matrix is the product of its digits'; `fields` go to `_assemble` beside
    the system's dim and declared distortion."""
    alphabets, maps = [], []
    for lo, hi, block in zip(cuts, cuts[1:], rows):
        letters = system.schedule.alphabets[lo + 1 : hi + 1]
        parts = system.maps[lo + 1 : hi + 1]
        alphabet, row = [], []
        for idx in np.asarray(block).tolist():
            label = ".".join(letters[k][a].label for k, a in enumerate(idx))
            alphabet.append(Letter(label, letters[0][idx[0]].src, letters[-1][idx[-1]].dst))
            row.append(_compose_letter(label, [parts[k][a] for k, a in enumerate(idx)]))
        alphabets.append(alphabet)
        maps.append(row)
    return _assemble(
        vertex_sets, alphabets, maps, spaces, matrices,
        dim=system.dim, declared_distortion=system.declared_distortion, **fields,
    )


def reblock_one_primitive(system: SystemSpec, cert: PrimitivityCertificate) -> SystemSpec:
    """Uniform blocks of length p: alphabets become block words, incidence the
    final original step; primitivity collapses to connector length one.

    The horizon truncates to the largest whole number of blocks (recorded in
    the result notes).
    """
    if cert.p < 1:
        raise InputError("re-blocking needs a certificate with p >= 1")
    p = cert.p
    sched = system.schedule
    blocks = sched.horizon // p
    if blocks < 2:
        raise ConfigurationError(
            f"horizon {sched.horizon} holds fewer than two blocks of length {p}"
        )
    dropped = sched.horizon - blocks * p
    for n in range(1, blocks + 1):  # each block alphabet becomes a dense matrix side
        size = symbolic.count_words((n - 1) * p + 1, n * p, sched)
        if size > symbolic.DENSE_LETTER_CAP:
            raise BudgetError(
                f"block {n} holds {size} words of length {p}, past the"
                f" {symbolic.DENSE_LETTER_CAP}-letter cap on dense incidence"
            )
    cuts = range(0, blocks * p + 1, p)
    rows = [_block_words(system, c + 1, p) for c in cuts[:-1]]
    # block a may precede block b iff a's last letter may precede b's first
    incidence = [
        sched.incidence[c].matrix()[np.ix_(a[:, -1], b[:, 0])]
        for c, a, b in zip(cuts[1:], rows, rows[1:])
    ]
    out = _block_system(
        system, cuts, rows,
        [sched.vertex_sets[c] for c in cuts],
        [system.spaces[c] for c in cuts],
        incidence,
        tail_rule=system.tail_rule,
        flags=system.flags | frozenset({"reblocked"}),
        provenance=f"{system.provenance} [blocks of {p}]",
        notes=system.notes
        + ((f"dropped {dropped} trailing times short of a full block",) if dropped else ()),
    )
    if certify_primitivity(out.schedule, 1) is None and out.schedule.horizon >= 3:
        raise CertificationError(
            "re-blocked system failed the connector check at length one"
        )
    return out


#: largest fitted tail exponent of (l_n^2 - l_(n-1)^2)/n in n over the pinch
#: times l_n; the exponent, unlike a slope, is the same for every spacing c
#: of l_n = c n
PINCH_SLOPE_CAP = 0.5


def reblock_pinched(system: SystemSpec, pinch_times: Sequence[int]) -> SystemSpec:
    """Blocks cut at pinch times: each pinch must be a single-vertex time with
    complete incidence into the next alphabet, and the pinch spacing must pass
    the PINCH_SLOPE_CAP growth test.  Emits an iterated-function schedule
    whose level-n partition equals the original at time pinch_n, checked at
    t = 1/2 for the first four blocks."""
    sched = system.schedule
    ells = [int(x) for x in pinch_times]
    if not ells or ells[0] < 1 or any(b <= a for a, b in zip(ells, ells[1:])):
        raise InputError(
            "pinch times must be nonempty, at least 1 and strictly increasing"
        )
    if ells[-1] > sched.horizon:
        raise ConfigurationError(
            f"pinch time {ells[-1]} beyond horizon {sched.horizon}"
        )
    for j in ells:
        if len(sched.vertex_sets[j]) != 1:
            raise BuildError(
                f"pinch time {j} has {len(sched.vertex_sets[j])} vertices;"
                " the construction needs a singleton"
            )
        if j < sched.horizon and not sched.step_complete(j):
            raise BuildError(
                f"incidence out of pinch time {j} is not complete; every"
                " letter must follow every letter there"
            )
    cuts = [0] + ells
    vals = [(b**2 - a**2) / n for n, (a, b) in enumerate(zip(cuts, ells), start=1)]
    if len(vals) >= 3:
        from .trend import fit_line

        # the exponent s of (l_n^2 - l_(n-1)^2)/n ~ n^s, fitted on the tail
        half = len(vals) // 2
        ns = np.arange(half + 1, len(vals) + 1)
        slope, _, _ = fit_line(np.log(ns), np.log(vals[half:]))
        if slope > PINCH_SLOPE_CAP:
            raise BuildError(
                "pinch spacing grows too fast: fitted log-log slope of"
                f" (l_n^2 - l_(n-1)^2)/n against n is {slope:.3g}"
                f" > {PINCH_SLOPE_CAP};"
                " the subexponential re-blocking hypothesis fails"
            )
    out = _block_system(
        system, cuts,
        [_block_words(system, lo + 1, hi - lo) for lo, hi in zip(cuts, ells)],
        [sched.vertex_sets[c] for c in cuts],
        [system.spaces[c] for c in cuts],
        flags=system.flags | frozenset({"pinched"}),
        provenance=f"{system.provenance} [pinched at {ells}]",
    )
    for n in range(1, min(len(ells), 4) + 1):
        orig = thermo.partition(system, 1, ells[n - 1], 0.5)
        blocked = thermo.partition(out, 1, n, 0.5)
        if not math.isclose(orig.hi, blocked.hi, rel_tol=1e-12):
            raise BuildError(
                f"partition identity failed at block {n}:"
                f" {orig.hi} != {blocked.hi}"
            )
    return out


# ---------------------------------------------------------------------------
# block subsystem with maximizing endpoint pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSubsystem:
    system: SystemSpec
    ell: int
    p: int
    t: float
    pairs: tuple  # ((a*, b*) labels per block)
    connectors: tuple
    sandwich_constant: float
    blocks: int


def extract_subsystem_g_bounded(
    system: SystemSpec,
    cert: PrimitivityCertificate,
    ell: int,
    t: float,
    provenance: str = "",
) -> BlockSubsystem:
    """Iterated-function subsystem from partition-maximizing block endpoints.

    Per block, keeps the words with the (first, last)-letter pair maximizing
    the restricted partition sum at exponent t; ties break to the
    lexicographically smallest pair.  Each block's words end with the
    lexicographically first length-p connector from its last letter to the
    next block's first, which `cert` guarantees exists.  Records the
    pressure-sandwich constant K^2 M^p / Q^t, with Q the least norm of the
    inserted connectors (cert.Q when p = 0).
    """
    thermo._check_t(system, t)
    p = cert.p
    if ell <= p:
        raise InputError(f"block length must exceed p (got ell={ell}, p={p})")
    sched = system.schedule
    span = ell + p
    if p >= 1:
        blocks = (sched.horizon - 1) // span
    else:
        blocks = sched.horizon // span
    if blocks < 1:
        raise ConfigurationError(
            f"horizon {sched.horizon} too short for one block of span {span}"
        )

    rows, pairs = [], []
    for n in range(1, blocks + 1):
        start = (n - 1) * span + 1
        words = _block_words(system, start, ell).tolist()
        names = [[e.label for e in sched.letters(start + k)] for k in range(ell)]
        keys, sums = [], {}
        for idx in words:
            labels = tuple(names[k][a] for k, a in enumerate(idx))
            keys.append((labels[0], labels[-1]))
            sums.setdefault(keys[-1], []).append(
                compose_norm(Word(start, labels), system, check=False).hi ** t
            )
        best_key = None
        best_val = -1.0
        for key in sorted(sums):
            val = math.fsum(sums[key])
            if val > best_val + 1e-15:
                best_key, best_val = key, val
        pairs.append(best_key)
        rows.append([idx for idx, key in zip(words, keys) if key == best_key])

    # connectors: block n ends with letter b*_n at time m = n*ell + (n-1)*p;
    # its connector is the lexicographically first word m+1..m+p that
    # follows b*_n and precedes the next block's first letter
    connectors = []
    for n in range(1, blocks + 1):
        if p == 0:
            break
        m = n * ell + (n - 1) * p
        b_star = pairs[n - 1][1]
        if n < blocks:
            target = pairs[n][0]
        else:
            # final block: connect to the smallest kept letter one step past
            target = min(
                sched.letters(m + p + 1)[i].label
                for i in sched.kept_indices(m + p + 1)
            )
        words, labels = _frontier.word_levels(system, m + 1, m + p)
        after = sched.followers(m, sched.letter_index(m, b_star))
        goal = np.zeros(len(sched.letters(m + p + 1)), dtype=bool)
        goal[sched.letter_index(m + p + 1, target)] = True
        before = sched.incidence[m + p].count_followers(goal) > 0
        joins = np.isin(words[:, 0], after) & before[words[:, -1]]
        if not joins.any():
            raise CertificationError(
                f"no connector for pair ({b_star}, {target}) at time {m}"
            )
        first = int(np.argmax(joins))
        connectors.append(Word(m + 1, labels[first]))
        rows[n - 1] = [idx + words[first].tolist() for idx in rows[n - 1]]

    # one vertex per block boundary, the one the blocks' words meet at
    cuts = range(0, blocks * span + 1, span)
    vertex_sets = [(sched.letters(1)[rows[0][0][0]].src,)] + [
        (sched.letters(c)[block[0][-1]].dst,) for c, block in zip(cuts[1:], rows)
    ]
    sub = _block_system(
        system, cuts, rows, vertex_sets,
        [(system.space_for(c, v),) for c, (v,) in zip(cuts, vertex_sets)],
        flags=frozenset({"block-subsystem"}),
        provenance=provenance or f"{system.provenance} [blocks ell={ell}, p={p}]",
    )

    k = system.distortion
    m_const = 0.0
    for j in range(1, sched.horizon + 1):
        lo, hi = system.letter_brackets[j]
        m_const = max(m_const, math.fsum(hi[sched.kept[j]] ** t))
    # the block letters are w.lam_n, so only the inserted connectors enter
    q = min(
        (compose_norm(w, system, check=False).lo for w in connectors), default=cert.Q
    )
    sandwich = (k**2) * (m_const**p) / (q**t)
    return BlockSubsystem(
        system=sub,
        ell=ell,
        p=p,
        t=t,
        pairs=tuple(pairs),
        connectors=tuple(connectors),
        sandwich_constant=sandwich,
        blocks=blocks,
    )


# ---------------------------------------------------------------------------
# planar pole-decay model (inverse branches near poles)
# ---------------------------------------------------------------------------


def gaussian_lattice_poles(r_min: float = 3.0, r_max: float = 10.0):
    """Moduli |b| of unit-lattice points in the annulus r_min <= |b| <= r_max,
    sorted; a scan over the default word budget raises BudgetError first."""
    cap = int(math.ceil(r_max)) + 1
    if (2 * cap + 1) ** 2 > _frontier.DEFAULT_BUDGET:
        raise BudgetError(
            f"a lattice of radius {r_max:g} scans more points than the budget"
            f" of {_frontier.DEFAULT_BUDGET}"
        )
    sq = np.arange(-cap, cap + 1, dtype=float) ** 2
    mods = np.sqrt(sq[:, None] + sq[None, :]).ravel()  # exact sums, one rounding
    return np.sort(mods[(r_min <= mods) & (mods <= r_max) & (mods > 0)])


@dataclass(frozen=True)
class PoleSelection:
    t: float
    feasible: bool
    n_t: Optional[int]
    partial_sum: float
    target: float
    reason: str = ""


@dataclass(frozen=True)
class EllipticModelReport:
    q: int
    threshold: float
    comparability: float
    norm_const: float
    selections: tuple
    growth_checks: tuple  # (t, ((n, Z_n, 2**n), ...), ok)
    system: Optional[SystemSpec]


# Slack of the numpy screen in `_first_fit`: far above the few-ulp gaps
# between numpy's and math's cos, sin and hypot on the unit disk.
_SCREEN_SLACK = 1e-9
# Scan points screened together: whole rings, at least this many a block.
_SCREEN_BLOCK = 256


def _pack_disks(radii):
    """Greedy centers for disjoint disks inside the unit disk.

    Each disk, largest first, takes the first point of a scan over rings
    `step` apart, with points about `step` apart on each ring, where it stays
    inside the unit disk and clear of the disks already placed.  The scan is
    screened in blocks of whole rings, each block's points made once, when
    the first disk reaches it.
    """
    step = max(min(radii) / 2.0, 1e-3)
    blocks, block = [], []  # rings as far as the smallest disk scans
    rad = 0.0
    while rad + min(radii) <= 1.0 + 1e-12:
        block.append((rad, max(1, int(math.ceil(2 * math.pi * max(rad, step) / step)))))
        rad += step
        if sum(k_max for _, k_max in block) >= _SCREEN_BLOCK:
            blocks.append(block)
            block = []
    if block:
        blocks.append(block)
    points = [None] * len(blocks)
    placed = []
    centers = [None] * len(radii)
    for idx in np.argsort(-np.asarray(radii)):
        r = radii[idx]
        center = None
        for b, block in enumerate(blocks):
            if block[0][0] + r > 1.0 + 1e-12:
                break
            if points[b] is None:
                points[b] = _scan_points(block)
            center = _first_fit(points[b], r, placed)
            if center is not None:
                break
        if center is None:
            raise BuildError(
                "could not pack the model images disjointly; shrink the norm"
                " constant or the pole set"
            )
        placed.append((*center, r))
        centers[idx] = center
    return centers


def _scan_points(rings):
    """(rad, k, k_max, x, y) arrays of the scan points of `rings`, in order."""
    rad, k, k_max = np.array(
        [(rad, k, k_max) for rad, k_max in rings for k in range(k_max)]
    ).T
    ang = 2 * math.pi * k / k_max
    return rad, k, k_max, rad * np.cos(ang), rad * np.sin(ang)


def _first_fit(points, r, placed):
    """The first scan point where a disk of radius r fits, or None.

    numpy screens the points against the placed disks with `_SCREEN_SLACK`,
    so every point that fits passes the screen; the `math` test then decides
    among those in scan order, so the point found is the one a point-by-point
    `math` scan finds.
    """
    rad, k, k_max, sx, sy = points
    fits = (rad + r <= 1.0 + 1e-12) & (np.hypot(sx, sy) + r <= 1.0 + _SCREEN_SLACK)
    if placed:
        px, py, pr = np.array(placed).T
        gaps = np.hypot(sx[:, None] - px, sy[:, None] - py) - (r + pr)
        fits &= (gaps >= -_SCREEN_SLACK).all(axis=1)
    for i in np.flatnonzero(fits).tolist():
        ang = 2 * math.pi * int(k[i]) / int(k_max[i])
        x, y = float(rad[i]) * math.cos(ang), float(rad[i]) * math.sin(ang)
        if math.hypot(x, y) + r <= 1.0 and all(
            math.hypot(x - qx, y - qy) >= r + qr for qx, qy, qr in placed
        ):
            return x, y
    return None


def elliptic_lower_bound(
    q: int,
    pole_norm_samples=None,
    comparability_K: float = 1.0,
    Q_const: float = 1.0,
    t_grid: Sequence[float] = (1.0, 1.2),
    n_check: int = 5,
    horizon: int = 6,
    build: bool = True,
) -> EllipticModelReport:
    """Dimension lower-bound machinery for affine perturbations near poles.

    The decay law |D phi_b| ~ Q_const * |b|^-((q+1)/q) makes the single-time
    sums comparable to sum |b|^(-t (q+1)/q) over a planar lattice, which
    converges exactly when t exceeds 2q/(q+1).  For each sub-threshold t the
    smallest pole set whose partial sum reaches 2 K^2 is recorded (N_t), and
    the instantiated model's partition values are checked against 2^n.
    """
    if q < 1:
        raise InputError("pole multiplicity q must be >= 1")
    # negated comparisons, so that NaN fails them too
    if not Q_const > 0:
        raise InputError(f"norm constant Q_const must be > 0, got {Q_const}")
    if not comparability_K >= 1:
        raise InputError(
            f"comparability_K is a distortion constant, so >= 1; got {comparability_K}"
        )
    if not all(t > 0 for t in t_grid):
        raise InputError(f"every t in t_grid must be > 0, got {tuple(t_grid)}")
    if build and n_check > horizon:
        raise InputError(f"growth checks to n={n_check} pass horizon {horizon}")
    threshold = 2 * q / (q + 1)
    if pole_norm_samples is None:
        pole_norm_samples = gaussian_lattice_poles()
    mods = np.sort(np.asarray(pole_norm_samples, dtype=float))
    if mods.size and mods[0] <= 0:
        raise InputError("pole moduli must be positive")
    expo = (q + 1) / q
    target = 2.0 * comparability_K * comparability_K  # inf, not OverflowError

    selections = []
    growth_checks = []
    model = None
    for t in t_grid:
        if t >= threshold:
            selections.append(
                PoleSelection(
                    t, False, None, 0.0, target,
                    f"t >= divergence threshold {threshold:.6g}; the lattice"
                    " sum diverges there and no finite certificate is needed",
                )
            )
            continue
        terms = mods ** (-t * expo)
        csum = np.cumsum(terms)
        hit = np.flatnonzero(csum >= target)
        if hit.size == 0:
            selections.append(
                PoleSelection(
                    t, False, None, float(csum[-1]) if csum.size else 0.0,
                    target, "declared lattice region too small",
                )
            )
            continue
        n_t = int(hit[0]) + 1
        selections.append(PoleSelection(t, True, n_t, float(csum[n_t - 1]), target))
        if not build:
            continue
        chosen = mods[:n_t]
        ratios = Q_const * chosen ** (-expo)
        if ratios.max() >= 1.0:
            raise BuildError(
                f"norm constant {Q_const} breaks contraction at |b|={chosen[0]}"
            )
        centers = _pack_disks(list(ratios))
        row = [
            Similarity(float(r), (cx, cy), dim=2)
            for r, (cx, cy) in zip(ratios, centers)
        ]
        model = _one_vertex(
            [[f"b{k}" for k in range(n_t)]] * horizon,
            [row] * horizon,
            disk(0.0, 0.0, 1.0),
            dim=2,
            declared_distortion=comparability_K,
            tail_rule=PSeriesTail(expo, lattice_dim=2),
            provenance=f"pole-decay model q={q}, t={t}",
        )
        checks = []
        ok = True
        for n in range(1, n_check + 1):
            z = thermo.partition(model, 1, n, t).value
            good = z >= 2.0**n
            ok = ok and good
            checks.append((n, z, 2.0**n))
        growth_checks.append((t, tuple(checks), ok))
    return EllipticModelReport(
        q=q,
        threshold=threshold,
        comparability=comparability_K,
        norm_const=Q_const,
        selections=tuple(selections),
        growth_checks=tuple(growth_checks),
        system=model,
    )

"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own fast paths: derivative norms come
from dense-grid chain-rule evaluation, admissibility from a brute-force path
search over the raw (unpruned) schedule, and word counts from explicit
incidence matrix powers.  The dense-incidence references are the original
per-column and per-row loops and int64 matrix products.  The letter-table
references (`per_letter_*`) ask each map object in turn for its norm,
image, type and distortion, as the system did before it kept its letters
as numpy columns.  `grouped_sweep` is the frontier expansion as it was before
the follower tables: one scan of the frontier per distinct letter, with that
letter's followers read from its row of the kept step matrix.
`traced_words` labels a sample's words as the sampler did before it
extended each word's label from its parent's: by tracing every final word's
letters back through the levels and joining them.
`walked_contraction` certifies the contraction block as `contraction_eta`
did before its closed form for reciprocal-shift windows: every admissible
window listed by a depth-first search over each letter's followers, and
composed.  `schedule_words` runs `brute_words` on a schedule's raw alphabets
and unpruned incidence matrices.
"""

import numpy as np


def dense_grid_norm(maps_seq, domain, n_grid=100_000):
    """Max of |D(phi_1 o ... o phi_k)| on a grid via the chain rule.

    Uses each map's pointwise exact derivative, never the composed bracket.
    """
    xs = np.linspace(domain[0], domain[1], n_grid)
    acc = np.ones_like(xs)
    cur = xs
    for p in reversed(list(maps_seq)):
        acc = acc * np.array([p.deriv_abs(float(x)) for x in cur])
        cur = np.array([p(float(x)) for x in cur])
    return float(acc.max())


def dense_grid_norm_fast(maps_seq, domain, n_grid=1_000_000):
    """Vectorized variant for similarity / reciprocal-shift chains."""
    xs = np.linspace(domain[0], domain[1], n_grid)
    acc = np.ones_like(xs)
    cur = xs
    for p in reversed(list(maps_seq)):
        name = type(p).__name__
        if name == "Similarity":
            acc = acc * abs(p.ratio)
            cur = p.ratio * cur + p.offset[0]
        elif name == "MoebiusInverse":
            acc = acc / (p.digit + cur) ** 2
            cur = 1.0 / (p.digit + cur)
        else:
            raise TypeError(name)
    return float(acc.max())


def cf_value(digits, x=0.0):
    """Direct evaluation of [0; d_1, ..., d_k + x] by backward folding."""
    val = x
    for d in reversed(list(digits)):
        val = 1.0 / (d + val)
    return val


def brute_words(alphabet_labels, incidence_fn, m, n, horizon):
    """All admissible words m..n that extend forward to the horizon and are
    reachable from time 1, by exhaustive search over raw letter tuples.

    `alphabet_labels[j]` lists labels at time j (1-based); `incidence_fn(j, a,
    b)` answers whether label b at j+1 may follow label a at j.
    """

    def extends_forward(j, lbl):
        if j == horizon:
            return True
        return any(
            incidence_fn(j, lbl, nxt) and extends_forward(j + 1, nxt)
            for nxt in alphabet_labels[j + 1]
        )

    def reachable(j, lbl):
        if j == 1:
            return True
        return any(
            incidence_fn(j - 1, prev, lbl) and reachable(j - 1, prev)
            for prev in alphabet_labels[j - 1]
        )

    out = []

    def rec(j, word):
        if j > n:
            out.append(tuple(word))
            return
        for lbl in alphabet_labels[j]:
            if word and not incidence_fn(j - 1, word[-1], lbl):
                continue
            if not (reachable(j, lbl) and extends_forward(j, lbl)):
                continue
            word.append(lbl)
            rec(j + 1, word)
            word.pop()

    rec(m, [])
    return out


def schedule_words(schedule, m, n):
    """`brute_words` over a schedule's raw alphabets and unpruned incidence
    matrices: the admissible words m..n as label tuples, in letter order."""
    horizon = schedule.horizon
    labels = [None] + [
        [e.label for e in schedule.letters(j)] for j in range(1, horizon + 1)
    ]
    index = [None] + [{lbl: i for i, lbl in enumerate(ls)} for ls in labels[1:]]
    mats = [None] + [schedule.incidence[j].matrix() for j in range(1, horizon)]

    def incidence_fn(j, a, b):
        return bool(mats[j][index[j][a], index[j + 1][b]])

    return brute_words(labels, incidence_fn, m, n, horizon)


def matrix_power_count(mats, start_counts):
    """Total path count through explicit 0/1 matrices (exact ints)."""
    vec = [int(c) for c in start_counts]
    for m in mats:
        m = np.asarray(m, dtype=np.int64)
        vec = list(np.asarray(vec, dtype=object) @ m)
    return int(sum(vec))


def loop_transfer(mat, u, w_nxt, keep_nxt):
    """u'_b = w_b * sum_{a -> b} u_a, one numpy sum per kept column."""
    out = np.empty(mat.shape[1], dtype=float)
    for b in range(mat.shape[1]):
        out[b] = u[mat[:, b]].sum() if keep_nxt[b] else 0.0
    return out * np.where(keep_nxt, w_nxt, 0.0)


def loop_count_transfer(mat, counts_nxt):
    """c_a = sum of counts_nxt[b] over the ones of row a, in Python ints."""
    return [
        sum(counts_nxt[b] for b in np.flatnonzero(mat[a]))
        for a in range(mat.shape[0])
    ]


def grouped_sweep(schedule, m, n, draws=None):
    """[(letters, src)] per level m..n, grouping the frontier letter by letter.

    Exhaustive: each distinct letter a in ascending order repeats its
    positions once per follower and tiles its followers once per position.
    With `draws` (rows of uniforms, one per word), word i keeps its position
    and takes follower floor(u * k) of its k.
    """
    letters = schedule.kept_indices(m)
    if draws is not None:
        letters = letters[(draws[:, 0] * letters.size).astype(np.intp)]
    levels = [(letters, None)]
    for j in range(m, n):
        step = schedule.step_matrix(j)
        groups = []
        for a in np.unique(letters).tolist():
            fl = np.flatnonzero(step[a])
            if fl.size:
                groups.append((np.flatnonzero(letters == a), fl))
        if draws is None:
            src = np.concatenate([np.repeat(pos, fl.size) for pos, fl in groups])
            letters = np.concatenate([np.tile(fl, pos.size) for pos, fl in groups])
        else:
            u = draws[:, j - m + 1]
            src = np.arange(letters.size)
            letters = np.empty_like(letters)
            for pos, fl in groups:
                letters[pos] = fl[(u[pos] * fl.size).astype(np.intp)]
        levels.append((letters, src))
    return levels


def traced_words(schedule, levels):
    """Dot-joined labels of the last level's words, from `levels` as
    `grouped_sweep` gives them from time 1: each word's letters traced back
    through the parent positions, time by time, then joined."""
    columns, pos = [], None
    for j in range(len(levels), 0, -1):
        letters, src = levels[j - 1]
        labels = [e.label for e in schedule.letters(j)]
        picked = letters if pos is None else letters[pos]
        columns.append([labels[a] for a in picked.tolist()])
        if src is not None:
            pos = src if pos is None else src[pos]
    return tuple(map(".".join, zip(*columns[::-1])))


def int64_products_positive(schedule, p):
    """Every p-step product of kept step matrices positive, in int64."""
    for n in range(1, schedule.horizon - p + 1):
        prod = schedule.step_matrix(n).astype(np.int64)
        for j in range(n + 1, n + p):
            prod = prod @ schedule.step_matrix(j).astype(np.int64)
        prod = prod[schedule.kept[n]][:, schedule.kept[n + p]]
        if prod.size == 0 or not (prod > 0).all():
            return False
    return True


def fit_slope(xs, ys):
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    xb, yb = xs.mean(), ys.mean()
    return float(((xs - xb) * (ys - yb)).sum() / ((xs - xb) ** 2).sum())


# ---------------------------------------------------------------------------
# per-letter references for the letter table: each map object asked in turn
# ---------------------------------------------------------------------------


def per_letter_brackets(system):
    """Per time n: (lo, hi) arrays of `norm_on` over the kept letters."""
    out = [None]
    for n in range(1, system.horizon + 1):
        lo = np.zeros(len(system.schedule.letters(n)))
        hi = np.zeros_like(lo)
        for idx in system.schedule.kept_indices(n):
            br = system.maps[n][idx].norm_on(system.domain_space_idx(n, idx))
            lo[idx], hi[idx] = br.lo, br.hi
        out.append((lo, hi))
    return tuple(out)


def per_letter_distortion(system):
    from bowendim.maps import _map_distortion

    if system.declared_distortion is not None:
        return float(system.declared_distortion)
    k = 1.0
    for n in range(1, system.horizon + 1):
        for idx in system.schedule.kept_indices(n):
            k = max(k, _map_distortion(system.maps[n][idx]))
    return k


def per_letter_contraction(system):
    """`contraction_eta` on a copy of the system that reads the per-letter
    brackets."""
    import dataclasses

    from bowendim.maps import contraction_eta

    copy = dataclasses.replace(system)
    copy.__dict__["letter_brackets"] = per_letter_brackets(system)
    return contraction_eta(copy)


def dfs_words(schedule, m, n):
    """Label tuples of the pruned words m..n: a depth-first search from the
    kept letters at time m through `schedule.followers`."""
    out = []

    def visit(j, a, labels):
        labels = labels + (schedule.letters(j)[a].label,)
        if j == n:
            out.append(labels)
            return
        for b in schedule.followers(j, a).tolist():
            visit(j + 1, b, labels)

    for a in schedule.kept_indices(m).tolist():
        visit(m, a, ())
    return out


def walked_contraction(system, m_max=8, budget=200_000):
    """The contraction certificate with every admissible m-letter window
    listed (`dfs_words`) and composed (`compose_norm`)."""
    from bowendim.errors import CertificationError
    from bowendim.maps import Contraction, compose_norm
    from bowendim.symbolic import Word

    horizon = system.horizon
    singles_max = max(system.c_bounds(n)[1] for n in range(1, horizon + 1))
    if singles_max < 1.0:
        return Contraction(1, singles_max, singles_max, singles_max)
    windows = 0
    for m in range(2, m_max + 1):
        if horizon < m:
            break
        worst = 0.0
        for j in range(1, horizon - m + 2):
            for labels in dfs_words(system.schedule, j, j + m - 1):
                windows += 1
                if windows > budget:
                    raise CertificationError(
                        f"contraction search exceeded {budget} windows"
                    )
                worst = max(worst, compose_norm(Word(j, labels), system, check=False).hi)
        if worst < 1.0:
            return Contraction(m, worst, worst ** (1.0 / m), singles_max)
    raise CertificationError(f"no contracting block length <= {m_max}; system rejected")


def per_letter_validate(system):
    """The message of the first kept letter, in time then alphabet order,
    whose image is not a space or escapes its codomain; None when all fit."""
    from bowendim.errors import InputError

    for n in range(1, system.horizon + 1):
        for idx in system.schedule.kept_indices(n):
            label = system.schedule.letters(n)[idx].label
            try:
                img = system.maps[n][idx].image(system.domain_space_idx(n, idx))
            except InputError as exc:
                return f"image of letter {label!r} at time {n} collapses: {exc}"
            cod = system.codomain_space_idx(n, idx)
            if not cod.contains(img):
                return (
                    f"image of letter {label!r} at time {n} escapes its"
                    f" codomain: {img.bounds} not within {cod.bounds}"
                )
    return None


def per_letter_evenly_varying(system, cap=100.0):
    """(ok, c, eta) of the evenly-varying check, letter by letter; the log
    of a norm product that underflows raises ValueError here."""
    import math

    from bowendim.errors import InputError

    sched = system.schedule
    label_sets = [
        frozenset(sched.letters(n)[i].label for i in sched.kept_indices(n))
        for n in range(1, system.horizon + 1)
    ]
    if len(set(label_sets)) != 1:
        raise InputError(
            "evenly-varying check needs comparable letter sets across times"
        )
    norms = {lbl: [] for lbl in label_sets[0]}
    for n in range(1, system.horizon + 1):
        lo, hi = system.letter_brackets[n]
        for i in sched.kept_indices(n):
            norms[sched.letters(n)[i].label].append(math.sqrt(lo[i] * hi[i]))
    eta = {
        lbl: math.exp(math.fsum(math.log(v) for v in vs) / len(vs))
        for lbl, vs in norms.items()
    }
    c = 1.0
    for lbl, vs in norms.items():
        for v in vs:
            c = max(c, v / eta[lbl], eta[lbl] / v)
    return c <= cap, c, eta

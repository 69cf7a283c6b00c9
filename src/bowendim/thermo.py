"""Partition functions, pressure estimates, dimension bisection, diagnostics.

The partition function at inverse-dimension parameter t sums the t-th powers
of composed derivative norms over admissible words.  Its per-level growth
rate stands in for the pressure; the dimension estimate is the bracketed
zero-crossing of that rate in t, reported together with a hypothesis report
saying which structural theorem (if any) promotes the Bowen-style upper
bound into an equality for the Hausdorff dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _frontier, geometry
from .errors import (
    BracketingError,
    BudgetError,
    ConfigurationError,
    InputError,
    UnsupportedError,
)
from .maps import Similarity
from .symbolic import (
    PrimitivityCertificate,
    find_primitivity,
    growth_stats,
    subexp_diagnostic,
)
from .trend import EXPONENTIAL, SUBEXPONENTIAL, fit_line

STRATEGIES = ("auto", "enumerate-exact", "matrix-exact")


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionValue:
    """Certified bracket on Z_{m,n}(t)."""

    m: int
    n: int
    t: float
    lo: float
    hi: float
    strategy: str
    words: Optional[int] = None

    @property
    def value(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _check_t(system, t):
    if not (0.0 <= t <= system.dim):
        raise InputError(f"t must lie in [0, {system.dim}], got {t}")


def _transfer_sums(system, m, n, t):
    """Per-level sums of products of single-letter weights |r|^t along
    admissible words, zero outside the pruned alphabet; exact for similarity
    families."""
    sched = system.schedule
    brackets = system.letter_brackets
    u = np.where(sched.kept[m], brackets[m][1] ** t, 0.0)
    out = {m: float(u.sum())}
    for j in range(m, n):
        w = brackets[j + 1][1] ** t
        u = sched.incidence[j].transfer(u, w, sched.kept[j + 1])
        out[j + 1] = float(u.sum())
    return out


def _levels(system, m, n, t, strategy, budget=_frontier.DEFAULT_BUDGET):
    """({j: (z_lo, z_hi, words)} for every j in m..n, resolved strategy).

    The one place that maps a strategy to a computation: "auto" takes the
    matrix-exact transfer product on similarity ranges and the enumerated
    words (`_frontier.level_norms`) on all others.  Brackets on Z_{m,j}(t);
    `words` is the level's word count for enumerate-exact and None for
    matrix-exact.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    similarity = _frontier._family(system, m, n) == "similarity"
    if strategy == "auto":
        strategy = "matrix-exact" if similarity else "enumerate-exact"
    if strategy == "enumerate-exact":
        return _frontier.level_norms(system, m, n, budget).power_sums(t), strategy
    if not similarity:
        raise UnsupportedError(
            "matrix-exact needs multiplicative (similarity) norms; use"
            " enumerate-exact here"
        )
    z = _transfer_sums(system, m, n, t)
    return {j: (v, v, None) for j, v in z.items()}, strategy


def partition(
    system,
    m: int,
    n: int,
    t: float,
    strategy: str = "auto",
    budget: int = _frontier.DEFAULT_BUDGET,
) -> PartitionValue:
    """Certified bracket on the weighted word sum Z_{m,n}(t)."""
    _check_t(system, t)
    if not (1 <= m <= n <= system.horizon):
        raise ConfigurationError(
            f"need 1 <= m <= n <= horizon={system.horizon}, got ({m}, {n})"
        )
    levels, strat = _levels(system, m, n, t, strategy, budget)
    z_lo, z_hi, words = levels[n]
    return PartitionValue(m, n, t, z_lo, z_hi, strat, words)


# ---------------------------------------------------------------------------
# pressure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PressureEstimate:
    """Finite-horizon pressure data at one t.

    s_n = (1/n) log Z_n(t) with brackets; `lower_proxy`/`upper_proxy` are the
    min/max of s_n over the tail half of the window (liminf/limsup stand-ins);
    `growth_rate` is the mean increment of log Z_n over an even-length tail
    window, the bisection signal (constant offsets and period-2 oscillation
    cancel there).
    """

    t: float
    window: tuple
    ns: tuple
    z_lo: tuple
    z_hi: tuple
    s_lo: tuple
    s_hi: tuple
    lower_proxy: tuple
    upper_proxy: tuple
    growth_rate: tuple
    oscillation: float
    strategy: str

    @property
    def flagged_oscillation(self) -> bool:
        return self.oscillation > 0.05

    def rows(self):
        """CSV rows (n, t, z_lo, z_hi, s_n_lo, s_n_hi)."""
        for i, n in enumerate(self.ns):
            yield (n, self.t, self.z_lo[i], self.z_hi[i], self.s_lo[i], self.s_hi[i])


def _tail_start(window):
    n_lo, n_hi = window
    return n_lo + (n_hi - n_lo) // 2


def _tail(window):
    """Indices into the times n_lo..n_hi of the window's tail half, the
    times n >= _tail_start(window)."""
    n_lo, n_hi = window
    return range(_tail_start(window) - n_lo, n_hi - n_lo + 1)


def pressure_estimate(
    system, t: float, window, strategy: str = "auto",
    budget: int = _frontier.DEFAULT_BUDGET,
) -> PressureEstimate:
    _check_t(system, t)
    n_lo, n_hi = window
    if not (1 <= n_lo < n_hi <= system.horizon):
        raise ConfigurationError(
            f"window {window} must sit inside [1, horizon={system.horizon}]"
        )
    levels, strat = _levels(system, 1, n_hi, t, strategy, budget)
    ns = tuple(range(n_lo, n_hi + 1))
    z_lo = tuple(levels[n][0] for n in ns)
    z_hi = tuple(levels[n][1] for n in ns)
    s_lo = tuple(math.log(z) / n if z > 0 else -math.inf for n, z in zip(ns, z_lo))
    s_hi = tuple(math.log(z) / n if z > 0 else -math.inf for n, z in zip(ns, z_hi))

    tail = _tail(window)
    low = (min(s_lo[i] for i in tail), min(s_hi[i] for i in tail))
    up = (max(s_lo[i] for i in tail), max(s_hi[i] for i in tail))

    m = ns[tail[0]]
    if (n_hi - m) % 2 == 1 and len(tail) > 2:
        m += 1
    i_m, i_n = ns.index(m), ns.index(n_hi)
    span = n_hi - m
    if span <= 0:
        chord = (low[0], up[1])
    else:
        # a level sum whose norms underflow (z_lo = 0) leaves its side unbounded
        chord = (
            (math.log(z_lo[i_n]) - math.log(z_hi[i_m])) / span
            if z_lo[i_n] > 0 else -math.inf,
            (math.log(z_hi[i_n]) - math.log(z_lo[i_m])) / span
            if z_lo[i_m] > 0 else math.inf,
        )
    return PressureEstimate(
        t=t,
        window=(n_lo, n_hi),
        ns=ns,
        z_lo=z_lo,
        z_hi=z_hi,
        s_lo=s_lo,
        s_hi=s_hi,
        lower_proxy=low,
        upper_proxy=up,
        growth_rate=chord,
        oscillation=up[1] - low[0],
        strategy=strat,
    )


# ---------------------------------------------------------------------------
# Bowen dimension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionResult:
    bracket: tuple
    horizon: int
    window: tuple
    tol: float
    trace: tuple  # (t, rate_lo, rate_hi) per evaluation
    hypothesis: "HypothesisReport"
    strategy: str
    uncertainty: tuple = ()

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.bracket[0] + self.bracket[1])

    @property
    def width(self) -> float:
        return self.bracket[1] - self.bracket[0]


def bowen_dimension(
    system,
    t_bracket,
    n_max: int,
    tol: float = 1e-4,
    window=None,
    strategy: str = "auto",
    budget: int = _frontier.DEFAULT_BUDGET,
) -> DimensionResult:
    """Bracket the zero-crossing of the windowed pressure rate in t.

    Maintains rate >= 0 at the left endpoint and <= 0 at the right one; when
    norm-bracket uncertainty straddles zero the bisection stops early and the
    reported interval keeps the full remaining width.
    """
    if n_max > system.horizon:
        raise ConfigurationError(
            f"n_max={n_max} beyond materialized horizon {system.horizon}"
        )
    window = window or (1, n_max)
    if window[1] > n_max:
        raise ConfigurationError(f"window {tuple(window)} ends past n_max={n_max}")
    t_lo, t_hi = float(t_bracket[0]), float(t_bracket[1])
    if not (0.0 <= t_lo < t_hi <= system.dim):
        raise InputError(f"invalid t bracket {t_bracket}")
    trace = []
    notes = []
    chosen = []

    def rate(t):
        est = pressure_estimate(system, t, window, strategy, budget)
        trace.append((t, est.growth_rate[0], est.growth_rate[1]))
        chosen.append(est.strategy)
        return est.growth_rate

    r_lo = rate(t_lo)
    r_hi = rate(t_hi)
    if r_lo[1] < 0:
        raise BracketingError(
            f"pressure rate at t={t_lo} is {r_lo}, not nonnegative; no"
            " zero-crossing inside the bracket"
        )
    if r_hi[0] >= 0:
        if t_hi < system.dim:
            raise BracketingError(
                f"pressure rate at t={t_hi} is {r_hi}, not negative; widen the"
                " bracket"
            )
        notes.append(
            f"pressure rate still nonnegative at t = d = {t_hi};"
            " dimension estimate clamps to the ambient dimension"
        )
        t_lo = max(t_lo, t_hi - tol)
    else:
        while t_hi - t_lo > tol:
            mid = 0.5 * (t_lo + t_hi)
            r = rate(mid)
            if r[0] >= 0:
                t_lo = mid
            elif r[1] < 0:
                t_hi = mid
            else:
                notes.append(
                    f"norm-bracket uncertainty straddles zero at t={mid:.6g};"
                    f" stopping with width {t_hi - t_lo:.3g}"
                )
                break
    return DimensionResult(
        (t_lo, t_hi), n_max, window, tol, tuple(trace), hypothesis_report(system),
        chosen[0], tuple(notes),
    )


# ---------------------------------------------------------------------------
# theta bounds
# ---------------------------------------------------------------------------


class PSeriesTail:
    """Single-time sums comparable to sum_k |k|^(-c t) over a D-dimensional
    lattice: converges iff c*t > D."""

    def __init__(self, coefficient: float, lattice_dim: int = 1):
        if coefficient <= 0:
            raise InputError("coefficient must be positive")
        self.coefficient = float(coefficient)
        self.lattice_dim = int(lattice_dim)

    def converges(self, t: float) -> bool:
        return self.coefficient * t > self.lattice_dim

    @property
    def threshold(self) -> float:
        return self.lattice_dim / self.coefficient


@dataclass(frozen=True)
class ThetaBounds:
    theta_n: float
    theta_phi_lower: float
    method: str


def theta_bounds(family_rule, tol: float = 1e-9, t_cap: float = 8.0) -> ThetaBounds:
    """Finiteness threshold of the single-time sums, by bisection on the
    convergence test; finite alphabets sit at zero."""
    if family_rule is None:
        return ThetaBounds(0.0, 0.0, "finite-alphabet")
    if not hasattr(family_rule, "converges"):
        raise ConfigurationError(
            "infinite parametric alphabets need a tail rule with a"
            " converges(t) test"
        )
    lo, hi = 0.0, t_cap
    if family_rule.converges(lo):
        return ThetaBounds(0.0, 0.0, "tail-rule")
    if not family_rule.converges(hi):
        raise ConfigurationError(f"tail sums diverge for every t <= {t_cap}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if family_rule.converges(mid):
            hi = mid
        else:
            lo = mid
    return ThetaBounds(0.5 * (lo + hi), 0.5 * (lo + hi), "tail-rule")


def system_theta(system) -> ThetaBounds:
    return theta_bounds(system.tail_rule, t_cap=float(max(8, 4 * system.dim)))


# ---------------------------------------------------------------------------
# general lower-bound diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundDiagnostics:
    """Finite-horizon proxies for the mass-distribution lower bound.

    For each n in the window: the single-letter norm extremes c_lo/c_hi, their
    ratio rho, the least follower count, space-diameter extremes, the damped
    partition value Ztilde_n(t) = Z_{n-1}(t) * G_lo^{t/d} * c_lo^t * d_lo^t
    and the rate kappa_n of Ztilde against its oscillation denominator.  The
    verdict compares the fitted follower growth delta against
    kappa/(p^2 + p + 1).
    """

    t: float
    window: tuple
    ns: tuple
    rho: tuple
    c_lo: tuple
    c_hi: tuple
    g_lo: tuple
    d_lo: tuple
    d_hi: tuple
    z_tilde: tuple
    kappa_seq: tuple
    kappa_proxy: float
    delta_proxy: float
    p: int
    certified: bool

    def as_dict(self):
        return {
            "t": self.t,
            "kappa_proxy": self.kappa_proxy,
            "delta_proxy": self.delta_proxy,
            "p": self.p,
            "threshold": self.kappa_proxy / (self.p**2 + self.p + 1),
            "certified_above_t": self.certified,
        }


def lower_bound_diagnostics(system, t: float, window) -> LowerBoundDiagnostics:
    _check_t(system, t)
    cert = find_primitivity(system.schedule, p_max=4)
    if cert is None:
        raise ConfigurationError(
            "lower-bound diagnostics need a primitivity certificate"
        )
    n_lo, n_hi = window
    if not (2 <= n_lo < n_hi <= system.horizon):
        raise ConfigurationError(f"window {window} outside [2, horizon]")
    levels, _ = _levels(system, 1, n_hi, t, "auto")
    stats = growth_stats(system.schedule)
    d = float(system.dim)

    ns, rho, c_lo_seq, c_hi_seq, g_lo_seq, d_lo_seq, d_hi_seq = (
        [], [], [], [], [], [], [],
    )
    z_tilde, kappa_seq = [], []
    rho_all = [system.rho(j) for j in range(1, n_hi + 1)]
    diam_all = [system.diam_bounds(j) for j in range(0, n_hi + 1)]
    for n in range(n_lo, n_hi + 1):
        c_lo, c_hi = system.c_bounds(n)
        g_lo = stats.g_lo[n - 2]  # G_lo at time n-1
        d_lo_n, d_hi_n = diam_all[n]
        z_prev = 0.5 * (levels[n - 1][0] + levels[n - 1][1])
        zt = z_prev * g_lo ** (t / d) * c_lo**t * d_lo_n**t
        # oscillation denominator: 1 + log max rho + sup_k log(d_hi[n+k]/d_lo[n])
        max_rho = max(rho_all[: min(n + 1, len(rho_all))])
        sup_ratio = max(
            math.log(diam_all[k][1] / d_lo_n) for k in range(n, n_hi + 1)
        )
        denom = 1.0 + math.log(max_rho) + max(sup_ratio, 0.0)
        kappa_n = math.log(zt / denom) / n if zt > 0 else -math.inf
        ns.append(n)
        rho.append(system.rho(n))
        c_lo_seq.append(c_lo)
        c_hi_seq.append(c_hi)
        g_lo_seq.append(g_lo)
        d_lo_seq.append(d_lo_n)
        d_hi_seq.append(d_hi_n)
        z_tilde.append(zt)
        kappa_seq.append(kappa_n)

    kappa_proxy = min(kappa_seq[i] for i in _tail(window))
    ghi_ns = stats.times[: len(stats.g_hi)]
    tail_g = _tail((1, len(ghi_ns)))
    delta_proxy, _, _ = fit_line(
        [ghi_ns[i] for i in tail_g],
        [math.log(stats.g_hi[i]) for i in tail_g],
    )
    delta_proxy = max(delta_proxy, 0.0)
    p = cert.p
    certified = delta_proxy * (p**2 + p + 1) < kappa_proxy
    return LowerBoundDiagnostics(
        t=t, window=(n_lo, n_hi), ns=tuple(ns), rho=tuple(rho),
        c_lo=tuple(c_lo_seq), c_hi=tuple(c_hi_seq), g_lo=tuple(g_lo_seq),
        d_lo=tuple(d_lo_seq), d_hi=tuple(d_hi_seq), z_tilde=tuple(z_tilde),
        kappa_seq=tuple(kappa_seq), kappa_proxy=kappa_proxy,
        delta_proxy=delta_proxy, p=p, certified=certified,
    )


# ---------------------------------------------------------------------------
# balancing classes
# ---------------------------------------------------------------------------

BALANCING_ORDER = ("perfectly", "balanced", "weakly", "barely", "unclassified")
#: largest last rate that still passes the weakly and barely tests
BALANCING_RATE_TOL = 0.05


@dataclass(frozen=True)
class BalancingReport:
    """Classification of the per-time norm-ratio sequence rho_n.

    Stronger classes imply the weaker flags; `verdict` is the strongest class
    whose finite-horizon test passes.
    """

    rho: tuple
    flags: dict
    verdict: str

    def at_least(self, cls: str) -> bool:
        return self.flags.get(cls, False)


def classify_rho(
    rho_seq: Sequence[float], all_similarity: bool = False
) -> BalancingReport:
    """Finite-horizon balancing verdict from the rho_n sequence alone.

    balanced: the tail-half slope of log rho_n is at most 1e-3 in size;
    weakly and barely: the last rate (1/n) log rho_n, resp.
    (1/n) log(1 + log rho_n), is at most BALANCING_RATE_TOL.  Each class
    implies the weaker ones.
    """
    rho_seq = [float(r) for r in rho_seq]
    if any(r < 1.0 - 1e-9 for r in rho_seq):
        raise InputError("rho values must be >= 1")
    h = len(rho_seq)
    ns = list(range(1, h + 1))
    perfectly = all_similarity and all(abs(r - 1.0) <= 1e-12 for r in rho_seq)
    log_rho = [math.log(max(r, 1.0)) for r in rho_seq]
    tail = _tail((1, h))
    if any(map(math.isinf, log_rho)):
        slope = math.inf  # a norm ratio past the float range has no fitted slope
    else:
        slope, _, _ = fit_line([ns[i] for i in tail], [log_rho[i] for i in tail])
    balanced = perfectly or abs(slope) <= 1e-3
    weakly = balanced or (log_rho[-1] / ns[-1]) <= BALANCING_RATE_TOL
    barely = weakly or (math.log(1.0 + log_rho[-1]) / ns[-1]) <= BALANCING_RATE_TOL
    flags = {
        "perfectly": perfectly,
        "balanced": balanced,
        "weakly": weakly,
        "barely": barely,
    }
    verdict = next(
        (c for c in BALANCING_ORDER[:-1] if flags[c]), "unclassified"
    )
    return BalancingReport(rho=tuple(rho_seq), flags=flags, verdict=verdict)


def balancing_class(system) -> BalancingReport:
    rho_seq = [system.rho(n) for n in range(1, system.horizon + 1)]
    all_sim = frozenset().union(*system._map_types[1:]) <= {Similarity}
    return classify_rho(rho_seq, all_similarity=all_sim)


# ---------------------------------------------------------------------------
# growth-rate dimension bounds (a/b)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ABDimensionBounds:
    applicable: bool
    lo: Optional[float]
    hi: Optional[float]
    point: Optional[float]
    rates: dict
    reason: str = ""


#: least fitted a- or b-rate that counts as positive-exponential
AB_MIN_RATE = 0.05
#: largest relative gap between a0 and a1, and between b0 and b1, for a point
AB_MATCH_TOL = 0.05


def ab_dimension_bounds(system) -> ABDimensionBounds:
    """Dimension bounds [a0/b1, a1/b0] from fitted exponential rates of the
    follower counts (a) and reciprocal norm extremes (b)."""
    h = system.horizon
    stats = growth_stats(system.schedule)
    ns = list(range(1, h))
    tail = _tail((1, h - 1))
    txs = [ns[i] for i in tail]
    a0, _, _ = fit_line(txs, [math.log(stats.g_lo[i]) for i in tail])
    a1, _, _ = fit_line(txs, [math.log(stats.g_hi[i]) for i in tail])
    cb = [system.c_bounds(n) for n in range(1, h + 1)]
    tail_c = _tail((1, h))
    txc = [i + 1 for i in tail_c]
    b0, _, _ = fit_line(txc, [-math.log(cb[i][1]) for i in tail_c])
    b1, _, _ = fit_line(txc, [-math.log(cb[i][0]) for i in tail_c])
    rates = {"a0": a0, "a1": a1, "b0": b0, "b1": b1}
    if min(a0, a1) <= AB_MIN_RATE:
        return ABDimensionBounds(
            False, None, None, None, rates,
            "follower growth rate not positive-exponential",
        )
    if min(b0, b1) <= AB_MIN_RATE or not all(map(math.isfinite, (b0, b1))):
        return ABDimensionBounds(
            False, None, None, None, rates,
            "norm decay rate not positive-exponential",
        )
    lo, hi = a0 / b1, a1 / b0
    point = None
    a_match = abs(a0 - a1) <= AB_MATCH_TOL * max(a0, a1)
    if a_match and abs(b0 - b1) <= AB_MATCH_TOL * max(b0, b1):
        point = (0.5 * (a0 + a1)) / (0.5 * (b0 + b1))
    return ABDimensionBounds(True, lo, hi, point, rates)


# ---------------------------------------------------------------------------
# Hausdorff-measure trend
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureTrendReport:
    verdict: str  # zero | finite-positive | infinite | inconclusive | inapplicable
    h: float
    window: tuple
    z_values: tuple
    preconditions: dict
    reason: str = ""


#: largest |tail slope| of log Z_n(h) that reads as neither zero nor infinite
MEASURE_SLOPE_TOL = 0.02


def hausdorff_measure_trend(
    system, h: float, window, budget: int = _frontier.DEFAULT_BUDGET
) -> MeasureTrendReport:
    """Advisory classifier for the h-dimensional measure via the tail of Z_n(h).

    Applies only to balanced, uniformly finite systems whose space diameters
    stay within a factor 1e6 of each other; otherwise reports inapplicable.
    A tail slope of log Z_n(h) below -MEASURE_SLOPE_TOL reads as zero, above
    MEASURE_SLOPE_TOL as infinite; in between, tail values inside
    [1e-8, 1e8] read as finite-positive.
    """
    _check_t(system, h)
    n_lo, n_hi = window
    bal = balancing_class(system)
    counts = [system.schedule.kept_count(n) for n in range(n_lo, n_hi + 1)]
    diam = [system.diam_bounds(n) for n in range(0, n_hi + 1)]
    band = max(d[1] for d in diam) / min(d[0] for d in diam)
    pre = {
        "balanced": bal.at_least("balanced"),
        "uniformly_finite": max(counts) == min(counts),
        "diameter_band": band <= 1e6,
    }
    if not all(pre.values()):
        missing = [k for k, v in pre.items() if not v]
        return MeasureTrendReport(
            "inapplicable", h, tuple(window), (), pre,
            f"hypotheses not met: {', '.join(missing)}",
        )
    levels, _ = _levels(system, 1, n_hi, h, "auto", budget)
    ns = list(range(n_lo, n_hi + 1))
    zs = [0.5 * (levels[n][0] + levels[n][1]) for n in ns]
    tail = _tail(window)
    slope, _, _ = fit_line([ns[i] for i in tail], [math.log(zs[i]) for i in tail])
    tail_vals = [zs[i] for i in tail]
    if slope < -MEASURE_SLOPE_TOL:
        verdict = "zero"
    elif slope > MEASURE_SLOPE_TOL:
        verdict = "infinite"
    elif all(1e-8 <= z <= 1e8 for z in tail_vals):
        verdict = "finite-positive"
    else:
        verdict = "inconclusive"
    return MeasureTrendReport(verdict, h, tuple(window), tuple(zs), pre)


# ---------------------------------------------------------------------------
# evenly varying
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvenlyVaryingReport:
    ok: bool
    c: float
    eta: dict
    cap: float


def _geometric_mean(lo, hi):
    """sqrt(lo * hi) elementwise; where the product underflows to 0,
    sqrt(lo) * sqrt(hi) instead."""
    prod = lo * hi
    return np.where(prod > 0, np.sqrt(prod), np.sqrt(lo) * np.sqrt(hi))


def evenly_varying_check(system, cap: float = 100.0):
    """Per-letter geometric-mean norms eta_i and the smallest sandwich constant
    c with eta_i/c <= |D phi_i^(n)| <= c eta_i; fails beyond the cap, and
    when a letter's norm is below the float range (c is then inf)."""
    sched = system.schedule
    h = system.horizon
    labels = [  # the kept letters of each time, in alphabet order
        [sched.letters(n)[i].label for i in sched.kept_indices(n).tolist()]
        for n in range(1, h + 1)
    ]
    first = labels[0]
    if any(set(row) != set(first) for row in labels[1:]):
        raise InputError(
            "evenly-varying check needs comparable letter sets across times"
        )
    column = {lbl: k for k, lbl in enumerate(first)}
    tab = system.letter_table
    lo, hi = system._letter_norms
    norms = np.empty((h, len(first)))  # norms[n - 1, k]: label k at time n
    norms[tab.time[tab.kept] - 1, [column[lbl] for row in labels for lbl in row]] = (
        _geometric_mean(lo[tab.kept], hi[tab.kept])
    )
    if not (norms > 0).all():
        return EvenlyVaryingReport(False, math.inf, {}, cap)
    logs = np.array([math.log(v) for v in norms.ravel().tolist()]).reshape(norms.shape)
    eta = np.array([math.exp(math.fsum(col) / h) for col in logs.T.tolist()])
    c = max(1.0, float((norms / eta).max()), float((eta / norms).max()))
    return EvenlyVaryingReport(c <= cap, c, dict(zip(first, eta.tolist())), cap)


# ---------------------------------------------------------------------------
# hypothesis report
# ---------------------------------------------------------------------------

JUSTIFICATIONS = {
    "autonomous-system": "time-independent system: the dimension identity"
    " holds classically",
    "ascending-finitely-primitive": "finite ascending, finitely primitive"
    " system: the dimension identity holds with no growth or balancing"
    " assumptions",
    "subexponential-ncifs": "finite iterated-function schedule with"
    " subexponentially growing alphabets: the dimension identity holds",
    "weakly-balanced-finitely-primitive": "weakly balanced, finitely"
    " primitive system with subexponential follower growth: the dimension"
    " identity holds",
    "shrinking-norms-exponential-growth": "finitely primitive with"
    " exponentially bounded follower growth, bounded norm-ratio growth and"
    " vanishing largest norms: the dimension identity holds",
    "evenly-varying": "evenly varying infinite iterated-function schedule:"
    " the dimension identity holds",
    "upper-bound-only": "no supporting hypotheses verified: the estimate is"
    " an upper bound for the Hausdorff dimension only",
}


@dataclass(frozen=True)
class HypothesisReport:
    primitivity: Optional[PrimitivityCertificate]
    balancing: BalancingReport
    subexp_verdict: str
    follower_verdict: str
    diameter_ok: bool
    ncifs: bool
    stationary: bool
    autonomous: bool
    ascending: bool
    evenly_varying: Optional[EvenlyVaryingReport]
    justification: str
    detail: str

    @property
    def bowen_supported(self) -> bool:
        return self.justification != "upper-bound-only"

    def as_dict(self):
        return {
            "justification": self.justification,
            "detail": self.detail,
            "bowen_formula_supported": self.bowen_supported,
            "primitivity_p": None if self.primitivity is None else self.primitivity.p,
            "balancing": self.balancing.verdict,
            "alphabet_growth": self.subexp_verdict,
            "follower_growth": self.follower_verdict,
            "diameter_condition": self.diameter_ok,
            "ncifs": self.ncifs,
            "stationary": self.stationary,
            "autonomous": self.autonomous,
            "ascending": self.ascending,
            "class_M": "unchecked (evenly-varying sufficient condition only)",
        }


def hypothesis_report(system, p_max: int = 4) -> HypothesisReport:
    """Collect every structural check and name the justifying theorem, if any."""
    sched = system.schedule
    try:
        cert = find_primitivity(sched, min(p_max, max(0, sched.horizon - 2)))
    except (ConfigurationError, BudgetError):
        cert = None
    stats = growth_stats(sched)
    try:
        sub = subexp_diagnostic(stats)
        sub_verdict = sub.count_trend.verdict
        fol_verdict = sub.follower_trend.verdict
        fol_label = sub.follower_trend.label
        sub_label = sub.count_trend.label
    except ConfigurationError:
        sub_verdict = fol_verdict = "inconclusive"
        sub_label = fol_label = "inconclusive (horizon too short)"
    bal = balancing_class(system)
    diam = geometry.diameter_diagnostics(system)
    diameter_ok = diam.satisfied
    ascending = "ascending" in system.flags
    ev = None
    try:
        ev = evenly_varying_check(system)
    except InputError:
        ev = None

    c_hi_last = [system.c_bounds(n)[1] for n in range(1, system.horizon + 1)]
    shrinking = c_hi_last[-1] < 0.5 * max(c_hi_last) and c_hi_last[-1] < 0.1

    if system.is_autonomous and cert is not None:
        # time-independence alone is not enough: the classical identity needs
        # letters to be joinable (finite irreducibility)
        justification = "autonomous-system"
    elif ascending and cert is not None:
        justification = "ascending-finitely-primitive"
    elif system.is_ncifs and sub_verdict == SUBEXPONENTIAL:
        justification = "subexponential-ncifs"
    elif (
        cert is not None
        and bal.at_least("weakly")
        and fol_verdict == SUBEXPONENTIAL
    ):
        justification = "weakly-balanced-finitely-primitive"
    elif cert is not None and fol_verdict == EXPONENTIAL and shrinking:
        justification = "shrinking-norms-exponential-growth"
    elif ev is not None and ev.ok and system.is_ncifs and system.tail_rule is not None:
        justification = "evenly-varying"
    else:
        justification = "upper-bound-only"
    return HypothesisReport(
        primitivity=cert,
        balancing=bal,
        subexp_verdict=sub_label,
        follower_verdict=fol_label,
        diameter_ok=diameter_ok,
        ncifs=system.is_ncifs,
        stationary=system.is_stationary,
        autonomous=system.is_autonomous,
        ascending=ascending,
        evenly_varying=ev,
        justification=justification,
        detail=JUSTIFICATIONS[justification],
    )

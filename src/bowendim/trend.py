"""Tail-slope fitting and growth-rate verdicts for finite-horizon sequences.

Every "for all n" limit in the underlying theory degrades, on a finite
horizon, to a fitted tail rate plus a verdict.  The verdicts here are
deliberately horizon-bounded statements, never claims about true limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUBEXPONENTIAL = "subexponential-consistent"
EXPONENTIAL = "exponential"
INCONCLUSIVE = "inconclusive"

#: tolerance on the fitted tail slope of log v_n
SLOPE_TOL = 0.05


def fit_line(xs, ys):
    """Least-squares line fit; returns (slope, intercept, stderr_of_slope)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        return 0.0, float(ys[0]) if ys.size else 0.0, float("inf")
    xbar = xs.mean()
    ybar = ys.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    if sxx == 0.0:
        return 0.0, float(ybar), float("inf")
    slope = float(((xs - xbar) * (ys - ybar)).sum() / sxx)
    intercept = float(ybar - slope * xbar)
    resid = ys - (slope * xs + intercept)
    if xs.size > 2:
        stderr = math.sqrt(float((resid**2).sum()) / (xs.size - 2) / sxx)
    else:
        stderr = 0.0
    return slope, intercept, stderr


def tail_indices(n_points):
    """Indices of the trailing half of a sequence (at least two points)."""
    start = min(n_points - 2, (n_points + 1) // 2)
    return range(max(0, start), n_points)


@dataclass(frozen=True)
class TrendReport:
    """Fitted growth diagnosis of a positive sequence v_n: `slope` is the
    least-squares slope of log v_n against n over the tail half of the
    horizon."""

    slope: float
    verdict: str
    rate: float | None = None

    @property
    def label(self) -> str:
        if self.verdict == EXPONENTIAL:
            return f"exponential-rate≈{self.rate:.4g}"
        return self.verdict


def trend_report(ns, values=None, log_values=None):
    """Classify growth of v_n as subexponential / exponential / inconclusive.

    Verdict rule: |tail slope| <= SLOPE_TOL reads as consistent with
    (1/n) log v_n -> 0.  A larger slope counts as a genuine exponential rate
    only when the first and second halves of the tail agree on it (within
    25%); a drifting slope stays inconclusive.
    """
    ns = list(ns)
    if log_values is None:
        log_values = [math.log(v) for v in values]
    log_values = [float(v) for v in log_values]
    if len(ns) != len(log_values):
        raise ValueError("ns and values length mismatch")
    idx = list(tail_indices(len(ns)))
    txs = [ns[i] for i in idx]
    tys = [log_values[i] for i in idx]
    slope, _, _ = fit_line(txs, tys)

    verdict = INCONCLUSIVE
    rate = None
    if abs(slope) <= SLOPE_TOL:
        verdict = SUBEXPONENTIAL
    elif len(idx) >= 4:
        half = len(idx) // 2
        s1, _, _ = fit_line(txs[:half], tys[:half])
        s2, _, _ = fit_line(txs[half:], tys[half:])
        if abs(s1 - s2) <= 0.25 * max(abs(s1), abs(s2), SLOPE_TOL):
            verdict = EXPONENTIAL
            rate = slope
    return TrendReport(slope=slope, verdict=verdict, rate=rate)

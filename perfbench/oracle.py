"""Independent check of pressure.csv rows against exact partition functions.

Z_n(t) is recomputed from scratch with exact integers and mpmath: for
reciprocal-shift digit maps on [0, 1] the sup derivative norm of a word is
q_n^-2, with q_n its integer continuant; for the regular-incidence similarity
schedules Z_n(t) has a closed form.  A row passes when z_lo and z_hi both lie
within REL_TOL of the exact value.  Rows whose bracket [z_lo, z_hi] does not
contain the exact value are counted separately and do not fail the run: the
library evaluates its brackets in float64 without outward rounding.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import mpmath

REL_TOL = 1e-12
ROWS_PER_FILE = 8
DIGITS = 40  # mpmath working precision, decimal digits


class ContinuantZ:
    """Exact Z_n(t) = sum over digit words w of q_n(w)^(-2t)."""

    def __init__(self, digit_sets):
        self._sets = [list(s) for s in digit_sets]
        self._levels = []  # level k -> Counter of q_k over all k-letter words

    def _level(self, n):
        if not self._levels:
            pairs = [(1, d) for d in self._sets[0]]
            self._levels.append((pairs, Counter(q for _, q in pairs)))
        while len(self._levels) < n:
            digits = self._sets[len(self._levels)]
            prev, _ = self._levels[-1]
            pairs = [(qc, d * qc + qp) for qp, qc in prev for d in digits]
            self._levels.append((pairs, Counter(q for _, q in pairs)))
        return self._levels[n - 1][1]

    def __call__(self, n, t):
        e = -2 * mpmath.mpf(t)
        return mpmath.fsum(m * mpmath.power(q, e) for q, m in self._level(n).items())


def similarity_z(letters, degree, ratios, n, t):
    """Exact Z_n(t) for `letters` similarities per time, `degree` followers each."""
    t = mpmath.mpf(t)
    z = mpmath.mpf(letters) * mpmath.mpf(degree) ** (n - 1)
    for r in ratios[:n]:
        z *= mpmath.power(mpmath.mpf(r), t)
    return z


@dataclass
class OracleTally:
    rows: int = 0
    beyond_tol: int = 0
    strict_misses: int = 0
    max_rel_err: float = 0.0

    def check_file(self, path, exact_z, rng, rows=ROWS_PER_FILE):
        """Check `rows` seeded rows of one pressure.csv; describe each row beyond REL_TOL."""
        with open(path, newline="") as fh:
            table = list(csv.DictReader(fh))
        picks = rng.choice(len(table), size=min(rows, len(table)), replace=False)
        errors = []
        with mpmath.workdps(DIGITS):
            for i in sorted(int(k) for k in picks):
                error = self._check_row(table[i], exact_z)
                if error:
                    errors.append(error)
        self.beyond_tol += len(errors)
        return errors

    def _check_row(self, row, exact_z):
        n, t = int(row["n"]), float(row["t"])
        z_lo, z_hi = float(row["z_lo"]), float(row["z_hi"])
        exact = exact_z(n, t)
        self.rows += 1
        if not (mpmath.mpf(z_lo) <= exact <= mpmath.mpf(z_hi)):
            self.strict_misses += 1
        rel = float(max(abs(mpmath.mpf(z) - exact) / exact for z in (z_lo, z_hi)))
        self.max_rel_err = max(self.max_rel_err, rel)
        if rel > REL_TOL:
            return (
                f"n={n} t={t!r}: [{z_lo!r}, {z_hi!r}] vs exact"
                f" {mpmath.nstr(exact, 20)} (relative error {rel:.3g})"
            )
        return None

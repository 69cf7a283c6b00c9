"""Seeded workload inputs, the CLI calls that consume them, and their reference answers.

Every workload writes its JSON config files into a work directory and drives
`bowendim.cli.main` with nothing but those files and an output directory.
Each call carries the exit code it must return and a check of the summary it
writes; report calls also carry the exact partition function used by the
pressure oracle (see oracle.py).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from oracle import ContinuantZ, similarity_z

# dim E_{1,2}, the continued fractions with digits in {1, 2}
# (Jenkinson and Pollicott, 2001).
CF12_DIM = 0.5312805062772051416

# Box-counting slope bands: the cf12 band is the acceptance suite's
# |slope - dimension| <= 0.03; the planar pole-decay model has the certified
# lower bound 4/3 and the ambient dimension 2.
CF12_BOX_BAND = (CF12_DIM - 0.03, CF12_DIM + 0.03)
ELLIPTIC_BOX_BAND = (4.0 / 3.0, 2.0)

# Regular-incidence transfer schedules: letters per time, followers per letter,
# horizon and the two-step ratio cycle (images stay inside the packed cells).
TRANSFER_LETTERS = 300
TRANSFER_DEGREE = 3
TRANSFER_HORIZON = 6
TRANSFER_RATIOS = (0.5 / TRANSFER_LETTERS, 0.25 / TRANSFER_LETTERS)

WORKLOADS = ("digits", "transfer", "sampling", "digits-wide")


@dataclass(frozen=True)
class Call:
    """One CLI invocation: `bowendim <command> <config> --out <out>`."""

    name: str
    command: str
    config: Path
    expect_exit: int
    # summary.json -> None when the answer is right, else what is wrong
    check: Callable[[dict], Optional[str]]
    # exact Z_n(t) as an mpmath number, for the pressure.csv oracle
    exact_z: Optional[Callable] = None

    def argv(self, out: Path):
        return [self.command, str(self.config), "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    configs: tuple


def _write_config(work: Path, name: str, system: dict, params: dict) -> Path:
    path = work / f"{name}.json"
    payload = {
        "schema_version": 1,
        "output_dir": str(work / "out"),
        "system": system,
        "params": params,
    }
    path.write_text(json.dumps(payload, sort_keys=True))
    return path


def _bracket_contains(ref):
    def check(summary):
        lo, hi = summary["bracket"]
        if lo <= ref <= hi:
            return None
        return f"bracket [{lo!r}, {hi!r}] misses the reference {ref!r}"

    return check


def _bracket_inside(lo_ref, hi_ref):
    def check(summary):
        lo, hi = summary["bracket"]
        if lo_ref < lo <= hi < hi_ref:
            return None
        return f"bracket [{lo!r}, {hi!r}] leaves ({lo_ref!r}, {hi_ref!r})"

    return check


def _slope_within(band):
    def check(summary):
        slope = summary["slope"]
        if band[0] <= slope <= band[1]:
            return None
        return f"box slope {slope!r} outside {band}"

    return check


def _points_equal(count):
    def check(summary):
        if summary["points"] == count:
            return None
        return f"wrote {summary['points']} points, expected {count}"

    return check


def _no_check(summary):
    return None


def _digit_order(rng, digits):
    """A seeded order of the digit set; the system it describes is the same."""
    return [int(d) for d in rng.permutation(digits)]


def _digits(rng, work, seed):
    horizon = 15
    digits = _digit_order(rng, [1, 2])
    cf = _write_config(
        work, "cf12",
        {"kind": "cf", "digits": digits, "horizon": horizon},
        {"n_max": horizon, "depth": 12, "max_points": 8192, "seed": seed},
    )
    asc_horizon = 17
    asc = _write_config(
        work, "ascend-cf12",
        {
            "kind": "ascending", "family": "cf", "base": {"1": 1, "2": 2},
            "horizon": asc_horizon,
            "include": {"prefix": [["1"]], "then": [str(d) for d in digits]},
        },
        {"n_max": asc_horizon - 2, "seed": seed},
    )
    calls = (
        Call("report-cf12", "report", cf, 0, _bracket_contains(CF12_DIM),
             ContinuantZ([digits] * horizon)),
        Call("report-ascend-cf12", "report", asc, 0, _bracket_contains(CF12_DIM),
             ContinuantZ([[1]] + [digits] * (asc_horizon - 1))),
    )
    return calls, (cf, asc)


def _regular_incidence(rng, letters, degree):
    """0/1 matrix with exactly `degree` ones in every row and column."""
    rows, cols = rng.permutation(letters), rng.permutation(letters)
    mat = np.zeros((letters, letters), dtype=np.int8)
    for k in range(degree):
        mat[rows, cols[(np.arange(letters) + k) % letters]] = 1
    return mat


def _transfer(rng, work, seed):
    n, d, horizon = TRANSFER_LETTERS, TRANSFER_DEGREE, TRANSFER_HORIZON
    cycle = [float(r) for r in rng.permutation(TRANSFER_RATIOS)]
    mat = _regular_incidence(rng, n, d)
    path = _write_config(
        work, "transfer",
        {
            "kind": "similarity", "horizon": horizon,
            "ratios": {"cycle": [[r] * n for r in cycle]},
            "matrices": mat.tolist(),
        },
        {"seed": seed},
    )
    # Z_n(t) = n d^(n-1) (r_1 ... r_n)^t, so the pressure zero is exact.
    crossing = 2.0 * math.log(d) / -(math.log(cycle[0]) + math.log(cycle[1]))
    ratios = [cycle[(j - 1) % 2] for j in range(1, horizon + 1)]
    calls = (
        Call("report-transfer", "report", path, 4, _bracket_contains(crossing),
             lambda k, t: similarity_z(n, d, ratios, k, t)),
        Call("check-transfer", "check", path, 4, _no_check),
    )
    return calls, (path,)


def _sampling(rng, work, seed):
    depth = 15
    digits = _digit_order(rng, [1, 2])
    system = {"kind": "cf", "digits": digits, "horizon": depth}
    cf = _write_config(
        work, "cf12-exhaustive", system,
        {"depth": depth, "max_points": 2**depth, "sample_strategy": "exhaustive"},
    )
    cf_random = _write_config(
        work, "cf12-random", system,
        {"depth": 12, "max_points": 1024, "sample_strategy": "random-admissible",
         "seed": seed},
    )
    elliptic = _write_config(
        work, "elliptic-q2",
        {"kind": "elliptic_model", "q": 2, "horizon": 6, "t_star": 1.2,
         "lattice": {"r_min": 3.0, "r_max": 10.0}},
        {"depth": 3, "max_points": 8192, "scale_window": [0.0078125, 0.25]},
    )
    calls = (
        Call("sample-cf12", "sample", cf, 0, _points_equal(2**depth)),
        Call("boxdim-cf12-random", "boxdim", cf_random, 0,
             _slope_within(CF12_BOX_BAND)),
        Call("boxdim-elliptic-q2", "boxdim", elliptic, 0,
             _slope_within(ELLIPTIC_BOX_BAND)),
    )
    return calls, (cf, cf_random, elliptic)


def _digits_wide(rng, work, seed):
    # One digit near 100 pushes continuants past 2^52 by time 8, so every
    # sweep takes the exact-integer word walk.
    horizon = 8
    digits = _digit_order(rng, [1, 2, int(rng.integers(96, 105))])
    path = _write_config(
        work, "cf-wide",
        {"kind": "cf", "digits": digits, "horizon": horizon},
        {"n_max": horizon, "t_grid": 5, "seed": seed},
    )
    # {1, 2} is a sub-alphabet, so the dimension lies above dim E_{1,2}.
    calls = (
        Call("report-cf-wide", "report", path, 0, _bracket_inside(CF12_DIM, 1.0),
             ContinuantZ([digits] * horizon)),
    )
    return calls, (path,)


_BUILDERS = {
    "digits": _digits,
    "transfer": _transfer,
    "sampling": _sampling,
    "digits-wide": _digits_wide,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's config files under `work` and list its calls."""
    rng = np.random.default_rng(seed)
    calls, configs = _BUILDERS[name](rng, work, seed)
    return Workload(name, calls, configs)

"""Golden outputs: CSVs stay byte-identical and box counts stay exact.

The expected values were taken from the code before continuants were
extended per prefix in the word walk and before the one-pass box enumerator;
a change that alters any of them changes the program's output and must say
why.
"""

import hashlib
import json

import pytest

from bowendim import cli, geometry

WIDE_PRESSURE_SHA256 = (
    "3176e53182fb6a4d612bd5cd6391cab41b654e313216bcf24d82b02f6212b833"
)
WIDE_POINTS_SHA256 = (
    "6fee3a2fcb272787d66ea5aefe982563ef70bd63bebcee978dc1a35ed5ef509e"
)
WIDE_BOX_COUNTS = (9, 14, 20, 28, 41, 66, 94, 126, 192, 293, 467)
RANDOM_CF12_BOX_COUNTS = (5, 8, 11, 18, 25, 36, 51, 69, 100, 138, 189)
RANDOM_CF12_FIT = (0.5190428295460183, 0.009124716014352113)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(tmp_path, name, system, params):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(
        {"schema_version": 1, "system": system, "params": params}
    ))
    return str(path)


@pytest.fixture
def box_counts(monkeypatch):
    """Counts of every box-counting fit the CLI makes, in call order."""
    seen = []
    real = geometry.box_counting_dim

    def recording(*args, **kwargs):
        fit = real(*args, **kwargs)
        seen.append(fit.counts)
        return fit

    monkeypatch.setattr(geometry, "box_counting_dim", recording)
    return seen


def test_wide_digits_report(tmp_path, box_counts):
    # continuants of {1, 2, 100} pass 2^52 by time 8: the exact-integer walk
    # and the word-at-a-time sampler write these files
    cfg = _write(
        tmp_path, "wide", {"kind": "cf", "digits": [1, 2, 100], "horizon": 8},
        {"t_grid": 5},
    )
    out = tmp_path / "out"
    assert cli.main(["report", cfg, "--out", str(out)]) in (0, 4)
    assert _sha256(out / "pressure.csv") == WIDE_PRESSURE_SHA256
    assert _sha256(out / "points.csv") == WIDE_POINTS_SHA256
    assert box_counts == [WIDE_BOX_COUNTS]


def test_random_cf12_boxdim(tmp_path, box_counts):
    cfg = _write(
        tmp_path, "cf12", {"kind": "cf", "digits": [1, 2], "horizon": 12},
        {"depth": 12, "max_points": 1024,
         "sample_strategy": "random-admissible", "seed": 7},
    )
    out = tmp_path / "out"
    assert cli.main(["boxdim", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["slope"], summary["stderr"]) == RANDOM_CF12_FIT
    assert box_counts == [RANDOM_CF12_BOX_COUNTS]

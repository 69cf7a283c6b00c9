"""Golden outputs: CSVs stay byte-identical and box counts stay exact.

The expected values of the wide-digit and random-cf12 cases were taken from
the code before continuants were extended per prefix in the word walk and
before the one-pass box enumerator; those of the incidence forms and the
subsystems from the code before every builder went through one assembler.
A change that alters any of them changes the program's output and must say
why.
"""

import hashlib
import json

import pytest

from bowendim import (
    bundled,
    cli,
    extract_subsystem_g_bounded,
    geometry,
    partition,
    reblock_one_primitive,
    reblock_pinched,
)
from bowendim.systems import system_certify, system_primitivity

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


# Config-built systems, one per incidence form the builders accept; the
# params keep every report small.
EDGES = [
    {"label": lbl, "src": src, "dst": dst, "ratio": r, "offset": o}
    for lbl, src, dst, r, o in [
        ("uu1", "u", "u", 0.25, 0.0), ("uu2", "u", "u", 0.2, 0.3),
        ("uw", "u", "w", 0.2, 0.2), ("wu", "w", "u", 0.25, 2.0),
        ("ww1", "w", "w", 0.125, 2.1), ("ww2", "w", "w", 1 / 6, 2.2),
    ]
]
# composable pairs of EDGES, a few of them left out
GDMS_MAT = [
    [1, 0, 1, 0, 0, 0],
    [1, 1, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 0],
    [1, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1],
    [0, 0, 0, 1, 0, 1],
]
GDMS_MAT2 = [
    [0, 0, 1, 0, 0, 0],
    [1, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 0],
    [0, 0, 0, 1, 0, 1],
]
INCIDENCE_FORMS = {
    "banded": (
        {"kind": "similarity", "horizon": 9,
         "ratios": {"cycle": [[0.25, 0.25, 0.25]]},
         "offsets": {"cycle": [[0.0, 0.35, 0.7]]},
         "matrices": {"rule": "banded", "offsets": [0, 1]}},
        0, [0.5, 0.50006103515625],
        "39b06d7a689ccf02105c59857846bb4231f6913789d4e3c5329d54c405cc77cd",
        "642dc8be22a4bc0ef12c2215442e14ee7b12b9b9f234df53729f3579c30a0bc1",
    ),
    "identity": (
        {"kind": "cf", "horizon": 8, "digits": [1, 2, 3], "matrices": "identity"},
        4, [0.0, 6.103515625e-05],
        "a438c3245332f53dcd08365bd0c3cfd67be4996b4490fb539c3d587009bcb36c",
        "c5ebc581be7517db1f6c3be96069af7ee4a33c1ef2fef0a839e508f031cf8388",
    ),
    "reused-array": (
        {"kind": "cf", "horizon": 10, "digits": [1, 2],
         "matrices": [[1, 1], [1, 0]]},
        0, [0.41680908203125, 0.4168701171875],
        "186e6ffa2e3d627400bb9145ec706d69a34455ea995a81b92fca1dea32e70d13",
        "6e3f8ccb63c645cb6443fae3ba35602948b821c098c43ee7989026f6423d4b4b",
    ),
    "per-step-arrays": (
        {"kind": "similarity", "horizon": 4,
         "ratios": [[0.4, 0.4], [0.3, 0.3, 0.3], [0.4, 0.4], [0.3, 0.3, 0.3]],
         "matrices": [[[1, 1, 0], [0, 1, 1]], [[1, 0], [1, 1], [0, 1]],
                      [[1, 1, 1], [1, 0, 1]]]},
        4, [0.62335205078125, 0.6234130859375],
        "e4cdd1e4f1d0905865458502f549ee56ce2d2819bf02d3c8eb103199a655bcf0",
        "5d524713a68a80ec4ac384430ebf18c8f146e225ad9fdd68d84e7425d9a113b0",
    ),
    "gdms-reused-array": (
        {"kind": "gdms", "horizon": 10, "vertices": {"cycle": [["u", "w"]]},
         "spaces": {"u": [0.0, 1.0], "w": [2.0, 3.0]},
         "edges": {"cycle": [EDGES]}, "matrices": GDMS_MAT},
        0, [0.51361083984375, 0.513671875],
        "4c62026a427b7c3ad4c99bf82ad9132d2a1825f2ff32db574ec37f1ee6666afc",
        "a50a8a0d9ba81b7e0de6ae124e6d87b09337272ca91ca27cc23ef5faa84a26e5",
    ),
    "gdms-per-step-arrays": (
        {"kind": "gdms", "horizon": 5, "vertices": {"cycle": [["u", "w"]]},
         "spaces": {"u": [0.0, 1.0], "w": [2.0, 3.0]},
         "edges": {"cycle": [EDGES]},
         "matrices": [GDMS_MAT, GDMS_MAT2, GDMS_MAT, GDMS_MAT2]},
        4, [0.3743896484375, 0.37445068359375],
        "55089867f5bcfced6482a399023d842e117d5f23392135dd5395abf833227686",
        "af9da0c736f40203964c15e81d4971daab61f837ead87afaf82962f17de4763d",
    ),
}


@pytest.mark.parametrize("form", sorted(INCIDENCE_FORMS))
def test_incidence_form_report(tmp_path, form):
    system, code, bracket, pressure_sha, points_sha = INCIDENCE_FORMS[form]
    params = {"t_grid": 7, "depth": min(system["horizon"], 6), "max_points": 8192}
    cfg = _write(tmp_path, form, system, params)
    out = tmp_path / "out"
    assert cli.main(["report", cfg, "--out", str(out)]) == code
    assert json.loads((out / "summary.json").read_text())["bracket"] == bracket
    assert _sha256(out / "pressure.csv") == pressure_sha
    assert _sha256(out / "points.csv") == points_sha


SUBSYSTEM_SUMMARIES = {
    ("gdms2v", "blocks"): {
        "blocks": 3, "letters_per_block": [2, 2, 2],
        "pairs": [["uu1", "uu1"], ["uu1", "uu1"], ["uu1", "uu1"]],
        "sandwich_constant": 7.512949791260145,
    },
    ("gdms2v", "uniform"): {"blocks": 8, "letters_per_block": [18] * 8, "p": 2},
    ("pinch2", "pinched"): {"blocks": 6, "letters_per_block": [2] * 6},
}


@pytest.mark.parametrize("name, mode", sorted(SUBSYSTEM_SUMMARIES))
def test_subsystem_summary(tmp_path, name, mode):
    out = tmp_path / "out"
    assert cli.main(["subsystem", name, "--mode", mode, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    expected = dict(SUBSYSTEM_SUMMARIES[(name, mode)], command="subsystem", mode=mode)
    assert {k: v for k, v in summary.items() if k != "meta"} == expected


def _derived(mode):
    gdms, pinch = bundled.gdms2v(), bundled.pinch2()
    if mode == "blocks":
        return extract_subsystem_g_bounded(gdms, system_certify(gdms, 1), 3, 0.5).system
    if mode == "uniform":
        return reblock_one_primitive(gdms, system_primitivity(gdms))
    return reblock_pinched(pinch, [2, 4, 6, 8, 10, 12])


SUBSYSTEM_PARTITIONS = {
    "blocks": (0.11840169943749473, 0.014018962429686843, 0.0016598689760253125),
    "uniform": (3.5435714971333963, 6.3245841725525125, 11.294606732758478),
    "pinched": (0.5303300858899107, 0.28125, 0.14915533665653738),
}


@pytest.mark.parametrize("mode", sorted(SUBSYSTEM_PARTITIONS))
def test_subsystem_partitions(mode):
    # the derived systems' composed maps, through Z_n(1/2) at n = 1, 2, 3
    sub = _derived(mode)
    values = tuple(partition(sub, 1, n, 0.5, "enumerate-exact").hi for n in (1, 2, 3))
    assert values == SUBSYSTEM_PARTITIONS[mode]

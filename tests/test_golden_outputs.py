"""Golden outputs: CSVs stay byte-identical and box counts stay exact.

The expected values of the wide-digit and random-cf12 cases were taken from
the code before continuants were extended per prefix in the word walk and
before the one-pass box enumerator; those of the incidence forms and the
subsystems from the code before every builder went through one assembler;
those of the irregular dense system from the code before dense transfers
were summed per in-degree group and primitivity products went boolean.
The points.csv hashes were re-recorded when `PointCloud.rows()` began to
yield plain Python floats: numpy 2 wrote the coordinates as `np.float64(x)`,
and the new files equal the old ones with that wrapper removed.  The random
cf12 fit and counts were re-recorded when the random sampler moved to one
row-major `default_rng(seed).random((max_points, depth))` draw, which picks
different words than the old per-point streams.  The wide-digit
pressure.csv hash was re-recorded when digit systems moved from the
exact-integer word walk to the float-continuant sweep: 5 of its 40 rows
moved in the last digits, the four at n = 8 (the one level past 2^53, which
now carries an outward bracket) and one at n = 5 (numpy's power and Python's
`**` differ in the last bit there).  The bundled-system fingerprints were
taken while `bundled.py` still spelled each system out in Python, before the
packaged configs became their one definition.  The `sample` hashes of
points.csv and cover.csv were taken while both were written row by row and
each word label was joined from letters traced back through the sweep,
before the writer took columns and labels were extended per level.  A
change that alters any of them changes the program's output and must say
why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bowendim import (
    _frontier,
    bowen_dimension,
    bundled,
    certify_primitivity,
    cli,
    extract_subsystem_g_bounded,
    find_primitivity,
    geometry,
    reblock_one_primitive,
    reblock_pinched,
)
from bowendim.config import build_from_spec, load_config

WIDE_PRESSURE_SHA256 = (
    "73e4a19ed0a059f0a315c920a4c1ca2f959c8128893767a3e2bd3a0e8be05149"
)
WIDE_POINTS_SHA256 = (
    "af3c72a0cbac8fab7bd17ac1504dfe68ab150f957b0b09c1d7bf415789172456"
)
WIDE_BOX_COUNTS = (9, 14, 20, 28, 41, 66, 94, 126, 192, 293, 467)
RANDOM_CF12_BOX_COUNTS = (5, 8, 11, 18, 25, 35, 50, 68, 96, 133, 187)
RANDOM_CF12_FIT = (0.514160271753398, 0.009035722557750887)


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
    # continuants of {1, 2, 100} pass 2^53 at time 8, so that level of
    # pressure.csv has z_lo < z_hi; the report shrinks its default depth to 7 to
    # fit 4096 points, and 101^7 < 2^52, so the vectorized reciprocal-shift
    # point state samples points.csv
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


# `sample` on bundled systems: points.csv, then cover.csv (the level-3
# cells; level 2 at depth 2)
SAMPLE_OUTPUTS = {
    "cf12-exhaustive": (
        ["cf12", "--depth", "12", "--max-points", "4096"],
        "b403ebe32e2255f74d7f876b560ca53de043dcf824caff7de75bbe3367ce431f",
        "4f27ab6af9a41116207a6ae0bf2bce05c31767fb36ea112f9c0cf05ce8a6fc8c",
    ),
    "cf12-random": (
        ["cf12", "--depth", "12", "--max-points", "1024",
         "--sample-strategy", "random-admissible", "--seed", "7"],
        "ec61345fbc50312556aec820837835c597b60c0bc99e0b29f7d7f6656ce029be",
        "4f27ab6af9a41116207a6ae0bf2bce05c31767fb36ea112f9c0cf05ce8a6fc8c",
    ),
    "gdms2v-exhaustive": (
        ["gdms2v", "--depth", "6", "--max-points", "8192"],
        "5cfc8efec7bf7f0668820534ce7ce6234d6b048391f5d4a42da79c8d849c939d",
        "5d2ed85ff3047cf4b51432de533cdb4fded6fb116c0355d8a3e70673dd222a6a",
    ),
    "gdms2v-random": (
        ["gdms2v", "--depth", "8", "--max-points", "512",
         "--sample-strategy", "random-admissible", "--seed", "3"],
        "3d895d09e28e1693174bc978696a03411a9b45360afe3e95f50d1fe0f9afc616",
        "5d2ed85ff3047cf4b51432de533cdb4fded6fb116c0355d8a3e70673dd222a6a",
    ),
    "elliptic-q2-exhaustive": (
        ["elliptic-q2", "--depth", "2", "--max-points", "8192"],
        "581eab3bb8a288e290c653f2107a2145183bd68a44617add1659d76f5b951ebc",
        "187b93939a18c9fe78efd3e65159950db984a0a2961e8286a5bce8f8cfb937c7",
    ),
}


@pytest.mark.parametrize("case", sorted(SAMPLE_OUTPUTS))
def test_sample_outputs(tmp_path, case):
    (name, *args), points_sha, cover_sha = SAMPLE_OUTPUTS[case]
    out = tmp_path / "out"
    assert cli.main(["sample", name, "--out", str(out), *args]) == 0
    assert _sha256(out / "points.csv") == points_sha
    assert _sha256(out / "cover.csv") == cover_sha


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
        "e32ac969f1c04c093e5af2e72b0270d1cf84b1813ff00906056b5f4787f2f2a0",
    ),
    "identity": (
        {"kind": "cf", "horizon": 8, "digits": [1, 2, 3], "matrices": "identity"},
        4, [0.0, 6.103515625e-05],
        "a438c3245332f53dcd08365bd0c3cfd67be4996b4490fb539c3d587009bcb36c",
        "4636119a5dea80b87be4f4956f8118c15fcff44bcc82d8ef17b78d190293b8cc",
    ),
    "reused-array": (
        {"kind": "cf", "horizon": 10, "digits": [1, 2],
         "matrices": [[1, 1], [1, 0]]},
        0, [0.41680908203125, 0.4168701171875],
        "186e6ffa2e3d627400bb9145ec706d69a34455ea995a81b92fca1dea32e70d13",
        "742f9c86359d10171feb175879f1da11180ab72925fc0df69315494d7a8e969c",
    ),
    "per-step-arrays": (
        {"kind": "similarity", "horizon": 4,
         "ratios": [[0.4, 0.4], [0.3, 0.3, 0.3], [0.4, 0.4], [0.3, 0.3, 0.3]],
         "matrices": [[[1, 1, 0], [0, 1, 1]], [[1, 0], [1, 1], [0, 1]],
                      [[1, 1, 1], [1, 0, 1]]]},
        4, [0.62335205078125, 0.6234130859375],
        "e4cdd1e4f1d0905865458502f549ee56ce2d2819bf02d3c8eb103199a655bcf0",
        "2dd981d98f08950ec765e6e550590a0fd7f9842423ecdc9a88e6ff33e4bc15ed",
    ),
    "gdms-reused-array": (
        {"kind": "gdms", "horizon": 10, "vertices": {"cycle": [["u", "w"]]},
         "spaces": {"u": [0.0, 1.0], "w": [2.0, 3.0]},
         "edges": {"cycle": [EDGES]}, "matrices": GDMS_MAT},
        0, [0.51361083984375, 0.513671875],
        "4c62026a427b7c3ad4c99bf82ad9132d2a1825f2ff32db574ec37f1ee6666afc",
        "cce4a3624190706ad6db237bf78c17ebbb811613b028c11959056abbf425c6bc",
    ),
    "gdms-per-step-arrays": (
        {"kind": "gdms", "horizon": 5, "vertices": {"cycle": [["u", "w"]]},
         "spaces": {"u": [0.0, 1.0], "w": [2.0, 3.0]},
         "edges": {"cycle": [EDGES]},
         "matrices": [GDMS_MAT, GDMS_MAT2, GDMS_MAT, GDMS_MAT2]},
        4, [0.3743896484375, 0.37445068359375],
        "55089867f5bcfced6482a399023d842e117d5f23392135dd5395abf833227686",
        "147685fb339709077aa9699943c940a46bcf2054fb07c0cc528f2e200c7f7bb9",
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


def _summary_sha256(out):
    """SHA-256 of summary.json without `meta`, keys sorted."""
    summary = json.loads((out / "summary.json").read_text())
    summary.pop("meta")
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def _irregular(n=40):
    """0/1 incidence whose column b is empty when b % 10 == 9 and otherwise
    holds the rows a with (a + 3b) % step(b) == 0: in-degrees 0, 2-5, 8, 14."""
    steps = (3, 5, 8, 11, 14)
    return [
        [int(b % 10 != 9 and (a + 3 * b) % steps[b % 5] == 0) for b in range(n)]
        for a in range(n)
    ]


IRREGULAR = {
    "kind": "similarity", "horizon": 6, "matrices": _irregular(),
    "ratios": {"cycle": [
        [(0.5 + 0.5 * (k * 7 % 11) / 11) / 40 for k in range(40)],
        [(0.4 + 0.6 * (k * 5 % 13) / 13) / 40 for k in range(40)],
    ]},
}
IRREGULAR_OUTPUTS = {
    "report": (
        4, "40ed03b42783decb0ecaaa32c2a3dea4700163757d29378e1563eb72acfef2ab",
        "4147aed2551d0230214a7e75734e8beb7a275cbf7f0e38163d8a7e8742573fb2",
        "09d77778b2f28265b50c9c38ad304933d3e40d322ce5820fb7c9a903079cf249",
    ),
    "check": (
        4, "baa7e2ef3ea9396718c2edaa69b2d70fd0963f7714d4df358ea0b2af9aebe305",
        None, None,
    ),
}


@pytest.mark.parametrize("command", sorted(IRREGULAR_OUTPUTS))
def test_irregular_dense_outputs(tmp_path, command):
    # transfer sums over columns with up to 14 ones (numpy's pairwise
    # regime), pruned unreachable letters, and primitivity found at p = 4
    code, summary_sha, pressure_sha, points_sha = IRREGULAR_OUTPUTS[command]
    cfg = _write(tmp_path, "irregular", IRREGULAR,
                 {"t_grid": 7, "depth": 3, "max_points": 8192})
    out = tmp_path / "out"
    assert cli.main([command, cfg, "--out", str(out)]) == code
    assert _summary_sha256(out) == summary_sha
    if pressure_sha is not None:
        assert _sha256(out / "pressure.csv") == pressure_sha
        assert _sha256(out / "points.csv") == points_sha


def test_dense_summary_stays_small(tmp_path):
    # meta names the 300x300 matrix by its hash instead of echoing it
    n = 300
    mat = [[int((b - a) % n < 3) for b in range(n)] for a in range(n)]
    system = {"kind": "similarity", "horizon": 6, "matrices": mat,
              "ratios": {"cycle": [[0.5 / n] * n, [0.25 / n] * n]}}
    cfg = _write(tmp_path, "dense", system, {})
    out = tmp_path / "out"
    assert cli.main(["check", cfg, "--out", str(out)]) == 4
    assert (out / "summary.json").stat().st_size < 16 * 1024
    meta = json.loads((out / "summary.json").read_text())["meta"]
    assert "system" not in meta
    assert meta["system_sha256"] == hashlib.sha256(
        json.dumps(system, sort_keys=True).encode()
    ).hexdigest()


def test_spec_hash_equals_one_dump():
    # cli hashes the spec piece by piece; the digest is that of one dump
    configs = sorted((Path(cli.__file__).parent / "configs").glob("*.json"))
    specs = [IRREGULAR] + [spec for spec, *_ in INCIDENCE_FORMS.values()] + [
        json.loads(path.read_text())["system"] for path in configs
    ] + [{}, {"kind": "bundled", "name": "cf12"}, {"a": [], "b": [[], [1]], "\u00e9": None}]
    for spec in specs:
        want = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()
        assert cli._spec_sha256(spec) == want


# a blocks-mode sandwich_constant is K^2 M^p / Q^t, with Q the least norm of
# the connectors the subsystem inserts
SUBSYSTEM_SUMMARIES = {
    ("gdms2v", "blocks"): {
        "blocks": 3, "letters_per_block": [2, 2, 2],
        "pairs": [["uu1", "uu1"], ["uu1", "uu1"], ["uu1", "uu1"]],
        "sandwich_constant": 5.312457744114106,
    },
    ("gdms2v", "uniform"): {"blocks": 8, "letters_per_block": [18] * 8, "p": 2},
    ("pinch2", "blocks"): {
        "blocks": 2, "letters_per_block": [1, 1],
        "pairs": [["wa", "wa"], ["wa", "wa"]],
        "sandwich_constant": 1.7071067811865472,
    },
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
        return extract_subsystem_g_bounded(gdms, certify_primitivity(gdms.schedule, 1), 3, 0.5).system
    if mode == "uniform":
        return reblock_one_primitive(gdms, find_primitivity(gdms.schedule, 4))
    return reblock_pinched(pinch, [2, 4, 6, 8, 10, 12])


SUBSYSTEM_PARTITIONS = {
    "blocks": (0.11840169943749473, 0.014018962429686843, 0.0016598689760253125),
    "uniform": (3.5435714971333963, 6.3245841725525125, 11.294606732758478),
    "pinched": (0.5303300858899107, 0.28125, 0.14915533665653738),
}


@pytest.mark.parametrize("mode", sorted(SUBSYSTEM_PARTITIONS))
def test_subsystem_partitions(mode):
    # the derived systems' composed maps, through the enumerated Z_n(1/2) at
    # n = 1, 2, 3
    sub = _derived(mode)
    values = tuple(
        _frontier.level_norms(sub, 1, n).power_sums(0.5)[n][1] for n in (1, 2, 3)
    )
    assert values == SUBSYSTEM_PARTITIONS[mode]


# SHA-256 of each bundled system's structure, at its packaged horizon and at
# horizon 8; see `_fingerprint` for the fields
BUNDLED_FINGERPRINTS = {
    "cantor3": (
        "24b8092acdd2f406403659c6c155bdceb1bcbc62ef6c798bfaf34e5ca20aab50",
        "c8b34606c3841dce027961e34147ebbd63773ec1e5a851cb9983e648c1b68f39",
    ),
    "interval2": (
        "81c3dc52a06a38227fdd80b74ac99b49efd825d8af19d11e1fd7a0ce996b18f7",
        "4e3392957bf69799b9582647b7c3fa3ed8e0c0604d226880ff408397eacb19fe",
    ),
    "alt24": (
        "a899ef83f535fda0bf05862a6db29143c3e615e95a8e5964a2f38b7446ba76a1",
        "84ec675326846b90782d92d9aed091694f1452e14f442990f38694477fce2c1b",
    ),
    "cf12": (
        "1cc19791891aefffd827c79ba7b7619cf9ef9153a84f704a60db613ba6cc5ff3",
        "b077a4a47a4bf5b2adbdfb841dc985a2844e0de8f87e4b2ef728927482774492",
    ),
    "ab-half": (
        "8038a8492e09b220b36b0d38f8eede47a55667d7ebfa63af4e0003dfe4e03f76",
        "932d39113715d52e568ba67aceb0a4db7fdfa65d3a452ea1b5f0d508769911ac",
    ),
    "ascend-cf12": (
        "659237c75af6eb3fb1dc3c432f21179b725dab1c5710ba3b223289f5ba3e9d58",
        "401c2390fa1634870db83199f42a6fda19a54dfd5c9226de566b351cf06e27f1",
    ),
    "gdms2v": (
        "eab45ade7ecba29ec28bc93af280356ac1cf5d044753eb6cba00d5f04c48b8d4",
        "f84a238be7316464df33b069fa95930b02f2197b3fc1d79a80c2b100e1ca8262",
    ),
    "perm2": (
        "da7e3e2bd8fbabe6c9ce0bb47034110d6da0674b4b8b3eb76c9a7432f3807d79",
        "5014cfce4dbd8b1c8ea23157e930a48f3408c9c7cf3fbee9793633a58bd8c09d",
    ),
    "pinch2": (
        "362c380db0116f33ab0ddab62e2b8ed4ea2907597ea1a8d4cf96de35d8626019",
        "74fd124cd9f281d1ebe00f16bc0c8233d83fbde14251875d44555db9bb23693c",
    ),
    "elliptic-q2": (
        "f3152772c13c3280966fccad22ce8ae191d0d87e50c9cf9f1d1192f921c1c78b",
        "408f6897e234d25f4d6e473b9a9b2b26549cf0d84550e45a8970e3a5d40888fb",
    ),
}


def _fingerprint(system):
    """SHA-256 of the vertex sets, alphabets, incidence types and matrices,
    spaces, maps, dim, declared distortion, tail rule (by `vars`) and flags;
    `provenance` and `notes` are left out."""
    digest = hashlib.sha256()
    sched = system.schedule
    digest.update(repr((sched.vertex_sets, sched.alphabets)).encode())
    for inc in sched.incidence[1:]:
        mat = inc.matrix()
        digest.update(repr((type(inc).__name__, mat.shape)).encode())
        digest.update(np.packbits(mat).tobytes())
    tail = None if system.tail_rule is None else sorted(vars(system.tail_rule).items())
    digest.update(repr((
        system.spaces, system.maps, system.dim, system.declared_distortion,
        tail, sorted(system.flags),
    )).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(BUNDLED_FINGERPRINTS))
def test_bundled_fingerprints_on_every_route(name):
    # the Python function, the CLI's bundled name and a {"kind": "bundled"} spec
    packaged, at_8 = BUNDLED_FINGERPRINTS[name]
    spec = {"kind": "bundled", "name": name}
    assert _fingerprint(bundled.BUNDLED[name]()) == packaged
    assert _fingerprint(load_config(name)[1]) == packaged
    assert _fingerprint(build_from_spec(spec)) == packaged
    assert _fingerprint(bundled.BUNDLED[name](horizon=8)) == at_8
    assert _fingerprint(build_from_spec(dict(spec, overrides={"horizon": 8}))) == at_8


# SHA-256 of the derived systems (see `_fingerprint`).  Block subsystems keep
# the original vertex names ("u"), not one name per time ("u@1").
DERIVED_FINGERPRINTS = {
    "blocks": "4a521fd48eeb2d41b1631c371effa96e7d42467f4c4bbee5c87ddaaa70caa1c2",
    "uniform": "18f16ec434a227c854a2d4439dde78ee7bb8aa831279e1372a48cd3a47a604ca",
    "pinched": "ea7e9b7f867123c01aa9326ccbb5114920c59cef86d49690caeb0ca36b92c439",
}


@pytest.mark.parametrize("mode", sorted(DERIVED_FINGERPRINTS))
def test_derived_fingerprints(mode):
    assert _fingerprint(_derived(mode)) == DERIVED_FINGERPRINTS[mode]


def test_block_subsystem_of_an_autonomous_system_is_autonomous():
    # original vertex names keep every block alike, so the report can name
    # the autonomous identity; the bracket is the one the renamed form gave
    gdms = bundled.gdms2v(16)
    sub = extract_subsystem_g_bounded(gdms, certify_primitivity(gdms.schedule, 1), 3, 0.5).system
    res = bowen_dimension(sub, (0, 0.99), sub.horizon)
    assert res.hypothesis.justification == "autonomous-system"
    assert res.bracket == (0.12254150390624999, 0.12260192871093749)

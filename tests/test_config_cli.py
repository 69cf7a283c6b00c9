"""Config ingestion, CLI dispatch, exit codes, emitted artifacts."""

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowendim import SchemaError, cli, count_words, sample_limit_set
from bowendim.cli import main
from bowendim.config import load_config

T_STAR3 = math.log(2) / math.log(3)


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadConfig:
    def test_bundled_name_resolves(self):
        cfg, system = load_config("cantor3")
        assert system.is_ncifs
        assert system.contraction.eta_block == pytest.approx(1 / 3)

    def test_packaged_config_files_load(self):
        import bowendim

        cfg_dir = Path(bowendim.__file__).parent / "configs"
        paths = sorted(cfg_dir.glob("*.json"))
        assert len(paths) >= 10
        for path in paths:
            _, system = load_config(str(path))
            assert system.horizon >= 2

    def test_full_cf_schedule_level2_count(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "cf.json",
            {
                "schema_version": 1,
                "system": {"kind": "cf", "horizon": 6, "digits": [1, 2]},
            },
        )
        _, system = load_config(path)
        assert count_words(1, 2, system.schedule) == 4

    def test_schema_violation_reports_field_path(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "bad.json",
            {"schema_version": 1, "system": {"kind": "mystery"}},
        )
        with pytest.raises(SchemaError) as exc:
            load_config(path)
        assert exc.value.path == "system.kind"

    def test_wrong_version_rejected(self, tmp_path):
        path = write_cfg(
            tmp_path, "v.json", {"schema_version": 99, "system": {}}
        )
        with pytest.raises(SchemaError) as exc:
            load_config(path)
        assert exc.value.path == "schema_version"

    def test_window_validated_against_horizon(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "w.json",
            {
                "schema_version": 1,
                "system": {"kind": "cf", "horizon": 6, "digits": [1, 2]},
                "params": {"window": [2, 50]},
            },
        )
        with pytest.raises(SchemaError) as exc:
            load_config(path)
        assert exc.value.path == "params.window"

    def test_explicit_matrix_forms(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "m1.json",
            {
                "schema_version": 1,
                "system": {"kind": "cf", "horizon": 6, "digits": [1, 2],
                            "matrices": [[1, 1], [1, 0]]},
            },
        )
        _, system = load_config(path)
        assert [count_words(1, n, system.schedule) for n in range(1, 5)] == [
            2, 3, 5, 8,
        ]
        path2 = write_cfg(
            tmp_path,
            "m2.json",
            {
                "schema_version": 1,
                "system": {
                    "kind": "cf", "horizon": 4, "digits": [1, 2],
                    "matrices": [
                        [[1, 1], [1, 0]], [[1, 0], [0, 1]], [[1, 1], [1, 1]],
                    ],
                },
            },
        )
        _, sys2 = load_config(path2)
        assert count_words(1, 4, sys2.schedule) == 6

    def test_banded_rule_matrices(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "band.json",
            {
                "schema_version": 1,
                "system": {
                    "kind": "similarity",
                    "horizon": 6,
                    "ratios": {"cycle": [[0.25, 0.25, 0.25]]},
                    "offsets": {"cycle": [[0.0, 0.35, 0.7]]},
                    "matrices": {"rule": "banded", "offsets": [0, 1]},
                },
            },
        )
        _, system = load_config(path)
        # each letter has exactly two followers under the band
        from bowendim import growth_stats

        stats = growth_stats(system.schedule)
        assert set(stats.g_lo) == {2} and set(stats.g_hi) == {2}


def _similarity2(matrices):
    return {"kind": "similarity", "horizon": 4, "matrices": matrices,
            "ratios": {"cycle": [[0.3, 0.3]]}, "offsets": {"cycle": [[0.0, 0.6]]}}


_TRUE_VERTEX = {
    "kind": "gdms", "horizon": 4, "vertices": {"cycle": [["true"]]},
    "spaces": {"true": [0, 1]}, "matrices": [[1, 1], [1, 0]],
    "edges": {"cycle": [[
        {"label": "a", "src": "true", "dst": "true", "ratio": 0.3, "offset": 0},
        {"label": "b", "src": "true", "dst": "true", "ratio": 0.3, "offset": 0.6},
    ]]},
}

# name: (system spec, whether the loader renders its matrices from arrays)
DIGEST_SPECS = {
    "ints": (_similarity2([[1, 1], [1, 0]]), True),
    "bools": (_similarity2([[True, True], [True, False]]), False),
    "bool-int-mix": (_similarity2([[1, True], [1, 0]]), False),
    "floats": (_similarity2([[1.0, 1.0], [1.0, 0.0]]), False),
    "per-step": (_similarity2([[[1, 1], [1, 0]], [[1, 0], [0, 1]], [[1, 1], [1, 1]]]),
                 True),
    "true-string": (_TRUE_VERTEX, False),
    "bundled": ({"kind": "bundled", "name": "gdms2v"}, False),
}


@pytest.mark.parametrize("name", sorted(DIGEST_SPECS))
def test_digest_through_the_loader_equals_one_dump(tmp_path, name):
    # summary.json's system_sha256 is the SHA-256 of one canonical dump of
    # the spec as written, whichever way the loader read its matrices
    spec, from_arrays = DIGEST_SPECS[name]
    path = write_cfg(tmp_path, "c.json", {"schema_version": 1, "system": spec})
    cfg, _ = load_config(path)
    assert bool(cfg.int_matrices) == from_arrays
    out = tmp_path / "out"
    assert main(["check", path, "--out", str(out)]) in (0, 4)
    meta = json.loads((out / "summary.json").read_text())["meta"]
    want = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()
    assert meta["system_sha256"] == want


class TestCliExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        path = write_cfg(tmp_path, "bad.json", {"schema_version": 1, "system": {"kind": "similarity", "horizon": 4, "ratios": 5}})
        assert main(["check", path, "--out", str(tmp_path / "o")]) == 2

    def test_contraction_rejection_is_3(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "exp.json",
            {
                "schema_version": 1,
                "system": {
                    "kind": "similarity",
                    "horizon": 4,
                    "ratios": {"cycle": [[1.2, 0.3]]},
                    "offsets": {"cycle": [[0.0, 0.5]]},
                },
            },
        )
        assert main(["check", path, "--out", str(tmp_path / "o")]) == 3

    def test_escaping_gdms_letter_is_3(self, tmp_path, capsys):
        edge = {"label": "ww", "src": "w", "dst": "w", "ratio": 0.25, "offset": 2.8}
        path = write_cfg(tmp_path, "esc.json", {
            "schema_version": 1,
            "system": dict(self.GDMS1, vertices={"cycle": [["w"]]},
                           spaces={"w": [2.0, 3.0]}, edges={"cycle": [[edge]]}),
        })
        assert main(["check", path, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "semantic error: image of letter 'ww' at time 1 escapes its"
            " codomain: (3.3, 3.55) not within (2.0, 3.0)\n"
        )

    def test_degenerate_image_is_3(self, tmp_path, capsys):
        # packed offsets put the letters at 0 and 1/2; the second image is
        # narrower than an ulp of 1/2, and the message names its letter
        path = write_cfg(tmp_path, "degen.json", {
            "schema_version": 1,
            "system": {"kind": "similarity", "horizon": 3,
                       "ratios": {"cycle": [[1e-300, 1e-300]]}},
        })
        assert main(["check", path, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "semantic error: image of letter 'm1' at time 1 collapses:"
            " degenerate interval (0.5, 0.5)\n"
        )

    @pytest.mark.parametrize("command", ["check", "report"])
    @pytest.mark.parametrize("ratio", [1e-200, 1e-320])
    def test_tiny_ratios_never_raise(self, tmp_path, command, ratio):
        # lo * hi of the evenly-varying check underflowed to 0 before its log
        path = write_cfg(tmp_path, "tiny.json", {
            "schema_version": 1,
            "system": {"kind": "similarity", "horizon": 3,
                       "ratios": {"cycle": [[ratio, 0.5]]}},
        })
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "bowendim.cli", command, path,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode in (0, 4)
        assert "Traceback" not in proc.stderr

    def test_sub_ulp_images_report(self, tmp_path):
        # digit 173 makes some depth-7 images narrower than one float64 ulp
        path = write_cfg(
            tmp_path,
            "cf173.json",
            {
                "schema_version": 1,
                "system": {"kind": "cf", "digits": [1, 2, 173], "horizon": 7},
                "params": {"t_grid": 5},
            },
        )
        out = tmp_path / "o"
        assert main(["report", path, "--out", str(out)]) in (0, 4)
        assert (out / "points.csv").exists()

    def test_hypotheses_failed_is_4(self, tmp_path, capsys):
        assert main(["report", "perm2", "--out", str(tmp_path / "o4"),
                     "--n-max", "8", "--t-bracket", "0.0", "0.9",
                     "--depth", "5", "--max-points", "64"]) == 4
        summary = json.loads((tmp_path / "o4" / "summary.json").read_text())
        assert summary["hypotheses"]["bowen_formula_supported"] is False

    def test_budget_is_5_with_partial_marker(self, tmp_path):
        code = main(
            ["dimension", "cf12", "--out", str(tmp_path / "o5"), "--budget", "64"]
        )
        assert code == 5
        summary = json.loads((tmp_path / "o5" / "summary.json").read_text())
        assert summary["partial"] is True

    @pytest.mark.parametrize(
        "name, overrides, code",
        [
            # 2^23 letters: refused at the powers generator, before any is built
            ("ab-half", {"horizon": 23}, 2),
            # an odd horizon builds, and the check reports failed hypotheses
            ("pinch2", {"horizon": 13}, 4),
            # above the threshold 4/3 no finite pole set is selected
            ("elliptic-q2", {"t_star": 1.5}, 2),
        ],
    )
    def test_bundled_overrides(self, tmp_path, name, overrides, code):
        path = write_cfg(tmp_path, "b.json", {
            "schema_version": 1,
            "system": {"kind": "bundled", "name": name, "overrides": overrides},
        })
        assert main(["check", path, "--out", str(tmp_path / "o")]) == code

    def test_uniform_blocks_past_the_dense_cap_is_5(self, tmp_path):
        # 71 letters with complete incidence: 71^2 = 5041 block words at p = 2
        path = write_cfg(tmp_path, "wide.json", {
            "schema_version": 1,
            "system": {"kind": "similarity", "horizon": 4,
                       "ratios": {"cycle": [[0.01] * 71]}},
        })
        out = tmp_path / "o"
        args = ["subsystem", path, "--mode", "uniform", "--p", "2", "--out", str(out)]
        assert main(args) == 5
        assert json.loads((out / "summary.json").read_text())["partial"] is True

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("cf12", ["--mode", "uniform", "--p", "-1"]),
            ("cf12", ["--mode", "blocks", "--p", "-1"]),
            ("alt24", ["--mode", "uniform", "--p", "-1"]),
            ("ascend-cf12", ["--mode", "blocks", "--p", "-1"]),
            ("pinch2", ["--mode", "pinched", "--pinch-times", "0", "2"]),
        ],
        ids=["cf12-uniform", "cf12-blocks", "alt24-uniform", "ascend-cf12-blocks",
             "pinch2-time-0"],
    )
    def test_out_of_range_subsystem_flags_are_2(self, tmp_path, name, flags):
        # these once ended in an IndexError or AttributeError traceback
        proc = subprocess.run(
            [sys.executable, "-m", "bowendim.cli", "subsystem", name,
             "--out", str(tmp_path / "o")] + flags,
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_ok_is_0(self, tmp_path):
        assert main(
            ["dimension", "cantor3", "--out", str(tmp_path / "o0"), "--n-max", "12"]
        ) == 0

    def test_window_past_n_max_is_2(self, tmp_path, capsys):
        # this once summed levels up to 30 while summary.json read horizon 10
        path = write_cfg(tmp_path, "w.json", {
            "schema_version": 1, "system": {"kind": "bundled", "name": "cantor3"},
            "params": {"n_max": 10, "window": [15, 30]},
        })
        out = tmp_path / "o"
        assert main(["dimension", path, "--out", str(out)]) == 2
        assert "ends past n_max=10" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_strategy_is_not_a_run_setting(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "s.json", {
            "schema_version": 1, "system": {"kind": "bundled", "name": "cantor3"},
            "params": {"strategy": "auto"},
        })
        assert main(["report", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error at params.strategy: unknown parameter\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["dimension", "cantor3", "--strategy", "auto"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --strategy" in capsys.readouterr().err

    CF6 = {"kind": "cf", "horizon": 6, "digits": [1, 2]}
    GDMS1 = {
        "kind": "gdms", "horizon": 4, "vertices": {"cycle": [["u"]]},
        "spaces": {"u": [0.0, 1.0]},
        "edges": {"cycle": [[
            {"label": "a", "src": "u", "dst": "u", "ratio": 0.3, "offset": 0.0},
            {"label": "b", "src": "u", "dst": "u", "ratio": 0.3, "offset": 0.6},
        ]]},
    }

    @pytest.mark.parametrize(
        "system, params, flags",
        [
            (CF6, {"max_points": "abc"}, []),
            (CF6, {"t_grid": 1}, []),
            (CF6, {}, ["--t-grid", "1"]),
            (CF6, {"window": [1, "x"]}, []),
            (CF6, {"scale_window": [0.1]}, []),
            ({"kind": "cf", "horizon": 6, "digits": ["x", 2]}, {}, []),
            (
                {"kind": "similarity", "horizon": 4,
                 "ratios": {"cycle": [[0.3, 0.3]]},
                 "offsets": {"cycle": [[0.0, "a"]]}},
                {},
                [],
            ),
            ({"kind": "cf", "horizon": 4, "digits": [1, 2],
              "matrices": [[1, "x"], [1, 0]]}, {}, []),
            (dict(GDMS1, vertices={"cycle": []}), {}, []),
            (dict(GDMS1, edges={"cycle": []}), {}, []),
            ({"kind": "ascending", "family": "cf", "base": {"1": 1, "2": 2},
              "horizon": 4, "include": [1, 2, 3, 4]}, {}, []),
            ({"kind": "bundled", "name": "cf12", "overrides": {"horizon": "x"}},
             {}, []),
            ({"kind": "bundled", "name": "cf12", "overrides": {"bogus": 1}}, {}, []),
            ({"kind": "bundled", "name": "cf12", "overrides": [1]}, {}, []),
            ({"kind": "cf", "horizon": 4, "digits": [math.nan, 2]}, {}, []),
        ],
        ids=["max_points-str", "t_grid-1", "t_grid-flag", "window-str",
             "scale_window-short", "digit-str", "offset-str", "matrix-str",
             "vertices-empty-cycle", "edges-empty-cycle", "include-ints",
             "override-str", "override-unknown", "overrides-list", "digit-nan"],
    )
    def test_malformed_input_is_2(self, tmp_path, capsys, system, params, flags):
        path = write_cfg(
            tmp_path, "bad.json",
            {"schema_version": 1, "system": system, "params": params},
        )
        assert main(["report", path, "--out", str(tmp_path / "o")] + flags) == 2
        assert "config error at " in capsys.readouterr().err


    def test_digit_past_2_52_is_3(self, tmp_path, capsys):
        # 1e308 overflowed the branch derivative with a traceback
        path = write_cfg(tmp_path, "big.json", {
            "schema_version": 1,
            "system": {"kind": "cf", "horizon": 4, "digits": [1e308, 2]},
        })
        assert main(["check", path, "--out", str(tmp_path / "o")]) == 3
        assert "digit must lie in [1, 2^52]" in capsys.readouterr().err

    @pytest.mark.parametrize("digit, horizon", [(1000, 110), (1e15, 25)])
    def test_continuants_past_the_float_range_report(self, tmp_path, digit, horizon):
        # one letter: the limit set is a point, so the bracket must hold 0
        path = write_cfg(tmp_path, "one.json", {
            "schema_version": 1,
            "system": {"kind": "cf", "digits": [digit], "horizon": horizon},
        })
        out = tmp_path / "o"
        assert main(["report", path, "--out", str(out)]) in (0, 4, 5)
        lo, hi = json.loads((out / "summary.json").read_text())["bracket"]
        assert lo <= 0.0 <= hi

    ELLIPTIC = {"kind": "elliptic_model", "q": 2, "horizon": 6, "t_star": 1.2}

    @pytest.mark.parametrize(
        "change, code, message",
        [({"horizon": 1e308}, 2, "error"), ({"horizon": 4}, 3, "error"),
         ({"lattice": {"r_min": 3.0, "r_max": 1e308}}, 2, "error"),
         ({"comparability": 1e308}, 2, "error"),
         ({"comparability": -1}, 2, "at system.comparability:"),
         ({"comparability": 0.5}, 2, "at system.comparability:"),
         ({"norm_const": -1}, 2, "at system.norm_const:"),
         ({"norm_const": 0}, 2, "at system.norm_const:"),
         ({"t_star": -1}, 2, "at system.t_star:"),
         ({"t_star": 0}, 2, "at system.t_star:")],
        ids=["horizon-huge", "horizon-short", "r_max-huge", "comparability-huge",
             "comparability-negative", "comparability-below-one",
             "norm_const-negative", "norm_const-zero", "t_star-negative",
             "t_star-zero"],
    )
    def test_elliptic_rejected_before_work(self, tmp_path, capsys, change, code,
                                           message):
        path = write_cfg(tmp_path, "ell.json", {
            "schema_version": 1, "system": dict(self.ELLIPTIC, **change),
        })
        assert main(["check", path, "--out", str(tmp_path / "o")]) == code
        assert message in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_bad_leaf_never_raises(self, tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
        config = copy.deepcopy(FUZZ_CONFIGS[name])
        leaves = list(_leaves(config))
        parent, key = data.draw(st.sampled_from(leaves))
        parent[key] = data.draw(BAD_VALUES)
        tmp = tmp_path_factory.mktemp("fuzz")
        path = write_cfg(tmp, "fuzz.json", config)
        code = main(["check", path, "--out", str(tmp / "o")])
        assert code in (0, 2, 3, 4, 5)


# one valid config per kind the fuzzer perturbs; each stays small
FUZZ_CONFIGS = {
    "cf": {"schema_version": 1, "params": {"p_max": 2, "t": 0.5},
           "system": {"kind": "cf", "horizon": 4, "digits": [1, 2]}},
    "similarity": {
        "schema_version": 1, "params": {"p_max": 2},
        "system": {"kind": "similarity", "horizon": 4,
                   "ratios": {"cycle": [[0.3, 0.3]]},
                   "offsets": {"cycle": [[0.0, 0.6]]},
                   "matrices": [[1, 1], [1, 0]]},
    },
    "gdms": {"schema_version": 1, "params": {"p_max": 2},
             "system": TestCliExitCodes.GDMS1},
    "ascending": {
        "schema_version": 1, "params": {"p_max": 2},
        "system": {"kind": "ascending", "family": "cf", "horizon": 4,
                   "base": {"1": 1, "2": 2},
                   "include": {"prefix": [["1"]], "then": ["1", "2"]}},
    },
    "bundled": {"schema_version": 1, "params": {"p_max": 2},
                "system": {"kind": "bundled", "name": "cf12",
                           "overrides": {"horizon": 4}}},
    "elliptic": {
        "schema_version": 1, "params": {"p_max": 2},
        "system": {"kind": "elliptic_model", "q": 2, "horizon": 5,
                   "t_star": 1.2, "comparability": 1.0, "norm_const": 1.0,
                   "lattice": {"r_min": 3.0, "r_max": 10.0}},
    },
}
BAD_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, "x", True, False, [], [1, "a"], {},
     {"k": 1}]
) | st.integers(-(2**70), -1)


def _leaves(node):
    """(container, key) of every scalar in a nested config."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)) and value:
            yield from _leaves(value)
        else:
            yield node, key


class TestCliArtifacts:
    def test_write_csv_equals_per_value_format(self, tmp_path):
        # columns of floats, of ints, of strings and of mixed types, over
        # more rows than one formatting chunk
        rows = [
            (k, 0.1 * k, f"w{k}", [1, 2.5, np.float64(0.3), -math.inf][k % 4])
            for k in range(3 * cli._CSV_CHUNK + 7)
        ]
        path = tmp_path / "t.csv"
        cli.write_csv(path, ("n", "x", "word", "mixed"), iter(rows))
        expect = "n,x,word,mixed\n" + "".join(
            ",".join(cli._fmt(v) for v in row) + "\n" for row in rows
        )
        assert path.read_text() == expect

    def test_report_outputs(self, tmp_path):
        out = tmp_path / "rep"
        code = main(
            ["report", "cantor3", "--out", str(out), "--n-max", "16",
             "--depth", "8", "--max-points", "512"]
        )
        assert code == 0
        for name in ("summary.json", "pressure.csv", "points.csv", "pressure.svg"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        lo, hi = summary["bracket"]
        assert lo <= T_STAR3 <= hi
        assert summary["hypotheses"]["justification"] == "autonomous-system"
        assert summary["balancing"] == "perfectly"
        assert summary["meta"]["seed"] == 0
        header = (out / "pressure.csv").read_text().splitlines()[0]
        assert header == "n,t,z_lo,z_hi,s_n_lo,s_n_hi"
        pheader = (out / "points.csv").read_text().splitlines()[0]
        assert pheader == "x,radius,word"
        svg = (out / "pressure.svg").read_text()
        assert "<svg" in svg and "t*" in svg and "polyline" in svg

    def test_points_csv_2d(self, tmp_path):
        out = tmp_path / "pts2"
        code = main(
            ["sample", "elliptic-q2", "--out", str(out), "--depth", "2",
             "--max-points", "4096"]
        )
        assert code == 0
        header = (out / "points.csv").read_text().splitlines()[0]
        assert header == "x,y,radius,word"

    @pytest.mark.parametrize("name, depth", [("cf12", 8), ("elliptic-q2", 2)])
    def test_points_csv_plain_decimals(self, tmp_path, name, depth):
        # numpy 2 once wrote these fields as np.float64(x)
        out = tmp_path / "pts"
        assert main(["sample", name, "--out", str(out), "--depth", str(depth),
                     "--max-points", "4096"]) == 0
        system = load_config(name)[1]
        cloud = sample_limit_set(system, depth, 4096)
        rows = [line.split(",") for line in
                (out / "points.csv").read_text().splitlines()[1:]]
        assert [r[-1] for r in rows] == list(cloud.words)
        fields = [[float(v) for v in r[:-1]] for r in rows]
        assert fields == np.column_stack([cloud.coords, cloud.radii]).tolist()

    def test_determinism_across_runs_and_threads(self, tmp_path):
        outs = []
        for name, threads in (("t1", "1"), ("t4", "4")):
            out = tmp_path / name
            env = dict(os.environ, BOWENDIM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "bowendim.cli", "report", "cf12",
                 "--out", str(out), "--n-max", "10", "--depth", "8",
                 "--max-points", "256", "--sample-strategy",
                 "random-admissible", "--seed", "11"],
                check=True, env=env, capture_output=True,
            )
            outs.append(out)
        for name in ("points.csv", "pressure.csv"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs across thread counts"

    def test_subsystem_command_modes(self, tmp_path):
        assert main(
            ["subsystem", "gdms2v", "--out", str(tmp_path / "sb"), "--mode",
             "blocks", "--ell", "3", "--p", "1"]
        ) == 0
        assert main(
            ["subsystem", "pinch2", "--out", str(tmp_path / "sp"), "--mode",
             "pinched", "--pinch-times", "2", "4", "6", "8", "10", "12"]
        ) == 0
        assert main(
            ["subsystem", "gdms2v", "--out", str(tmp_path / "su"), "--mode",
             "uniform"]
        ) == 0
        summary = json.loads((tmp_path / "su" / "summary.json").read_text())
        assert summary["p"] == 2

    def test_pressure_and_boxdim_commands(self, tmp_path):
        assert main(
            ["pressure", "cantor3", "--out", str(tmp_path / "pr"), "--t", "0.5"]
        ) == 0
        rows = (tmp_path / "pr" / "pressure.csv").read_text().splitlines()
        assert len(rows) > 2
        assert main(
            ["boxdim", "cantor3", "--out", str(tmp_path / "bx"), "--depth",
             "10", "--max-points", "2048"]
        ) == 0
        summary = json.loads((tmp_path / "bx" / "summary.json").read_text())
        assert summary["slope"] == pytest.approx(T_STAR3, abs=0.05)

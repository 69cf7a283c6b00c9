"""The keys of every command's `summary.json`: a key leaves or joins an
output only with an edit here, so a change to the output format is a
visible decision.  Nested objects are pinned by dotted path."""

import json

import pytest

from bowendim.cli import main

META = ["meta", "meta.seed", "meta.source", "meta.system_sha256", "meta.version"]
HYPOTHESES = [
    "hypotheses", "hypotheses.alphabet_growth", "hypotheses.ascending",
    "hypotheses.autonomous", "hypotheses.balancing",
    "hypotheses.bowen_formula_supported", "hypotheses.class_M",
    "hypotheses.detail", "hypotheses.diameter_condition",
    "hypotheses.follower_growth", "hypotheses.justification",
    "hypotheses.ncifs", "hypotheses.primitivity_p", "hypotheses.stationary",
]
THETA = ["theta", "theta.theta_n", "theta.theta_phi_lower"]
BRACKET = ["bracket", "horizon", "midpoint", "tolerance", "uncertainty", "width"]
SUBSYSTEM = ["blocks", "command", "letters_per_block", "mode"]

# name: (argv, exit code, keys besides META)
SUMMARIES = {
    "check": (
        ["check", "cantor3"], 0,
        ["command", "contraction", "contraction.block", "contraction.eta_block",
         "distortion", "osc_level1_ok", "osc_violations"] + HYPOTHESES + THETA,
    ),
    "pressure": (
        ["pressure", "cantor3", "--t", "0.5"], 0,
        ["command", "growth_rate", "lower_proxy", "oscillation_flagged", "t",
         "upper_proxy", "window"],
    ),
    "dimension": (
        ["dimension", "cantor3", "--n-max", "12"], 0,
        ["command"] + BRACKET + HYPOTHESES,
    ),
    "sample": (
        ["sample", "cantor3", "--depth", "6", "--max-points", "64"], 0,
        ["command", "depth", "points", "strategy"],
    ),
    "boxdim": (
        ["boxdim", "cantor3", "--depth", "8", "--max-points", "512"], 0,
        ["command", "depth", "points", "slope", "stderr"],
    ),
    "subsystem-blocks": (
        ["subsystem", "gdms2v", "--mode", "blocks", "--ell", "3", "--p", "1"], 0,
        SUBSYSTEM + ["pairs", "sandwich_constant"],
    ),
    "subsystem-pinched": (
        ["subsystem", "pinch2", "--mode", "pinched", "--pinch-times", "2", "4",
         "6", "8", "10", "12"], 0,
        SUBSYSTEM,
    ),
    "subsystem-uniform": (
        ["subsystem", "gdms2v", "--mode", "uniform"], 0,
        SUBSYSTEM + ["p"],
    ),
    "report": (
        ["report", "cantor3", "--n-max", "12", "--depth", "6", "--max-points",
         "64"], 0,
        ["ab_bounds", "ab_bounds.applicable", "ab_bounds.hi", "ab_bounds.lo",
         "ab_bounds.point", "balancing", "box_counting", "box_counting.slope",
         "box_counting.stderr", "command", "measure_trend", "points"]
        + BRACKET + HYPOTHESES + THETA,
    ),
    "budget-partial": (
        ["dimension", "cf12", "--budget", "64"], 5,
        ["command", "error", "partial"],
    ),
}


def _key_paths(obj, prefix=""):
    """Every key of a JSON object, nested objects' keys as dotted paths."""
    for key, value in obj.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + key + ".")


@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_summary_keys_are_pinned(name, tmp_path):
    argv, code, keys = SUMMARIES[name]
    assert main(argv + ["--out", str(tmp_path)]) == code
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert sorted(_key_paths(summary)) == sorted(keys + META)

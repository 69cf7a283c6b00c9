"""The per-time rule reader: every per-time field takes an explicit list of
rows, {"cycle": [...]} or {"prefix": [...], "then": row}, each row is
checked at its own path, and a repeated row stays one object."""

import json

import pytest

from bowendim import SchemaError, bundled, symbolic
from bowendim.config import _PACKAGED, build_from_spec

from test_golden_outputs import _fingerprint

H = 6
GDMS2V = json.loads(_PACKAGED["gdms2v"].read_text())["system"]
EDGES = GDMS2V["edges"]["cycle"][0]
SIMILARITY = {
    "kind": "similarity", "horizon": H,
    "ratios": [[0.25, 0.25]] * H, "offsets": [[0.0, 0.5]] * H,
}
ASCENDING = {
    "kind": "ascending", "family": "cf", "horizon": H,
    "base": {"1": 1, "2": 2}, "include": [["1", "2"]] * H,
}
GDMS = dict(GDMS2V, horizon=H, vertices=[["u", "w"]] * (H + 1), edges=[EDGES] * H)
STEP_A, STEP_B = [[1, 1], [1, 0]], [[1, 0], [1, 1]]

# name: (spec with a rule, the same spec with explicit rows)
RULES = {
    "include-cycle": (
        dict(ASCENDING, include={"cycle": [["1", "2"]]}), ASCENDING,
    ),
    "ratios-prefix": (
        dict(SIMILARITY, ratios={"prefix": [[0.5, 0.5]], "then": [0.25, 0.25]}),
        dict(SIMILARITY, ratios=[[0.5, 0.5]] + [[0.25, 0.25]] * (H - 1)),
    ),
    "offsets-prefix": (
        dict(SIMILARITY, offsets={"prefix": [[0.0, 0.75]] * 2, "then": [0.0, 0.5]}),
        dict(SIMILARITY, offsets=[[0.0, 0.75]] * 2 + [[0.0, 0.5]] * (H - 2)),
    ),
    "vertices-prefix": (
        dict(GDMS, vertices={"prefix": [["u", "w"]], "then": ["u", "w"]}), GDMS,
    ),
    "edges-prefix": (dict(GDMS, edges={"prefix": [EDGES], "then": EDGES}), GDMS),
    "matrices-cycle": (
        dict(SIMILARITY, matrices={"cycle": [STEP_A, STEP_B]}),
        dict(SIMILARITY, matrices=[STEP_A, STEP_B] * 2 + [STEP_A]),
    ),
}


@pytest.mark.parametrize("name", sorted(RULES))
def test_rule_builds_the_explicit_rows_system(name):
    rule, explicit = RULES[name]
    assert _fingerprint(build_from_spec(rule)) == _fingerprint(build_from_spec(explicit))


def test_gdms_cycle_keeps_one_alphabet():
    # time 0's empty alphabet and the cycle's one row, shared by every time
    alphabets = bundled.gdms2v(40).schedule.alphabets
    assert len({id(row) for row in alphabets}) == 2


def test_gdms_binds_its_one_step_once(monkeypatch):
    # one incidence object on one pair of step codings: one bind for 199 steps
    calls = []
    bind = symbolic.Incidence.bind
    monkeypatch.setattr(
        symbolic.Incidence, "bind", lambda inc, *args: calls.append(inc) or bind(inc, *args)
    )
    bundled.gdms2v(200)
    assert len(calls) == 1


def test_gdms_keeps_one_space_row():
    # one vertex row at every time and no (n, v) space keys: one space row
    assert len({id(row) for row in bundled.gdms2v(200).spaces}) == 1


@pytest.mark.parametrize(
    "system, path, message",
    [
        (dict(GDMS, edges={"cycle": [EDGES, EDGES[:1] + [{"label": "x"}]]}),
         "system.edges.cycle[1][1]", "missing field 'src'"),
        (dict(GDMS, edges={"cycle": [EDGES, [dict(EDGES[0], ratio="r")]]}),
         "system.edges.cycle[1][0].ratio", "number required, got 'r'"),
        ({"kind": "cf", "horizon": H, "digits": [1, "x"]},
         "system.digits[1]", "number required, got 'x'"),
        (dict(ASCENDING, include={"prefix": [["1"]], "then": "12"}),
         "system.include.then", "list required"),
        (dict(SIMILARITY, matrices={"cycle": [STEP_A, [[1, 2], [1, 1]]]}),
         "system.matrices.cycle[1][0][1]", "0 or 1 required, got 2"),
    ],
    ids=["edge-field", "edge-ratio", "bare-digit", "include-then", "matrix-entry"],
)
def test_error_names_the_rule_row(system, path, message):
    with pytest.raises(SchemaError) as exc:
        build_from_spec(system)
    assert (exc.value.path, exc.value.message) == (path, message)

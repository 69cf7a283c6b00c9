"""The contraction certificate: windows of two reciprocal shifts in closed
form, equal field by field to the walked reference (`oracles.walked_contraction`).
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bowendim import (
    CertificationError,
    EdgeSpec,
    IntegrityError,
    MoebiusInverse,
    build_cf_system,
    build_gdms,
    interval,
    maps,
)
from bowendim.cli import main
from bowendim.config import _PACKAGED, load_config
from bowendim.maps import contraction_eta

import oracles

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def certificate(fn, system):
    """The certificate's fields, or the message of its CertificationError."""
    try:
        return dataclasses.astuple(fn(system))
    except CertificationError as exc:
        return str(exc)


def assert_matches_walk(system):
    # a fresh copy keeps no cached certificate, letter table or brackets
    got = certificate(contraction_eta, dataclasses.replace(system))
    assert got == certificate(oracles.walked_contraction, system)


def cf_config(tmp_path, digits, horizon):
    path = tmp_path / "cf.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "system": {"kind": "cf", "digits": digits, "horizon": horizon},
    }))
    return str(path)


def count_compose_norm(monkeypatch):
    calls = []
    real = maps.compose_norm

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(maps, "compose_norm", counted)
    return calls


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


# ---------------------------------------------------------------------------
# equal to the walk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(_PACKAGED))
def test_bundled_configs_match_walk(name):
    assert_matches_walk(load_config(name)[1])


@pytest.mark.parametrize("workload", ["digits", "transfer", "sampling", "digits-wide"])
def test_workload_configs_match_walk(workload, workloads, tmp_path):
    built = workloads.build(workload, 5, tmp_path)
    for path in built.configs:
        assert_matches_walk(load_config(str(path))[1])


def pruned_dense_cf(horizon=5):
    """Digits 1, 2, 3, 4, 5 under explicit incidence, with the least kept
    allowed product 5 (1 -> 5 and 5 -> 1).  Letter 2 follows 1 but has no
    follower, and letter 4 precedes 1 but has no predecessor, so both are
    pruned at every time: with 2 the least product would be 2, with 4 it
    would be 4, and over all pairs it is 1."""
    inner = np.array([
        [0, 1, 0, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 1, 0, 1],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ])
    first, last = inner.copy(), inner.copy()
    first[3] = 0  # 4 starts no word at time 1
    last[0, 1] = 0  # 2 is unreachable at the horizon
    return build_cf_system(
        [[1, 2, 3, 4, 5]] * horizon, [first] + [inner] * (horizon - 3) + [last]
    )


def two_vertex_digits(matrices="full", horizon=4):
    """Digit letters between vertices a and b.  Letter 1 runs a -> b, and
    the letters leaving b carry digits 2 and 5, so the least allowed product
    is 2, not 1."""
    edges = [
        EdgeSpec("1", "a", "b", MoebiusInverse(1.0)),
        EdgeSpec("2", "b", "a", MoebiusInverse(2.0)),
        EdgeSpec("9", "a", "a", MoebiusInverse(9.0)),
        EdgeSpec("5", "b", "b", MoebiusInverse(5.0)),
    ]
    return build_gdms(
        [["a", "b"]] * (horizon + 1),
        [edges] * horizon,
        {"a": interval(0.0, 1.0), "b": interval(0.0, 1.0)},
        matrices,
    )


# rows and columns in letter order 1, 2, 9, 5: every composable pair but
# 1 -> 2 and 2 -> 1, so the least product is 5 (1 -> 5)
TWO_VERTEX_DENSE = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 1, 0], [0, 1, 0, 1]])


@pytest.mark.parametrize(
    "build, eta_block",
    [
        (pruned_dense_cf, 1 / 36),
        (two_vertex_digits, 1 / 9),
        (lambda: two_vertex_digits(TWO_VERTEX_DENSE), 1 / 36),
    ],
    ids=["dense-pruned-letter", "two-vertex-full", "two-vertex-dense"],
)
def test_incidence_schedules_match_walk(build, eta_block):
    system = build()
    assert_matches_walk(system)
    assert contraction_eta(system).eta_block == eta_block


def digit_schedule(data, digit):
    """Per-time digit rows, with 1 at time 1 so that no single letter
    contracts and block 2 decides, and full or hypothesis-drawn incidence."""
    rows = data.draw(st.lists(
        st.lists(digit, min_size=1, max_size=6, unique=True), min_size=2, max_size=4
    ))
    rows[0] = [1] + [d for d in rows[0] if d != 1]
    if data.draw(st.booleans()):
        return build_cf_system(rows)
    mats = [
        np.array(data.draw(st.lists(
            st.lists(st.booleans(), min_size=len(nxt), max_size=len(nxt)),
            min_size=len(cur), max_size=len(cur),
        )))
        for cur, nxt in zip(rows, rows[1:])
    ]
    try:
        return build_cf_system(rows, mats)
    except IntegrityError:  # pruning emptied an alphabet
        assume(False)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_digit_sets_match_walk(data):
    assert_matches_walk(digit_schedule(data, st.integers(1, 300)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_real_digit_sets_match_walk(data):
    # up to 2**52, so least products from 2**53 take the walk
    digit = st.one_of(st.floats(1.0, 1e4), st.floats(1.0, 2.0**52))
    assert_matches_walk(digit_schedule(data, digit))


@pytest.mark.parametrize(
    "digit, walked",
    [(94906265, False), (94906266, True)],  # digit**2 below and above 2**53
)
def test_products_from_2_53_are_walked(digit, walked, monkeypatch):
    # digit 1 at time 1 keeps block 1 from contracting; the least product
    # is digit at step 1 and digit**2 at step 2, whose 4 windows are walked
    system = build_cf_system([[1], [digit, digit + 1], [digit, digit + 1]])
    assert_matches_walk(system)
    calls = count_compose_norm(monkeypatch)
    assert contraction_eta(dataclasses.replace(system)).block == 2
    assert len(calls) == (4 if walked else 0)


# ---------------------------------------------------------------------------
# regressions and guards
# ---------------------------------------------------------------------------


def test_wide_digit_set_certifies(tmp_path):
    # 16,900 windows a step: the walk's 200,000-window budget ran out
    out = tmp_path / "out"
    assert main(["check", cf_config(tmp_path, list(range(1, 131)), 15), "--out", str(out)]) == 0
    contraction = json.loads((out / "summary.json").read_text())["contraction"]
    assert contraction["block"] == 2
    assert contraction["eta_block"] == 0.25


@pytest.mark.parametrize("digits", [[1, 2], list(range(1, 101))], ids=["cf12", "cf1-100"])
def test_digit_loads_compose_no_window(digits, monkeypatch, tmp_path):
    calls = count_compose_norm(monkeypatch)
    _, system = load_config(cf_config(tmp_path, digits, 15))
    assert system.contraction.block == 2
    assert calls == []

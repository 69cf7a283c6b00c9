"""The per-time letter table against the per-letter map objects.

Every quantity the table feeds (letter brackets, the distortion constant,
the contraction certificate, the evenly-varying check, the image-validation
verdict and each range's map family) must equal, bit for bit, what asking
each map object in turn gives (`oracles.per_letter_*`), on the bundled
systems, re-blocked and block subsystems, drawn similarity,
continued-fraction and two-vertex systems, and mixed ones.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import mixed_pair_system
from bowendim import (
    BuildError,
    MoebiusInverse,
    Similarity,
    bundled,
    certify_primitivity,
    evenly_varying_check,
    extract_subsystem_g_bounded,
    find_primitivity,
    interval,
    maps,
    reblock_one_primitive,
    reblock_pinched,
)
from bowendim import _frontier
from bowendim.config import load_config
from bowendim.errors import BowendimError
from bowendim.maps import ConformalMap
from bowendim.symbolic import FullIncidence, GraphSchedule, Letter
from bowendim.system import SystemSpec, _closed_form_clears, validate_images


def outcome(fn):
    """fn()'s value, or the type and message of the error it raises."""
    try:
        return "ok", fn()
    except (BowendimError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def bits(brackets):
    return [None if b is None else (b[0].tobytes(), b[1].tobytes()) for b in brackets]


def validate_message(system):
    try:
        validate_images(system)
    except BuildError as exc:
        return str(exc)
    return None


def fits(system, n, idx):
    """The per-letter verdict on one letter's image."""
    try:
        img = system.maps[n][idx].image(system.domain_space_idx(n, idx))
    except BowendimError:
        return False
    return system.codomain_space_idx(n, idx).contains(img)


def closed_form_applies(system, n, idx):
    p = system.maps[n][idx]
    dom = system.domain_space_idx(n, idx)
    on_intervals = dom.kind == system.codomain_space_idx(n, idx).kind == "interval"
    if type(p) is MoebiusInverse:
        _, (c, d) = p.matrix
        return on_intervals and c * dom.bounds[0] + d > 0
    return on_intervals and type(p) is Similarity and system.dim == p.dim == 1


def assert_table_matches(system):
    assert_family_matches(system)
    assert validate_message(system) == oracles.per_letter_validate(system)
    # the closed form clears exactly the letters that fit, wherever it applies
    clears = _closed_form_clears(system)
    for n in range(1, system.horizon + 1):
        start = system.letter_table.start[n]
        for idx in system.schedule.kept_indices(n).tolist():
            if closed_form_applies(system, n, idx):
                assert clears[start + idx] == fits(system, n, idx), (n, idx)
            else:
                assert not clears[start + idx]
    brackets = outcome(lambda: bits(system.letter_brackets))
    assert brackets == outcome(lambda: bits(oracles.per_letter_brackets(system)))
    if brackets[0] != "ok":
        return
    assert outcome(lambda: system.distortion) == outcome(
        lambda: oracles.per_letter_distortion(system)
    )
    reference = outcome(lambda: oracles.per_letter_evenly_varying(system))
    if reference[0] != "ValueError":  # the reference's log of an underflow
        ev = outcome(lambda: evenly_varying_check(system))
        if ev[0] == "ok":
            ev = "ok", (ev[1].ok, ev[1].c, ev[1].eta)
        assert ev == reference
    assert outcome(lambda: system.contraction) == outcome(
        lambda: oracles.per_letter_contraction(system)
    )


def assert_family_matches(system):
    h = system.horizon
    for m in range(1, h + 1):
        for n in range(m, h + 1):
            expect = oracles.per_letter_family(system, m, n)
            assert _frontier._family(system, m, n) == expect, (m, n)


def raw_system(vertex_sets, alphabets, map_rows, space_rows):
    """An unvalidated system with complete incidence, as a builder would
    hand it to validation."""
    schedule = GraphSchedule(
        vertex_sets,
        [()] + [tuple(row) for row in alphabets],
        [FullIncidence() for _ in range(len(alphabets) - 1)],
    )
    return SystemSpec(
        schedule=schedule,
        spaces=tuple(tuple(row) for row in space_rows),
        maps=((),) + tuple(tuple(row) for row in map_rows),
    )


def one_vertex(map_rows):
    h = len(map_rows)
    return raw_system(
        [("v",)] * (h + 1),
        [[Letter(f"m{k}", "v", "v") for k in range(len(row))] for row in map_rows],
        map_rows,
        [(interval(0.0, 1.0),)] * (h + 1),
    )


@pytest.mark.parametrize("name", sorted(bundled.BUNDLED))
def test_bundled_systems(name):
    assert_table_matches(bundled.bundled_system(name))


def _derived():
    gdms = bundled.gdms2v(16)
    gdms26 = bundled.gdms2v(26)
    cf18 = bundled.cf12(18)
    return {
        "pinched-pinch2": lambda: reblock_pinched(bundled.pinch2(12), [2, 4, 6, 8, 10, 12]),
        "pinched-cf12": lambda: reblock_pinched(bundled.cf12(8), [2, 4, 6, 8]),
        "uniform-gdms2v": lambda: reblock_one_primitive(gdms, find_primitivity(gdms.schedule, 4)),
        "blocks-gdms2v": lambda: extract_subsystem_g_bounded(
            gdms26, certify_primitivity(gdms26.schedule, 1), 3, 0.5
        ).system,
        "blocks-cf12": lambda: extract_subsystem_g_bounded(
            cf18, find_primitivity(cf18.schedule, 2), 3, 0.5
        ).system,
    }


@pytest.mark.parametrize("name", sorted(_derived()))
def test_derived_systems(name):
    assert_table_matches(_derived()[name]())


RATIOS = st.one_of(
    st.floats(1e-300, 0.95),
    st.floats(-0.95, -1e-300),
    st.sampled_from([0.0, 1e-320, 1e-300, -1e-300, 0.5, 1.2]),
)
OFFSETS = st.one_of(st.floats(-0.2, 1.0), st.sampled_from([0.0, 0.5, 1.0 - 1e-13]))
DIGITS = st.one_of(
    st.integers(1, 2**52).map(float),
    st.floats(1.0, 2.0**52),
)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(
    st.lists(st.tuples(RATIOS, OFFSETS), min_size=1, max_size=4),
    min_size=2, max_size=4,
))
# r * r subnormal but not 0: sqrt(lo * hi) keeps the per-letter value
@example(rows=[[(1e-160, 0.0)], [(1e-160, 0.5)]])
def test_drawn_similarity_systems(rows):
    system = one_vertex([[Similarity(r, (o,)) for r, o in row] for row in rows])
    assert_table_matches(system)


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.lists(DIGITS, min_size=1, max_size=4), min_size=2, max_size=4))
def test_drawn_cf_systems(rows):
    system = one_vertex([[MoebiusInverse(d) for d in row] for row in rows])
    assert_table_matches(system)


@settings(max_examples=60, deadline=None)
@given(
    w_space=st.tuples(st.floats(-2.0, 3.0), st.floats(0.05, 2.0)),
    edges=st.lists(
        st.tuples(st.sampled_from("uw"), st.sampled_from("uw"), RATIOS, OFFSETS,
                  st.booleans()),
        min_size=1, max_size=5,
    ),
)
# a reciprocal shift of digit 1 whose domain reaches its pole at -1
@example(
    w_space=(-1.0, 1.0),
    edges=[("u", "u", 0.5, 0.0, False), ("u", "w", 1e-300, 0.0, True)],
)
def test_drawn_two_vertex_systems(w_space, edges):
    # letters map X_dst into X_src; the two spaces differ, so a domain read
    # for a codomain shows in the images and in the verdict
    spaces = {"u": interval(0.0, 1.0), "w": interval(w_space[0], sum(w_space))}
    labels = [f"e{k}" for k in range(len(edges))]
    row = [Letter(lbl, src, dst) for lbl, (src, dst, *_) in zip(labels, edges)]
    map_row = [
        MoebiusInverse(1.0 + abs(r) * 100) if moebius else Similarity(r, (o,))
        for _, _, r, o, moebius in edges
    ]
    try:
        system = raw_system(
            [("u", "w")] * 4, [row] * 3, [map_row] * 3,
            [(spaces["u"], spaces["w"])] * 4,
        )
        system.schedule.kept
    except BowendimError:
        return  # pruning emptied an alphabet: no system to compare
    assert_table_matches(system)


class Halving(ConformalMap):
    """A user map type, outside the two closed-form families."""


def test_mixed_and_user_map_families():
    # similarity, reciprocal-shift, mixed and user-map times, so ranges of
    # every family occur
    sim, moeb, user = Similarity(0.3, (0.0,)), MoebiusInverse(2.0), Halving()
    mixed = one_vertex([[sim, sim], [moeb, moeb], [sim, moeb], [user, user], [moeb]])
    for system in (mixed_pair_system(4), mixed):
        assert_family_matches(system)
    got = {_frontier._family(mixed, m, n) for m in range(1, 6) for n in range(m, 6)}
    assert got == {"similarity", "moebius", "generic"}


def _transfer_config(tmp_path, letters=300, degree=3, horizon=6):
    """A regular-incidence similarity schedule: `degree` followers per
    letter, ratios cycling through two values small enough to pack."""
    rng = np.random.default_rng(5)
    rows, cols = rng.permutation(letters), rng.permutation(letters)
    mat = np.zeros((letters, letters), dtype=np.int8)
    for k in range(degree):
        mat[rows, cols[(np.arange(letters) + k) % letters]] = 1
    path = tmp_path / "transfer.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "system": {
            "kind": "similarity", "horizon": horizon,
            "ratios": {"cycle": [[0.5 / letters] * letters, [0.25 / letters] * letters]},
            "matrices": mat.tolist(),
        },
    }))
    return str(path)


def test_loading_asks_no_map_for_an_image(tmp_path, monkeypatch):
    calls = {"image": 0, "contains": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(maps.Similarity, "image", counted("image", maps.Similarity.image))
    monkeypatch.setattr(maps.Space, "contains", counted("contains", maps.Space.contains))
    _, system = load_config(_transfer_config(tmp_path))
    assert len(system.schedule.letters(1)) == 300
    assert calls == {"image": 0, "contains": 0}
    # the counters see the per-letter path that an escaping letter takes
    escaping = one_vertex([[Similarity(0.5, (0.0,)), Similarity(0.5, (0.6,))]] * 2)
    with pytest.raises(BuildError):
        validate_images(escaping)
    assert calls == {"image": 1, "contains": 1}

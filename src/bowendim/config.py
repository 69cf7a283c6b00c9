"""JSON config schema (versioned) and its translation into systems.

Schedules are diffable data: matrices appear as explicit 0/1 arrays, as
"full"/"identity", or as a named rule with parameters; per-time rows accept
an explicit list-per-time, a {"cycle": [...]} pattern, or the generator
forms documented in the README.  Validation errors carry the offending
field path for the CLI's parse exit code.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import BudgetError, SchemaError
from .geometry import SAMPLE_STRATEGIES
from .maps import MoebiusInverse, Similarity, interval
from .systems import (
    AscendingSpec,
    EdgeSpec,
    build_ascending,
    build_cf_system,
    build_gdms,
    build_similarity_system,
    elliptic_lower_bound,
)

SCHEMA_VERSION = 1

# the bundled systems: one packaged config per name, the only definition of each
_PACKAGED = {
    path.stem: path for path in sorted((Path(__file__).parent / "configs").glob("*.json"))
}


def _number(v):
    """A finite int or float (not a bool)."""
    return (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
    )


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _pair(v, item):
    return isinstance(v, list) and len(v) == 2 and all(item(x) for x in v)


def _at_least(lo):
    return (lambda v: _integer(v) and v >= lo), f"integer >= {lo} required"


def _one_of(choices):
    return (lambda v: v in choices), f"one of {list(choices)} required"


# name: (default, check, message); the checks are those that need no system
_PARAMS = {
    "t": (0.5, _number, "number required"),
    "t_bracket": (  # None -> ambient dimension
        [0.0, None],
        lambda v: _pair(v, lambda x: x is None or _number(x))
        and (None in v or v[0] < v[1]),
        "[lo, hi] with lo < hi required (either may be null)",
    ),
    "n_max": (  # None -> horizon
        None, lambda v: v is None or _integer(v) and v >= 2, "integer >= 2 required"
    ),
    "tol": (1e-4, lambda v: _number(v) and v > 0, "positive number required"),
    "window": (
        None,
        lambda v: v is None or _pair(v, _integer) and 1 <= v[0] < v[1],
        "[m, n] integers with 1 <= m < n required",
    ),
    "depth": (10, *_at_least(1)),
    "max_points": (4096, *_at_least(1)),
    "seed": (0, *_at_least(0)),
    "budget": (2_000_000, *_at_least(1)),
    "scale_window": (
        [2.0**-14, 2.0**-4],
        lambda v: _pair(v, _number) and 0 < v[0] < v[1],
        "[lo, hi] numbers with 0 < lo < hi required",
    ),
    "t_grid": (21, *_at_least(2)),
    "ell": (3, *_at_least(1)),
    "pinch_times": (
        None,
        lambda v: v is None or isinstance(v, list) and v and all(map(_integer, v)),
        "nonempty list of integers required",
    ),
    "p_max": (4, *_at_least(0)),
    "mode": ("blocks", *_one_of(("blocks", "pinched", "uniform"))),
    "sample_strategy": ("exhaustive", *_one_of(SAMPLE_STRATEGIES)),
}


def _check_param(name, value, path):
    """Raise SchemaError at `path` unless `value` suits parameter `name`."""
    _expect(name in _PARAMS, path, "unknown parameter")
    _, ok, msg = _PARAMS[name]
    _expect(ok(value), path, msg)


@dataclass(frozen=True)
class RunConfig:
    system_spec: dict
    params: dict
    output_dir: str
    source: str
    # id -> (list, boolean array) of each list of system_spec that the loader
    # parsed as a 0/1 matrix of plain ints (no bools, no floats)
    int_matrices: dict = field(default_factory=dict, compare=False, repr=False)

    def param(self, name):
        return self.params.get(name, _PARAMS[name][0])


def _fail(path, msg):
    raise SchemaError(path, msg)


def _expect(cond, path, msg):
    if not cond:
        _fail(path, msg)


def _numbers(rows, path):
    """`rows` unchanged once every row is a list of numbers."""
    for n, row in enumerate(rows):
        _expect(isinstance(row, list), f"{path}[{n}]", "list of numbers required")
        for k, v in enumerate(row):
            _expect(_number(v), f"{path}[{n}][{k}]", f"number required, got {v!r}")
    return rows


def _lists(rows, path):
    """`rows` unchanged once every row is a list."""
    for n, row in enumerate(rows):
        _expect(isinstance(row, list), f"{path}[{n}]", "list required")
    return rows


def _cycle(cyc, path):
    """A nonempty list of rows, repeated over the times by the caller."""
    _expect(isinstance(cyc, list) and cyc, path, "nonempty list required")
    return _lists(cyc, path)


def _horizon(value, path):
    _expect(_integer(value) and value >= 2, path, "integer horizon >= 2 required")
    return value


def _num(value, path):
    _expect(_number(value), path, f"number required, got {value!r}")
    return float(value)


def _rows(spec, horizon, path):
    """Per-time rows of numbers from an explicit list, a cycle, or a generator form."""
    if isinstance(spec, list):
        _expect(len(spec) == horizon, path, f"need {horizon} rows, got {len(spec)}")
        return [list(r) for r in _numbers(spec, path)]
    if isinstance(spec, dict) and "cycle" in spec:
        cyc = _numbers(_cycle(spec["cycle"], f"{path}.cycle"), f"{path}.cycle")
        return [list(cyc[(n - 1) % len(cyc)]) for n in range(1, horizon + 1)]
    if isinstance(spec, dict) and "powers" in spec:
        pw = spec["powers"]
        rb = pw.get("ratio_base")
        cb = pw.get("count_base")
        _expect(
            isinstance(rb, (int, float)) and 0 < rb < 1,
            f"{path}.powers.ratio_base",
            "ratio_base in (0, 1) required",
        )
        _expect(
            isinstance(cb, int) and cb >= 1,
            f"{path}.powers.count_base",
            "integer count_base >= 1 required",
        )
        _expect(
            cb**horizon <= 2**22,
            f"{path}.powers",
            f"count_base**horizon = {cb}**{horizon} letters would not fit in"
            " memory; lower the horizon",
        )
        return [[float(rb) ** n] * (cb**n) for n in range(1, horizon + 1)]
    if isinstance(spec, dict) and spec.get("packed"):
        return "packed"
    _fail(path, "expected a list of rows, {'cycle': ...}, {'powers': ...} or {'packed': true}")


def _matrices(spec, counts, path, int_matrices=None):
    """The builder's incidence form of a matrices spec, given the alphabet
    size per time; the banded rule becomes one boolean array per step.
    Explicit matrices of ints go into `int_matrices` when it is given."""
    if spec in ("full", "identity"):
        return spec
    if isinstance(spec, dict) and "rule" in spec:
        _expect(spec["rule"] == "banded", f"{path}.rule", "known rules: banded")
        offs = spec.get("offsets")
        _expect(
            isinstance(offs, list) and all(isinstance(o, int) for o in offs),
            f"{path}.offsets",
            "list of integer offsets required",
        )
        # allowed when (index(b) - index(a)) mod #I^(n+1) is one of the offsets
        return [
            np.isin(np.mod(np.arange(nb)[None, :] - np.arange(na)[:, None], nb), offs)
            for na, nb in zip(counts, counts[1:])
        ]
    if isinstance(spec, list):
        if spec and isinstance(spec[0], list) and spec[0] and isinstance(spec[0][0], list):
            _expect(
                len(spec) == len(counts) - 1,
                path,
                f"need {len(counts) - 1} per-step matrices, got {len(spec)}",
            )
            return [
                _zero_one(m, f"{path}[{k}]", int_matrices) for k, m in enumerate(spec)
            ]
        return _zero_one(spec, path, int_matrices)  # one matrix reused per step
    _fail(path, "expected 'full', 'identity', a 0/1 array, arrays per step, or a rule")


def _zero_one(rows, path, int_matrices=None):
    """A rectangular list of 0/1 (or boolean) rows as a boolean array; with
    `int_matrices`, one parsed as integers is kept there by id."""
    try:
        arr = np.asarray(rows)
        regular = arr.ndim == 2 and arr.dtype.kind in "biuf"
    except ValueError:  # ragged rows
        regular = False
    if not regular:  # find the first offending field
        _expect(isinstance(rows, list) and rows, path, "nonempty list of rows required")
        for i, row in enumerate(rows):
            _expect(isinstance(row, list), f"{path}[{i}]", "row of 0/1 entries required")
            _expect(
                len(row) == len(rows[0]),
                f"{path}[{i}]",
                f"row of {len(rows[0])} entries required, got {len(row)}",
            )
            for j, v in enumerate(row):
                _expect(_number(v) or isinstance(v, bool), f"{path}[{i}][{j}]",
                        f"0 or 1 required, got {v!r}")
    bad = np.argwhere((arr != 0) & (arr != 1))
    if bad.size:
        i, j = bad[0].tolist()
        _fail(f"{path}[{i}][{j}]", f"0 or 1 required, got {rows[i][j]!r}")
    mat = arr.astype(bool)
    if int_matrices is not None and arr.dtype.kind == "i":
        int_matrices[id(rows)] = (rows, mat)
    return mat


def _build_similarity(spec, path, int_matrices):
    horizon = _horizon(spec.get("horizon"), f"{path}.horizon")
    ratios = _rows(spec.get("ratios"), horizon, f"{path}.ratios")
    _expect(ratios != "packed", f"{path}.ratios", "ratios cannot be 'packed'")
    offsets_spec = spec.get("offsets", {"packed": True})
    offsets = _rows(offsets_spec, horizon, f"{path}.offsets")
    if offsets == "packed":
        offsets = []
        for row in ratios:
            k = len(row)
            offsets.append([j / k for j in range(k)])
    for n, (rr, oo) in enumerate(zip(ratios, offsets), start=1):
        _expect(
            len(rr) == len(oo),
            f"{path}.offsets[{n - 1}]",
            f"row length {len(oo)} != ratios row length {len(rr)}",
        )
    counts = [len(r) for r in ratios]
    mat = _matrices(
        spec.get("matrices", "full"), counts, f"{path}.matrices", int_matrices
    )
    return build_similarity_system(ratios, offsets, mat)


def _build_cf(spec, path, int_matrices):
    horizon = _horizon(spec.get("horizon"), f"{path}.horizon")
    digits = spec.get("digits")
    if isinstance(digits, dict) and "prefix" in digits:
        prefix = digits.get("prefix", [])
        then = digits.get("then")
        _expect(isinstance(then, list), f"{path}.digits.then", "constant tail list required")
        _expect(isinstance(prefix, list), f"{path}.digits.prefix", "list of rows required")
        rows = prefix + [then] * (horizon - len(prefix))
    elif isinstance(digits, list) and digits and not isinstance(digits[0], list):
        rows = [digits] * horizon
    else:
        rows = _rows(digits, horizon, f"{path}.digits")
        _expect(rows != "packed", f"{path}.digits", "digit rows required")
    rows = [list(r) for r in _numbers(rows, f"{path}.digits")]
    counts = [len(r) for r in rows]
    mat = _matrices(
        spec.get("matrices", "full"), counts, f"{path}.matrices", int_matrices
    )
    return build_cf_system(rows, mat)


def _build_gdms_cfg(spec, path, int_matrices):
    horizon = _horizon(spec.get("horizon"), f"{path}.horizon")
    verts = spec.get("vertices")
    if isinstance(verts, dict) and "cycle" in verts:
        cyc = _cycle(verts["cycle"], f"{path}.vertices.cycle")
        vertex_schedule = [cyc[n % len(cyc)] for n in range(horizon + 1)]
    else:
        _expect(
            isinstance(verts, list) and len(verts) == horizon + 1,
            f"{path}.vertices",
            f"need {horizon + 1} vertex rows or a cycle",
        )
        vertex_schedule = _lists(verts, f"{path}.vertices")
    # vertex names are strings, as the edges' src and dst are
    vertex_schedule = [[str(v) for v in row] for row in vertex_schedule]
    spaces_spec = spec.get("spaces")
    _expect(isinstance(spaces_spec, dict), f"{path}.spaces", "vertex -> [lo, hi] table required")
    spaces = {}
    for v, pair in spaces_spec.items():
        _expect(
            _pair(pair, _number) and pair[0] < pair[1],
            f"{path}.spaces.{v}",
            "[lo, hi] with lo < hi required",
        )
        spaces[v] = interval(*pair)
    edges_spec = spec.get("edges")
    if isinstance(edges_spec, dict) and "cycle" in edges_spec:
        cyc = _cycle(edges_spec["cycle"], f"{path}.edges.cycle")
        edge_rows = [cyc[(n - 1) % len(cyc)] for n in range(1, horizon + 1)]
    else:
        _expect(
            isinstance(edges_spec, list) and len(edges_spec) == horizon,
            f"{path}.edges",
            f"need {horizon} edge rows or a cycle",
        )
        edge_rows = _lists(edges_spec, f"{path}.edges")
    edge_schedule = []
    for n, row in enumerate(edge_rows, start=1):
        parsed = []
        for k, e in enumerate(row):
            epath = f"{path}.edges[{n - 1}][{k}]"
            _expect(isinstance(e, dict), epath, "edge object required")
            for fld in ("label", "src", "dst", "ratio", "offset"):
                _expect(fld in e, epath, f"missing field {fld!r}")
            ratio = _num(e["ratio"], f"{epath}.ratio")
            offset = _num(e["offset"], f"{epath}.offset")
            parsed.append(
                EdgeSpec(
                    str(e["label"]), str(e["src"]), str(e["dst"]),
                    Similarity(ratio, (offset,)),
                )
            )
        edge_schedule.append(parsed)
    counts = [len(r) for r in edge_schedule]
    mats = _matrices(
        spec.get("matrices", "full"), counts, f"{path}.matrices", int_matrices
    )
    return build_gdms(vertex_schedule, edge_schedule, spaces, mats)


def _ascending_spec(spec, path="system") -> AscendingSpec:
    horizon = _horizon(spec.get("horizon"), f"{path}.horizon")
    family = spec.get("family")
    _expect(family in ("cf", "similarity"), f"{path}.family", "family must be cf or similarity")
    base_spec = spec.get("base")
    _expect(isinstance(base_spec, dict) and base_spec, f"{path}.base", "label -> map table required")
    base = {}
    for lbl, v in base_spec.items():
        if family == "cf":
            base[lbl] = MoebiusInverse(_num(v, f"{path}.base.{lbl}"))
        else:
            _expect(
                isinstance(v, dict) and "ratio" in v and "offset" in v,
                f"{path}.base.{lbl}",
                "need ratio and offset",
            )
            base[lbl] = Similarity(
                _num(v["ratio"], f"{path}.base.{lbl}.ratio"),
                (_num(v["offset"], f"{path}.base.{lbl}.offset"),),
            )
    inc = spec.get("include")
    if isinstance(inc, dict) and "prefix" in inc:
        prefix = inc.get("prefix", [])
        _expect(isinstance(prefix, list), f"{path}.include.prefix", "list of rows required")
        prefix = _lists(prefix, f"{path}.include.prefix")
        then = inc.get("then")
        _expect(isinstance(then, list), f"{path}.include.then", "constant tail required")
        include = prefix + [then] * (horizon - len(prefix))
    else:
        _expect(
            isinstance(inc, list) and len(inc) == horizon,
            f"{path}.include",
            f"need {horizon} include rows or prefix/then",
        )
        include = _lists(inc, f"{path}.include")
    return AscendingSpec(
        base_maps=base,
        # labels are strings, as the keys of the base family are
        include=[[str(lbl) for lbl in row] for row in include],
        infinite_family=bool(spec.get("infinite_family", False)),
    )


def _build_ascending(spec, path, int_matrices):
    return build_ascending(_ascending_spec(spec, path))


def _build_elliptic(spec, path, int_matrices):
    q = spec.get("q")
    _expect(isinstance(q, int) and q >= 1, f"{path}.q", "integer q >= 1 required")
    comparability = _num(spec.get("comparability", 1.0), f"{path}.comparability")
    _expect(comparability >= 1, f"{path}.comparability", "a distortion constant is >= 1")
    norm_const = _num(spec.get("norm_const", 1.0), f"{path}.norm_const")
    _expect(norm_const > 0, f"{path}.norm_const", "norm_const must be > 0")
    t_star = _num(spec.get("t_star", 1.2), f"{path}.t_star")
    _expect(t_star > 0, f"{path}.t_star", "t_star must be > 0")
    lat = spec.get("lattice", {})
    r_min = _num(lat.get("r_min", 3.0), f"{path}.lattice.r_min")
    r_max = _num(lat.get("r_max", 10.0), f"{path}.lattice.r_max")
    _expect(0 < r_min < r_max, f"{path}.lattice", "need 0 < r_min < r_max")
    from .systems import gaussian_lattice_poles

    try:
        poles = gaussian_lattice_poles(r_min, r_max)
    except BudgetError as exc:
        _fail(f"{path}.lattice.r_max", str(exc))
    report = elliptic_lower_bound(
        q,
        pole_norm_samples=poles,
        comparability_K=comparability,
        Q_const=norm_const,
        t_grid=(t_star,),
        horizon=_horizon(spec.get("horizon", 6), f"{path}.horizon"),
        build=True,
    )
    _expect(report.system is not None, path, "model instantiation found no feasible pole set")
    return report.system


_BUILDERS = {
    "similarity": _build_similarity,
    "cf": _build_cf,
    "gdms": _build_gdms_cfg,
    "ascending": _build_ascending,
    "elliptic_model": _build_elliptic,
}


def _bundled_spec(spec, path="system"):
    """The packaged system spec of a {"kind": "bundled"} spec, with its
    `overrides` merged in."""
    name = spec.get("name")
    _expect(
        isinstance(name, str) and name in _PACKAGED,
        f"{path}.name",
        f"unknown bundled name {name!r}",
    )
    overrides = spec.get("overrides", {})
    _expect(isinstance(overrides, dict), f"{path}.overrides", "object required")
    packaged = json.loads(_PACKAGED[name].read_text())["system"]
    takes = sorted({"horizon", "t_star"} & packaged.keys())
    for key, val in overrides.items():
        opath = f"{path}.overrides.{key}"
        _expect(key in takes, opath, f"{name} takes only {takes}")
        (_horizon if key == "horizon" else _num)(val, opath)
    return {**packaged, **overrides}


def build_from_spec(spec: dict, path: str = "system", int_matrices=None):
    """The system of a spec; `int_matrices`, when given, collects the
    explicit matrices parsed as plain ints (see `RunConfig.int_matrices`)."""
    _expect(isinstance(spec, dict), path, "system spec must be an object")
    kind = spec.get("kind")
    if kind == "bundled":
        return build_from_spec(_bundled_spec(spec, path), path)
    _expect(
        isinstance(kind, str) and kind in _BUILDERS,
        f"{path}.kind",
        f"unknown kind {kind!r}; choose from {sorted(_BUILDERS) + ['bundled']}",
    )
    return _BUILDERS[kind](spec, path, int_matrices)


def load_config(source):
    """Parse a config file path or a bundled system name.

    Bundled names resolve to the packaged config files, so their documented
    parameter defaults ride along.  Returns (RunConfig, SystemSpec).  Schema
    violations raise SchemaError with the field path; semantic violations
    propagate the builder errors.
    """
    src = str(source)
    if src in _PACKAGED:
        cfg, system = load_config(_PACKAGED[src])
        return replace(cfg, source=src), system
    p = Path(src)
    if not p.exists():
        _fail("(source)", f"{src!r} is neither a bundled name nor a file")
    text = p.read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail("(file)", f"invalid JSON: {exc}")
    _expect(isinstance(raw, dict), "(root)", "config must be a JSON object")
    version = raw.get("schema_version")
    _expect(
        version == SCHEMA_VERSION,
        "schema_version",
        f"expected {SCHEMA_VERSION}, got {version!r}",
    )
    _expect("system" in raw, "system", "missing system spec")
    params = raw.get("params", {})
    _expect(isinstance(params, dict), "params", "params must be an object")
    for key, val in params.items():
        _check_param(key, val, f"params.{key}")
    out_dir = raw.get("output_dir", "out")
    # json.loads makes bools from these literals alone, so without them an
    # integer array parsed from a list of lists held only plain ints
    no_bools = "true" not in text and "false" not in text
    int_matrices = {} if no_bools else None
    system = build_from_spec(raw["system"], int_matrices=int_matrices)
    window = params.get("window")
    if window is not None:
        _expect(
            window[1] <= system.horizon,
            "params.window",
            f"window must sit inside [1, horizon={system.horizon}]",
        )
    n_max = params.get("n_max")
    if n_max is not None:
        _expect(
            n_max <= system.horizon,
            "params.n_max",
            f"n_max must sit in [2, horizon={system.horizon}]",
        )
    cfg = RunConfig(raw["system"], params, out_dir, src, int_matrices or {})
    return cfg, system

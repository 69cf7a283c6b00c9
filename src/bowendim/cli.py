"""Command-line front end: config ingestion, dispatch, report emission.

Exit codes: 0 success, 2 config parse/schema violation, 3 semantic rejection
(contraction, image placement), 4 dimension computed but the supporting
hypotheses failed (outputs still written, flagged advisory), 5 budget
overrun (partial outputs marked).  Environment: BOWENDIM_OUTDIR for the
default output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, geometry, symbolic, thermo
from .config import _PARAMS, _check_param, load_config
from .errors import (
    BracketingError,
    BudgetError,
    BuildError,
    CertificationError,
    ConfigurationError,
    InputError,
    IntegrityError,
    SchemaError,
    UnsupportedError,
)
from .symbolic import certify_primitivity, find_primitivity
from .systems import (
    extract_subsystem_g_bounded,
    reblock_one_primitive,
    reblock_pinched,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_SEMANTIC = 3
EXIT_ADVISORY = 4
EXIT_BUDGET = 5


_CSV_CHUNK = 256  # rows formatted per write; bounds the text held at once


def write_csv(path: Path, header, columns):
    """Write equal-length `columns` (sequences or numpy arrays) under
    `header`, formatted a chunk of rows at a time; `str` of a float is its
    shortest repr."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_CHUNK):
            parts = [col[lo : lo + _CSV_CHUNK] for col in columns]
            cells = [
                map(str, p.tolist() if isinstance(p, np.ndarray) else p) for p in parts
            ]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_json(path: Path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# minimal SVG writer (no plotting dependency)
# ---------------------------------------------------------------------------


def pressure_svg(path: Path, ts, rates, crossing=None):
    """Pressure-rate-versus-t polyline with the zero line and crossing mark."""
    width, height, pad = 640, 420, 50
    t0, t1 = min(ts), max(ts)
    lo = min(min(rates), 0.0)
    hi = max(max(rates), 0.0)
    span_t = (t1 - t0) or 1.0
    span_r = (hi - lo) or 1.0

    def sx(t):
        return pad + (t - t0) / span_t * (width - 2 * pad)

    def sy(r):
        return height - pad - (r - lo) / span_r * (height - 2 * pad)

    pts = " ".join(f"{sx(t):.2f},{sy(r):.2f}" for t, r in zip(ts, rates))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{sy(0):.2f}" x2="{width - pad}" y2="{sy(0):.2f}"'
        ' stroke="#999" stroke-dasharray="4 3"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="#333"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}"'
        ' stroke="#333"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.6"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle"'
        ' font-size="13" font-family="sans-serif">t</text>',
        f'<text x="14" y="{height / 2:.0f}" font-size="13" font-family="sans-serif"'
        f' transform="rotate(-90 14 {height / 2:.0f})" text-anchor="middle">'
        "pressure rate</text>",
    ]
    for t in (t0, t1):
        parts.append(
            f'<text x="{sx(t):.1f}" y="{height - pad + 16}" text-anchor="middle"'
            f' font-size="11" font-family="sans-serif">{t:.4g}</text>'
        )
    for r in (lo, hi):
        parts.append(
            f'<text x="{pad - 6}" y="{sy(r):.1f}" text-anchor="end" font-size="11"'
            f' font-family="sans-serif">{r:.3g}</text>'
        )
    if crossing is not None:
        parts.append(
            f'<circle cx="{sx(crossing):.2f}" cy="{sy(0):.2f}" r="4" fill="#c23b22"/>'
        )
        parts.append(
            f'<text x="{sx(crossing):.1f}" y="{sy(0) - 10:.1f}" text-anchor="middle"'
            f' font-size="12" font-family="sans-serif">t* ≈ {crossing:.6f}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _out_dir(args, cfg):
    out = args.out or os.environ.get("BOWENDIM_OUTDIR") or cfg.output_dir
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _param(args, cfg, name, cast=None):
    val = getattr(args, name.replace("-", "_"), None)
    if val is None:
        val = cfg.param(name)
    return cast(val) if (cast and val is not None) else val


def _t_bracket(args, cfg, system):
    tb = _param(args, cfg, "t_bracket")
    lo = tb[0] if tb and tb[0] is not None else 0.0
    hi = tb[1] if tb and tb[1] is not None else float(system.dim)
    return (float(lo), float(hi))


def _theta(system):
    theta = thermo.system_theta(system)
    return {"theta_n": theta.theta_n, "theta_phi_lower": theta.theta_phi_lower}


def cmd_check(args, cfg, system, out):
    rep = thermo.hypothesis_report(system, p_max=_param(args, cfg, "p_max", int))
    osc = geometry.verify_osc(system, 1)
    payload = {
        "command": "check",
        "hypotheses": rep.as_dict(),
        "osc_level1_ok": osc.ok,
        "osc_violations": [list(v[:2]) for v in osc.violations[:10]],
        "theta": _theta(system),
        "contraction": {
            "block": system.contraction.block,
            "eta_block": system.contraction.eta_block,
        },
        "distortion": system.distortion,
    }
    write_json(out / "summary.json", _with_meta(payload, cfg, args))
    for key in ("justification", "detail"):
        print(f"{key}: {rep.as_dict()[key]}")
    print(f"balancing: {rep.balancing.verdict}; alphabet growth: {rep.subexp_verdict}")
    print(f"osc level 1 ok: {osc.ok}")
    return EXIT_OK if rep.bowen_supported else EXIT_ADVISORY


def _pressure_columns(system, ts, window, budget):
    columns = [[] for _ in range(6)]
    rates = []
    for t in ts:
        est = thermo.pressure_estimate(system, t, window, budget=budget)
        for col, part in zip(columns, est.columns()):
            col.extend(part)
        rates.append(0.5 * (est.growth_rate[0] + est.growth_rate[1]))
    return columns, rates


def cmd_pressure(args, cfg, system, out):
    window = _param(args, cfg, "window") or (max(1, system.horizon // 2), system.horizon)
    t = _param(args, cfg, "t", float)
    est = thermo.pressure_estimate(
        system, t, tuple(window), budget=_param(args, cfg, "budget", int)
    )
    write_csv(
        out / "pressure.csv",
        ("n", "t", "z_lo", "z_hi", "s_n_lo", "s_n_hi"),
        est.columns(),
    )
    write_json(
        out / "summary.json",
        _with_meta(
            {
                "command": "pressure",
                "t": t,
                "window": list(est.window),
                "growth_rate": list(est.growth_rate),
                "lower_proxy": list(est.lower_proxy),
                "upper_proxy": list(est.upper_proxy),
                "oscillation_flagged": est.flagged_oscillation,
            },
            cfg,
            args,
        ),
    )
    print(
        f"t={t}: rate bracket ({est.growth_rate[0]:.6g}, {est.growth_rate[1]:.6g}),"
        f" lower proxy {est.lower_proxy[0]:.6g}, upper proxy {est.upper_proxy[1]:.6g}"
    )
    return EXIT_OK


def _bracket_keys(res):
    """The summary keys of a dimension bracket, for dimension and report."""
    return {
        "bracket": list(res.bracket),
        "midpoint": res.midpoint,
        "width": res.width,
        "horizon": res.horizon,
        "tolerance": res.tol,
        "uncertainty": list(res.uncertainty),
        "hypotheses": res.hypothesis.as_dict(),
    }


def cmd_dimension(args, cfg, system, out):
    n_max = _param(args, cfg, "n_max", int) or system.horizon
    res = thermo.bowen_dimension(
        system,
        _t_bracket(args, cfg, system),
        n_max,
        tol=_param(args, cfg, "tol", float),
        window=_param(args, cfg, "window"),
        budget=_param(args, cfg, "budget", int),
        p_max=_param(args, cfg, "p_max", int),
    )
    payload = {"command": "dimension", **_bracket_keys(res)}
    write_json(out / "summary.json", _with_meta(payload, cfg, args))
    print(
        f"dimension bracket: [{res.bracket[0]:.6f}, {res.bracket[1]:.6f}]"
        f" ({res.hypothesis.justification})"
    )
    return EXIT_OK if res.hypothesis.bowen_supported else EXIT_ADVISORY


def _cloud(args, cfg, system, with_words=True):
    """The limit-set sample of the sample, boxdim and report commands.

    The depth is clamped to the horizon; an exhaustive sample at the default
    depth shrinks it until the words fit `max_points`.
    """
    depth = min(_param(args, cfg, "depth", int), system.horizon)
    max_points = _param(args, cfg, "max_points", int)
    strategy = _param(args, cfg, "sample_strategy")
    explicit = args.depth is not None or "depth" in cfg.params
    if not explicit and strategy == "exhaustive":
        while depth > 1 and symbolic.count_words(1, depth, system.schedule) > max_points:
            depth -= 1
    return geometry.sample_limit_set(
        system,
        depth,
        max_points,
        strategy=strategy,
        seed=_param(args, cfg, "seed", int),
        with_words=with_words,
    )


def _write_points(out, system, cloud):
    header = ("x", "y", "radius", "word") if system.dim == 2 else ("x", "radius", "word")
    write_csv(out / "points.csv", header, cloud.columns())


def cmd_sample(args, cfg, system, out):
    cloud = _cloud(args, cfg, system)
    _write_points(out, system, cloud)
    try:
        cover = geometry.level_cover(system, min(cloud.depth, 3), budget=4096)
        bounds = ("lo", "hi") if system.dim == 1 else ("cx", "cy", "r")
        write_csv(
            out / "cover.csv", ("word", "root") + bounds + ("diam",), cover.columns()
        )
    except BudgetError:
        pass
    write_json(
        out / "summary.json",
        _with_meta(
            {
                "command": "sample",
                "points": len(cloud),
                "depth": cloud.depth,
                "strategy": _param(args, cfg, "sample_strategy"),
            },
            cfg,
            args,
        ),
    )
    print(f"wrote {len(cloud)} points at depth {cloud.depth}")
    return EXIT_OK


def cmd_boxdim(args, cfg, system, out):
    cloud = _cloud(args, cfg, system, with_words=False)
    fit = geometry.box_counting_dim(
        cloud.coords, cloud.radii, tuple(_param(args, cfg, "scale_window"))
    )
    payload = {
        "command": "boxdim",
        "slope": fit.slope,
        "stderr": fit.stderr,
        "points": len(cloud),
        "depth": cloud.depth,
    }
    write_json(out / "summary.json", _with_meta(payload, cfg, args))
    print(f"box-counting slope: {fit.slope:.4f} +- {fit.stderr:.4f}")
    return EXIT_OK


def _letters_per_block(sub):
    return [len(sub.schedule.letters(n)) for n in range(1, sub.horizon + 1)]


def cmd_subsystem(args, cfg, system, out):
    mode = _param(args, cfg, "mode")
    t = _param(args, cfg, "t", float)
    if mode == "blocks":
        p = args.p if args.p is not None else 1
        cert = certify_primitivity(system.schedule, p)
        if cert is None:
            raise CertificationError(f"no connector certificate at p={p}")
        sub = extract_subsystem_g_bounded(system, cert, _param(args, cfg, "ell", int), t)
        payload = {
            "command": "subsystem",
            "mode": mode,
            "blocks": sub.blocks,
            "pairs": [list(p) for p in sub.pairs],
            "sandwich_constant": sub.sandwich_constant,
            "letters_per_block": _letters_per_block(sub.system),
        }
    elif mode == "pinched":
        pinch = _param(args, cfg, "pinch_times")
        if pinch is None:
            raise InputError("pinched mode needs pinch_times")
        sub_sys = reblock_pinched(system, [int(x) for x in pinch])
        payload = {
            "command": "subsystem",
            "mode": mode,
            "blocks": sub_sys.horizon,
            "letters_per_block": _letters_per_block(sub_sys),
        }
    elif mode == "uniform":
        cert = (
            certify_primitivity(system.schedule, args.p)
            if args.p is not None
            else find_primitivity(system.schedule, _param(args, cfg, "p_max", int))
        )
        if cert is None or cert.p < 1:
            raise CertificationError("uniform re-blocking needs a certificate with p >= 1")
        sub_sys = reblock_one_primitive(system, cert)
        payload = {
            "command": "subsystem",
            "mode": mode,
            "p": cert.p,
            "blocks": sub_sys.horizon,
            "letters_per_block": _letters_per_block(sub_sys),
        }
    else:
        raise InputError(f"unknown subsystem mode {mode!r}")
    write_json(out / "summary.json", _with_meta(payload, cfg, args))
    print(json.dumps(payload["letters_per_block"]))
    return EXIT_OK


def cmd_report(args, cfg, system, out):
    budget = _param(args, cfg, "budget", int)
    n_max = _param(args, cfg, "n_max", int) or system.horizon
    window = _param(args, cfg, "window") or (1, n_max)
    res = thermo.bowen_dimension(
        system,
        _t_bracket(args, cfg, system),
        n_max,
        tol=_param(args, cfg, "tol", float),
        window=tuple(window),
        budget=budget,
        p_max=_param(args, cfg, "p_max", int),
    )
    # pressure curve across the initial bracket
    t_lo, t_hi = _t_bracket(args, cfg, system)
    n_ts = _param(args, cfg, "t_grid", int)
    ts = [t_lo + (t_hi - t_lo) * k / (n_ts - 1) for k in range(n_ts)]
    columns, rates = _pressure_columns(system, ts, tuple(window), budget)
    write_csv(
        out / "pressure.csv",
        ("n", "t", "z_lo", "z_hi", "s_n_lo", "s_n_hi"),
        columns,
    )
    pressure_svg(out / "pressure.svg", ts, rates, crossing=res.midpoint)

    cloud = _cloud(args, cfg, system)
    _write_points(out, system, cloud)
    try:
        fit = geometry.box_counting_dim(
            cloud.coords, cloud.radii, tuple(_param(args, cfg, "scale_window"))
        )
        box = {"slope": fit.slope, "stderr": fit.stderr}
    except InputError as exc:
        box = {"error": str(exc)}

    trend = thermo.hausdorff_measure_trend(
        system, res.midpoint, (max(1, n_max // 2), n_max), budget=budget
    )
    ab = thermo.ab_dimension_bounds(system)
    payload = {
        "command": "report",
        **_bracket_keys(res),
        "theta": _theta(system),
        "balancing": res.hypothesis.balancing.verdict,
        "measure_trend": trend.verdict,
        "box_counting": box,
        "ab_bounds": {
            "applicable": ab.applicable,
            "lo": ab.lo,
            "hi": ab.hi,
            "point": ab.point,
        },
        "points": len(cloud),
    }
    write_json(out / "summary.json", _with_meta(payload, cfg, args))
    print(
        f"dimension: [{res.bracket[0]:.6f}, {res.bracket[1]:.6f}]"
        f" | justification: {res.hypothesis.justification}"
        f" | box slope: {box.get('slope')}"
    )
    return EXIT_OK if res.hypothesis.bowen_supported else EXIT_ADVISORY


def _with_meta(payload, cfg, args):
    payload = dict(payload)
    payload["meta"] = {
        "version": __version__,
        "source": cfg.source,
        "seed": _param(args, cfg, "seed", int),
        "system_sha256": _spec_sha256(cfg.system_spec, cfg.int_matrices),
    }
    return payload


def _spec_sha256(spec, int_matrices=None):
    """SHA-256 of json.dumps(spec, sort_keys=True), hashed piece by piece so
    that a large matrix is never held as one string.  A list that the loader
    parsed as a 0/1 matrix of plain ints (`RunConfig.int_matrices`) is
    rendered from its array."""
    digest = hashlib.sha256()

    def feed(obj):
        parsed = int_matrices.get(id(obj)) if int_matrices else None
        if parsed is not None and parsed[0] is obj:
            _feed_zero_one(digest, parsed[1])
            return
        if isinstance(obj, dict):
            pieces = [(json.dumps(k) + ": ", v) for k, v in sorted(obj.items())]
            opening, closing = "{", "}"
        elif isinstance(obj, list) and obj and isinstance(obj[0], (list, dict)):
            pieces = [("", v) for v in obj]
            opening, closing = "[", "]"
        else:
            digest.update(json.dumps(obj, sort_keys=True).encode())
            return
        digest.update(opening.encode())
        for i, (key, value) in enumerate(pieces):
            digest.update(((", " if i else "") + key).encode())
            feed(value)
        digest.update(closing.encode())

    feed(spec)
    return digest.hexdigest()


def _feed_zero_one(digest, mat):
    """Feed `digest` the json.dumps bytes of a boolean matrix (at least one
    column) read as 0/1 ints, written in numpy 64 rows at a time: each row is
    "[d, d, ..., d], " (3 bytes an entry and 2 more), and the last drops its
    ", "."""
    end = 3 * mat.shape[1]
    out = np.empty((min(64, mat.shape[0]), end + 2), dtype=np.uint8)
    out[:, 0] = ord("[")
    out[:, 2:end:3] = ord(",")
    out[:, 3:end:3] = ord(" ")
    out[:, end - 1] = ord("]")
    out[:, end:] = ord(","), ord(" ")
    digest.update(b"[")
    for start in range(0, mat.shape[0], out.shape[0]):
        block = mat[start : start + out.shape[0]]
        rows = out[: block.shape[0]]
        rows[:, 1:end:3] = block
        rows[:, 1:end:3] += ord("0")
        last = start + block.shape[0] == mat.shape[0]
        digest.update(rows.reshape(-1)[:-2] if last else rows)
    digest.update(b"]")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bowendim",
        description="Dimension estimates for schedules of conformal contractions",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "source", help="bundled system name or JSON config file path"
    )
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--budget", type=int, default=None)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--n-max", type=int, default=None)
    common.add_argument("--window", type=int, nargs=2, default=None)
    common.add_argument("--depth", type=int, default=None)
    common.add_argument("--max-points", type=int, default=None)
    common.add_argument(
        "--t-bracket", type=float, nargs=2, default=None, metavar=("LO", "HI")
    )
    common.add_argument("--t", type=float, default=None)

    sub.add_parser("check", parents=[common], help="hypothesis checks only")
    sub.add_parser("pressure", parents=[common], help="pressure curve at one t")
    sub.add_parser("dimension", parents=[common], help="bracket the dimension")
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument(
        "--sample-strategy", default=None, choices=geometry.SAMPLE_STRATEGIES
    )
    counted = argparse.ArgumentParser(add_help=False, parents=[sampled])
    counted.add_argument("--scale-window", type=float, nargs=2, default=None)
    sub.add_parser("sample", parents=[common, sampled], help="limit-set point cloud")
    sub.add_parser("boxdim", parents=[common, counted], help="box-counting estimate")
    ss = sub.add_parser("subsystem", parents=[common], help="derived subsystems")
    ss.add_argument("--mode", default=None, choices=("blocks", "pinched", "uniform"))
    ss.add_argument("--ell", type=int, default=None)
    ss.add_argument("--p", type=int, default=None)
    ss.add_argument("--pinch-times", type=int, nargs="+", default=None)
    rp = sub.add_parser("report", parents=[common, counted], help="everything")
    rp.add_argument("--t-grid", type=int, default=None)
    return ap


_COMMANDS = {
    "check": cmd_check,
    "pressure": cmd_pressure,
    "dimension": cmd_dimension,
    "sample": cmd_sample,
    "boxdim": cmd_boxdim,
    "subsystem": cmd_subsystem,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, system = load_config(args.source)
        for name in _PARAMS:
            val = getattr(args, name, None)
            if val is not None:
                _check_param(name, val, "--" + name.replace("_", "-"))
    except SchemaError as exc:
        print(f"config error at {exc.path}: {exc.message}", file=sys.stderr)
        return EXIT_SCHEMA
    except (BuildError, CertificationError, IntegrityError, InputError) as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    out = _out_dir(args, cfg)
    try:
        return _COMMANDS[args.command](args, cfg, system, out)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        write_json(
            out / "summary.json",
            _with_meta(
                {"command": args.command, "partial": True, "error": str(exc)},
                cfg,
                args,
            ),
        )
        return EXIT_BUDGET
    except (BuildError, CertificationError, IntegrityError, UnsupportedError) as exc:
        print(f"semantic error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (InputError, ConfigurationError, BracketingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())

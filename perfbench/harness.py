"""Workload passes, set-up and memory measurement, and the result line.

Imported by run.py once the library sources are on sys.path."""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import oracle
import tracing
import workloads
from bowendim import cli
from bowendim.config import load_config

ROOT = Path(__file__).resolve().parent.parent
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"

MIN_PASSES = 3
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60

# spans reported as per-layer metrics "<span>_s" (self seconds per pass)
TIMED_SPANS = (
    "frontier.sweep", "frontier.generic_walk", "maps.compose_norm",
    "thermo.pressure_estimate", "thermo.bowen_dimension", "thermo.hypothesis_report",
    "thermo.measure_trend", "symbolic.transfer", "symbolic.find_primitivity",
    "symbolic.growth_stats", "symbolic.count_words", "config.load", "system.validate",
    "maps.contraction_eta", "maps.distortion", "geometry.sample", "geometry.box_count",
    "geometry.level_cover", "geometry.verify_osc", "geometry.diameter",
    "cli.write_csv", "cli.write_json", "cli.svg",
)
# spans reported as "<span>_calls" (calls per pass)
COUNTED_SPANS = (
    "frontier.sweep", "frontier.generic_walk", "maps.compose_norm",
    "thermo.pressure_estimate", "symbolic.transfer",
)
# work counts the wrappers add up (tracing.py)
WORK_COUNTS = (
    "frontier.words",
    "frontier.generic_words",
    "thermo.bisection_steps",
    "geometry.points",
    "geometry.boxes",
    "cli.csv_bytes",
)


def declared_metrics():
    """{name: unit} for the end-to-end and the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Pass:
    """One run of every call in a workload, with the answers checked."""

    def __init__(self, workload, out_root, tracer=None):
        self.seconds = 0.0
        self.failures = {}  # call name -> what was wrong
        self.widths = []
        self.csv_hashes = {}
        self.reports = 0
        for call in workload.calls:
            out = out_root / call.name
            shutil.rmtree(out, ignore_errors=True)
            if tracer is None:
                rc, dt, err = _invoke(call.argv(out))
            else:
                with tracing.installed(tracer):
                    rc, dt, err = _invoke(call.argv(out))
            self.seconds += dt
            self.reports += call.command == "report"
            if rc != call.expect_exit:
                problem = f"exit {rc}, expected {call.expect_exit}: {err.strip()}"
            else:
                summary = json.loads((out / "summary.json").read_text())
                problem = call.check(summary)
                width = _bracket_width(summary)
                if width is not None:
                    self.widths.append(width)
            if problem:
                self.failures[call.name] = problem
            for path in sorted(out.glob("*.csv")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                self.csv_hashes[f"{call.name}/{path.name}"] = digest


def _invoke(argv):
    """cli.main(argv) with its console output captured: (exit, seconds, stderr).

    A call that raises counts as a failed call with exit None.
    """
    sink, err = io.StringIO(), io.StringIO()
    with redirect_stdout(sink), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return rc, elapsed, err.getvalue()


def _bracket_width(summary):
    """Width of the dimension interval a call reports: its bracket, or slope +- stderr."""
    if "bracket" in summary:
        lo, hi = summary["bracket"]
        return hi - lo
    if "stderr" in summary:
        return 2.0 * summary["stderr"]
    return None


def layer_metrics(tracer, n_reports):
    """Per-layer metrics of one traced pass."""
    metrics = {f"{span}_s": tracer.self_s[span] for span in TIMED_SPANS}
    metrics.update({f"{span}_calls": tracer.calls[span] for span in COUNTED_SPANS})
    metrics.update({k: tracer.counts[k] for k in WORK_COUNTS})
    for key, span in (
        ("frontier.sweeps_per_report", "frontier.sweep"),
        ("thermo.pressure_estimates_per_report", "thermo.pressure_estimate"),
    ):
        metrics[key] = tracer.calls[span] / n_reports if n_reports else 0.0
    return metrics


# ---------------------------------------------------------------------------
# set-up and memory
# ---------------------------------------------------------------------------


def time_setup(configs):
    """Seconds to load every config of the workload once."""
    start = time.perf_counter()
    for path in configs:
        load_config(str(path))
    return time.perf_counter() - start


def measure_peak_rss(args):
    """Peak RSS in MB of a fresh interpreter that runs one pass."""
    cmd = [
        sys.executable, str(RUN_SCRIPT),
        "--workload", args.workload, "--seed", str(args.seed), "--rss-child",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"peak-RSS child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it, never below the median: with fewer than 2 * TAIL_BEYOND + 1
    samples that percentile would not be a tail."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, (len(ordered) - 1) // 2)
    return max(ordered[k], statistics.median(ordered)), 100.0 * (k + 1) / len(ordered)


def machine():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"machine: nproc={os.cpu_count()} cpu={model!r}"
        f" python={platform.python_version()} numpy={np.__version__}"
    )


def run(args, work):
    end_to_end_units, per_layer_units = declared_metrics()
    wl = workloads.build(args.workload, args.seed, work)
    out_root = work / "out"

    if args.rss_child:
        Pass(wl, out_root)
        print(peak_rss_mb())
        return 0

    print(machine())
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace} calls={[c.name for c in wl.calls]}")
    rss = None if args.trace else measure_peak_rss(args)

    passes = [Pass(wl, out_root)]  # warm-up: fills caches, not timed
    timed, traced = [], []
    setup_samples = []  # one load of every config before each untraced pass
    tracer = tracing.Tracer()
    layer_samples = []  # (metrics, span self seconds) per traced pass
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and len(timed) > len(traced):
            tracer.reset()
            p = Pass(wl, out_root, tracer)
            traced.append(p)
            layer_samples.append((layer_metrics(tracer, p.reports), dict(tracer.self_s)))
        else:
            setup_samples.append(time_setup(wl.configs))
            p = Pass(wl, out_root)
            timed.append(p)
        passes.append(p)
        enough = len(timed) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        if time.perf_counter() >= deadline and enough:
            break

    tally, oracle_errors = check_pressure(wl, passes[-1], out_root, args.seed)
    print_csv_hashes(passes)
    attempted = len(passes) * len(wl.calls)
    failed = sum(len(p.failures) for p in passes)
    messages = [f"{name}: {msg}" for p in passes for name, msg in p.failures.items()]
    for msg in (messages + oracle_errors)[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(layer_samples, traced, timed, tally)
        units = per_layer_units
    else:
        metrics = end_to_end(setup_samples, timed, passes, rss)
        units = end_to_end_units
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted} calls)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def check_pressure(wl, last, out_root, seed):
    """Oracle check of the last pass's pressure.csv files; a file with rows
    beyond the tolerance fails its call."""
    tally = oracle.OracleTally()
    rng = np.random.default_rng([seed, 1])
    messages = []
    for call in wl.calls:
        if call.exact_z is None or call.name in last.failures:
            continue
        errors = tally.check_file(out_root / call.name / "pressure.csv", call.exact_z, rng)
        if errors:
            last.failures[call.name] = "pressure.csv rows beyond the oracle tolerance"
        messages.extend(f"{call.name}/pressure.csv {e}" for e in errors)
    print(
        f"oracle: {tally.rows} pressure rows, {tally.beyond_tol} beyond relative"
        f" {oracle.REL_TOL:g}, {tally.strict_misses} outside [z_lo, z_hi],"
        f" max relative error {tally.max_rel_err:.3g}"
    )
    return tally, messages


def print_csv_hashes(passes):
    """SHA-256 of every CSV each call wrote, over all passes (not gated)."""
    hashes = {}
    for p in passes:
        for key, digest in p.csv_hashes.items():
            hashes.setdefault(key, set()).add(digest)
    for key, digests in sorted(hashes.items()):
        print(f"csv sha256 {key}: {' '.join(sorted(digests))}")


def end_to_end(setup_samples, timed, passes, rss):
    run_times = [p.seconds for p in timed]
    tail_s, tail_pct = tail(run_times)
    widths = [w for p in passes for w in p.widths]
    print(f"setup_s: median of {len(setup_samples)} set-ups")
    print(f"run_s_tail: p{tail_pct:.1f} of {len(run_times)} passes")
    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(run_times),
        "run_s_tail": tail_s,
        "peak_rss_mb": rss,
        # 0 only when every call that reports an interval failed
        "bracket_width": max(widths, default=0.0),
    }


def per_layer(layer_samples, traced, timed, tally):
    metrics = {
        k: statistics.median(m[k] for m, _ in layer_samples) for k in layer_samples[0][0]
    }
    names = {name for _, spans in layer_samples for name in spans}
    span_s = {
        name: statistics.median(spans.get(name, 0.0) for _, spans in layer_samples)
        for name in names
    }
    print(f"span self seconds, median of {len(traced)} traced passes:")
    for name, value in sorted(span_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:28s} {value:.6f}")
    coverage = [sum(spans.values()) / p.seconds for (_, spans), p in zip(layer_samples, traced)]
    traced_s = statistics.median(p.seconds for p in traced)
    untraced_s = statistics.median(p.seconds for p in timed)
    metrics.update({
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.self_coverage": statistics.median(coverage),
        "oracle.rows": tally.rows,
        "oracle.strict_misses": tally.strict_misses,
        "oracle.max_rel_err": tally.max_rel_err,
    })
    return metrics


def main(args):
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

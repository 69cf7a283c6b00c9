"""Spans and counts recorded around calls into the library's modules.

The traced run swaps each instrumented function for a timing wrapper in the
namespace its caller looks the name up in (for example `_frontier.compose_norm`
as well as `maps.compose_norm`), runs one workload pass, and puts the
originals back.  Each span accumulates its call count and its self time: its
duration minus the time of the spans it encloses.  Nothing inside the library
changes.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from bowendim import _frontier, cli, geometry, maps, symbolic, systems, thermo


class Tracer:
    """Per-pass span totals: calls, self seconds and work counts by name."""

    def __init__(self):
        self._open = []  # [start, seconds spent in enclosed spans] per open span
        self.reset()

    def reset(self):
        self._open.clear()
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def wrap(self, name, fn, before=None, after=None):
        """`fn` timed as span `name`; `before` may rewrite its arguments and
        `after(tracer, args, kwargs, result)` may add counts."""
        clock = time.perf_counter
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            open_spans.append(frame)
            try:
                if before is not None:
                    args, kwargs = before(self, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs, result)
                return result
            finally:
                open_spans.pop()
                elapsed = clock() - frame[0]
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1][1] += elapsed

        return traced


def _replace_arg(args, kwargs, index, key, wrap):
    if len(args) > index:
        args = args[:index] + (wrap(args[index]),) + args[index + 1:]
    else:
        kwargs = dict(kwargs, **{key: wrap(kwargs[key])})
    return args, kwargs


def _count_levels(tracer, args, kwargs):
    """sweep(system, m, n, state_impl, on_level, ...): count frontier words."""

    def wrap(on_level):
        # functools.wraps copies __dict__, so `needs_words` survives
        @functools.wraps(on_level)
        def counted(j, letters, state, words):
            tracer.counts["frontier.words"] += int(letters.size)
            return on_level(j, letters, state, words)

        return counted

    return _replace_arg(args, kwargs, 4, "on_level", wrap)


def _count_words(tracer, args, kwargs):
    """generic_norm_walk(system, m, n, on_word, ...): count walked words."""

    def wrap(on_word):
        @functools.wraps(on_word)
        def counted(j, word, bracket):
            tracer.counts["frontier.generic_words"] += 1
            return on_word(j, word, bracket)

        return counted

    return _replace_arg(args, kwargs, 3, "on_word", wrap)


def _bisection_steps(tracer, args, kwargs, result):
    # the first two evaluations are the bracket endpoints
    tracer.counts["thermo.bisection_steps"] += max(0, len(result.trace) - 2)


def _points(tracer, args, kwargs, result):
    tracer.counts["geometry.points"] += len(result)


def _boxes(tracer, args, kwargs, result):
    tracer.counts["geometry.boxes"] += sum(result.counts)


def _csv_bytes(tracer, args, kwargs, result):
    tracer.counts["cli.csv_bytes"] += Path(args[0]).stat().st_size


# (namespace, attribute, span name, before, after); a namespace is the module
# or class the caller resolves the name in.
PATCHES = (
    (cli, "load_config", "config.load", None, None),
    (cli, "write_csv", "cli.write_csv", None, _csv_bytes),
    (cli, "write_json", "cli.write_json", None, None),
    (cli, "pressure_svg", "cli.svg", None, None),
    (systems, "validate_system", "system.validate", None, None),
    (maps, "contraction_eta", "maps.contraction_eta", None, None),
    (maps, "distortion_constant", "maps.distortion", None, None),
    (maps, "compose_norm", "maps.compose_norm", None, None),
    (_frontier, "compose_norm", "maps.compose_norm", None, None),
    (systems, "compose_norm", "maps.compose_norm", None, None),
    (_frontier, "sweep", "frontier.sweep", _count_levels, None),
    (_frontier, "generic_norm_walk", "frontier.generic_walk", _count_words, None),
    (thermo, "bowen_dimension", "thermo.bowen_dimension", None, _bisection_steps),
    (thermo, "pressure_estimate", "thermo.pressure_estimate", None, None),
    (thermo, "hypothesis_report", "thermo.hypothesis_report", None, None),
    (thermo, "hausdorff_measure_trend", "thermo.measure_trend", None, None),
    (thermo, "system_theta", "thermo.system_theta", None, None),
    (thermo, "ab_dimension_bounds", "thermo.ab_bounds", None, None),
    (thermo, "find_primitivity", "symbolic.find_primitivity", None, None),
    (systems, "find_primitivity", "symbolic.find_primitivity", None, None),
    (thermo, "growth_stats", "symbolic.growth_stats", None, None),
    (symbolic, "count_words", "symbolic.count_words", None, None),
    (symbolic.DenseIncidence, "transfer", "symbolic.transfer", None, None),
    (symbolic.FullIncidence, "transfer", "symbolic.transfer", None, None),
    (geometry, "sample_limit_set", "geometry.sample", None, _points),
    (geometry, "box_counting_dim", "geometry.box_count", None, _boxes),
    (geometry, "level_cover", "geometry.level_cover", None, None),
    (geometry, "verify_osc", "geometry.verify_osc", None, None),
    (geometry, "diameter_diagnostics", "geometry.diameter", None, None),
)


@contextmanager
def installed(tracer):
    """Route every patched name through `tracer` until the block exits."""
    originals = []
    try:
        for owner, attr, name, before, after in PATCHES:
            fn = vars(owner)[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, before, after))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

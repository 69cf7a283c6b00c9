"""A traced run of a command and a walked partition records every count the
benchmark reads.

`tests/test_bench_hooks.py` checks that each name `perfbench/tracing.py`
patches exists; a refactor that moves a callback argument a counting wrapper
rewrites (`sweep`'s `on_level`, `generic_norm_walk`'s `on_word`) would still
pass there and only break the traced benchmark run.  This test runs it.
"""

import importlib.util
from pathlib import Path

from bowendim import cli, partition

from conftest import mixed_pair_system

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_record_every_count(tmp_path):
    tracing = _load_tracing()
    report = ["report", "cf12", "--n-max", "8", "--depth", "6", "--out", str(tmp_path)]
    with tracing.installed(tracing.Tracer()) as tracer:
        assert cli.main(report) == 0
        # a range that mixes the two map families walks its words one by one
        partition(mixed_pair_system(8), 1, 8, 0.5)
    for name in ("frontier.words", "frontier.generic_words", "thermo.bisection_steps",
                 "cli.csv_bytes"):
        assert tracer.counts[name] > 0, name
    assert tracer.calls["maps.compose_norm"] > 0

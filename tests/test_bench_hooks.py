"""The benchmark's traced run patches library names where callers look them up.

`perfbench/tracing.py` swaps each entry of `PATCHES` via `vars(owner)[attr]`,
so a refactor that moves or renames a traced name must fail here rather than
in the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, *_ in tracing.PATCHES],
    ids=[f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.PATCHES],
)
def test_patched_name_lives_in_its_namespace(owner, attr):
    assert attr in vars(owner)
    assert callable(vars(owner)[attr])


def test_patches_restore_originals():
    before = [vars(owner)[attr] for owner, attr, *_ in tracing.PATCHES]
    with tracing.installed(tracing.Tracer()):
        pass
    after = [vars(owner)[attr] for owner, attr, *_ in tracing.PATCHES]
    assert after == before

"""Every demo script runs to completion, with warnings raised as errors as in
the test suite, and prints something."""

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # argv[1] is the output directory of demos that write files
    proc = subprocess.run(
        [sys.executable, str(demo), str(tmp_path)],
        cwd=tmp_path, env=child_env(PYTHONWARNINGS="error"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

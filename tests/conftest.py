import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bowendim import TabulatedInterval, bundled, interval
from bowendim.system import SystemSpec
from oracles import ncifs_schedule

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**extra):
    """The environment for a child interpreter: this one's, with the package
    sources first on PYTHONPATH (pytest's own `pythonpath` setting does not
    reach a child) and `extra` set."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def tabulated_pair_system(horizon):
    """Two tabulated letters per time on [0, 1].  Each has sup |D phi| = 1,
    but maps [0, 1] into [0, 0.45], inside the cell of slopes <= 0.15, so
    every 2-letter window contracts."""

    def tab(v1):
        return TabulatedInterval(
            nodes=(0.0, 0.5, 1.0), values=(0.0, v1, 0.45),
            deriv_lo=(0.05, 0.7), deriv_hi=(0.15, 1.0), distortion=20.0,
        )

    return SystemSpec(
        schedule=ncifs_schedule([["t0", "t1"]] * horizon),
        spaces=tuple((interval(0.0, 1.0),) for _ in range(horizon + 1)),
        maps=((),) + ((tab(0.05), tab(0.04)),) * horizon,
    )


@pytest.fixture(scope="session")
def cantor():
    return bundled.cantor3(16)


@pytest.fixture(scope="session")
def cantor30():
    return bundled.cantor3(30)


@pytest.fixture(scope="session")
def cf(cf_horizon=12):
    return bundled.cf12(12)


@pytest.fixture(scope="session")
def cf18():
    return bundled.cf12(18)


@pytest.fixture(scope="session")
def alt():
    return bundled.alt24(30)


@pytest.fixture(scope="session")
def abhalf():
    return bundled.ab_half(12)


@pytest.fixture(scope="session")
def gdms():
    return bundled.gdms2v(16)


@pytest.fixture(scope="session")
def gdms26():
    return bundled.gdms2v(26)


@pytest.fixture(scope="session")
def pinch():
    return bundled.pinch2(12)


@pytest.fixture(scope="session")
def perm():
    return bundled.perm2(10)


@pytest.fixture(scope="session")
def elliptic():
    return bundled.elliptic_q2()

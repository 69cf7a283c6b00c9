import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bowendim import bundled

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**extra):
    """The environment for a child interpreter: this one's, with the package
    sources first on PYTHONPATH (pytest's own `pythonpath` setting does not
    reach a child) and `extra` set."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


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

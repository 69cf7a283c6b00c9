import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bowendim import EdgeSpec, MoebiusInverse, Similarity, build_gdms, bundled, interval

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**extra):
    """The environment for a child interpreter: this one's, with the package
    sources first on PYTHONPATH (pytest's own `pythonpath` setting does not
    reach a child) and `extra` set."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def mixed_pair_system(horizon):
    """Two similarities at odd times and the reciprocal shifts of digits 1
    and 2 at even times, one vertex on [0, 1], built through `build_gdms`.
    Every range longer than one time mixes the two families, so its norms
    and points are walked word by word; digit 1 alone does not contract, but
    every 2-letter window does (sup norm 0.45)."""
    sims = [
        EdgeSpec("s0", "v", "v", Similarity(0.45, (0.0,))),
        EdgeSpec("s1", "v", "v", Similarity(0.45, (0.55,))),
    ]
    digits = [
        EdgeSpec("1", "v", "v", MoebiusInverse(1.0)),
        EdgeSpec("2", "v", "v", MoebiusInverse(2.0)),
    ]
    return build_gdms(
        [["v"]] * (horizon + 1),
        [sims if n % 2 else digits for n in range(1, horizon + 1)],
        {"v": interval(0.0, 1.0)},
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

"""The paper's worked systems, by name, as used by the demos, the CLI and the
acceptance suite.

The packaged config `configs/<name>.json` is the one definition of each
system: `bowendim report <name>`, a `{"kind": "bundled"}` config and the
functions here all build it through `config.build_from_spec`.  A function
overrides only what it is given (the horizon, and `t_star` for
`elliptic-q2`); an argument left at None keeps the packaged value.
"""

from __future__ import annotations

from . import config
from .systems import AscendingSpec


def _spec(name, **overrides):
    given = {key: val for key, val in overrides.items() if val is not None}
    return {"kind": "bundled", "name": name, "overrides": given}


def cantor3(horizon: int | None = None):
    """Middle-thirds Cantor construction: dimension log 2 / log 3."""
    return config.build_from_spec(_spec("cantor3", horizon=horizon))


def interval2(horizon: int | None = None):
    """Two half-scale maps tiling [0, 1]: the full-interval (dimension 1) case."""
    return config.build_from_spec(_spec("interval2", horizon=horizon))


def alt24(horizon: int | None = None):
    """Two maps of ratio 1/2 at odd times, two of ratio 1/4 at even times.

    Closed-form pressure zero at t = 2/3.
    """
    return config.build_from_spec(_spec("alt24", horizon=horizon))


def cf12(horizon: int | None = None):
    """Stationary continued-fraction system with digit set {1, 2}."""
    return config.build_from_spec(_spec("cf12", horizon=horizon))


def ab_half(horizon: int | None = None):
    """2^n maps of ratio 4^-n at time n: growth/decay rates give dimension 1/2."""
    return config.build_from_spec(_spec("ab-half", horizon=horizon))


def ascend_cf12(horizon: int | None = None):
    """Ascending digits: {1} at time 1, {1, 2} afterwards."""
    return config.build_from_spec(_spec("ascend-cf12", horizon=horizon))


def ascend_cf12_spec(horizon: int | None = None) -> AscendingSpec:
    """The nested-alphabet spec that `ascend_cf12` builds."""
    spec = config._bundled_spec(_spec("ascend-cf12", horizon=horizon))
    return config._ascending_spec(spec)


def gdms2v(horizon: int | None = None):
    """Two-vertex multigraph with parallel edges on both loops and
    composable-pair incidence: minimal matrix-product primitivity p = 2, and
    a direct connector certificate at p = 1 (the bundled p = 1 system).
    """
    return config.build_from_spec(_spec("gdms2v", horizon=horizon))


def perm2(horizon: int | None = None):
    """Two letters with identity incidence: products stay permutations."""
    return config.build_from_spec(_spec("perm2", horizon=horizon))


def pinch2(horizon: int | None = None):
    """Two vertices at odd times, one at even times; complete incidence out of
    the even (pinch) times.  Dyadic ratios keep block partition sums exactly
    equal to the original ones."""
    return config.build_from_spec(_spec("pinch2", horizon=horizon))


def elliptic_q2(t_star: float | None = None, horizon: int | None = None):
    """Instantiated pole-decay model for q = 2 at the given sub-threshold t."""
    return config.build_from_spec(_spec("elliptic-q2", t_star=t_star, horizon=horizon))


BUNDLED = {
    "cantor3": cantor3,
    "interval2": interval2,
    "alt24": alt24,
    "cf12": cf12,
    "ab-half": ab_half,
    "ascend-cf12": ascend_cf12,
    "gdms2v": gdms2v,
    "perm2": perm2,
    "pinch2": pinch2,
    "elliptic-q2": elliptic_q2,
}


def bundled_system(name: str, **overrides):
    if name not in BUNDLED:
        raise KeyError(
            f"unknown bundled system {name!r}; available: {sorted(BUNDLED)}"
        )
    return BUNDLED[name](**overrides)

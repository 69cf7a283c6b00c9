"""Bundled example systems used by the demos, the CLI and the acceptance suite."""

from __future__ import annotations

from .errors import BuildError
from .maps import MoebiusInverse, Similarity, interval
from .systems import (
    AscendingSpec,
    EdgeSpec,
    build_ascending,
    build_cf_system,
    build_gdms,
    build_similarity_system,
    elliptic_lower_bound,
)


def cantor3(horizon: int = 30):
    """Middle-thirds Cantor construction: dimension log 2 / log 3."""
    return build_similarity_system(
        [[1 / 3, 1 / 3]] * horizon,
        [[0.0, 2 / 3]] * horizon,
        provenance="middle-thirds Cantor schedule",
    )


def interval2(horizon: int = 30):
    """Two half-scale maps tiling [0, 1]: the full-interval (dimension 1) case."""
    return build_similarity_system(
        [[0.5, 0.5]] * horizon,
        [[0.0, 0.5]] * horizon,
        provenance="full-interval tiling schedule",
    )


def alt24(horizon: int = 30):
    """Two maps of ratio 1/2 at odd times, two of ratio 1/4 at even times.

    Closed-form pressure zero at t = 2/3.
    """
    ratios = [[0.5, 0.5] if n % 2 == 1 else [0.25, 0.25] for n in range(1, horizon + 1)]
    offsets = [[0.0, 0.5] if n % 2 == 1 else [0.0, 0.75] for n in range(1, horizon + 1)]
    return build_similarity_system(
        ratios, offsets, provenance="alternating-ratio schedule"
    )


def cf12(horizon: int = 20):
    """Stationary continued-fraction system with digit set {1, 2}."""
    return build_cf_system(
        [[1, 2]] * horizon, provenance="continued fractions, digits {1,2}"
    )


def ab_half(horizon: int = 12):
    """2^n maps of ratio 4^-n at time n: growth/decay rates give dimension 1/2."""
    ratios = [[4.0**-n] * 2**n for n in range(1, horizon + 1)]
    offsets = [
        [k / 2.0**n for k in range(2**n)] for n in range(1, horizon + 1)
    ]
    return build_similarity_system(
        ratios, offsets, provenance="doubling-alphabet quarter-decay schedule"
    )


def ascend_cf12(horizon: int = 20):
    """Ascending digits: {1} at time 1, {1, 2} afterwards."""
    spec = ascend_cf12_spec(horizon)
    return build_ascending(spec)


def ascend_cf12_spec(horizon: int = 20) -> AscendingSpec:
    base = {"1": MoebiusInverse(1.0), "2": MoebiusInverse(2.0)}
    include = [["1"]] + [["1", "2"]] * (horizon - 1)
    return AscendingSpec(base_maps=base, include=include)


def gdms2v(horizon: int = 16):
    """Two-vertex multigraph with parallel edges on both loops and
    composable-pair incidence: minimal matrix-product primitivity p = 2, and
    a direct connector certificate at p = 1 (the bundled p = 1 system).
    """
    verts = [("u", "w")] * (horizon + 1)
    spaces = {"u": interval(0.0, 1.0), "w": interval(2.0, 3.0)}
    edges = [
        [
            # label, initial vertex, terminal vertex; map: X_dst -> X_src
            EdgeSpec("uu1", "u", "u", Similarity(0.25, (0.0,))),
            EdgeSpec("uu2", "u", "u", Similarity(0.2, (0.3,))),
            EdgeSpec("uw", "u", "w", Similarity(0.2, (0.2,))),
            EdgeSpec("wu", "w", "u", Similarity(0.25, (2.0,))),
            EdgeSpec("ww1", "w", "w", Similarity(0.125, (2.1,))),
            EdgeSpec("ww2", "w", "w", Similarity(1 / 6, (2.2,))),
        ]
        for _ in range(horizon)
    ]
    return build_gdms(
        verts, edges, spaces, matrices="full",
        provenance="two-vertex composable-pair schedule",
    )


def perm2(horizon: int = 10):
    """Two letters with identity incidence: products stay permutations."""
    return build_similarity_system(
        [[1 / 3, 1 / 4]] * horizon,
        [[0.0, 0.5]] * horizon,
        matrices="identity",
        provenance="permutation-incidence schedule",
    )


def pinch2(horizon: int = 12):
    """Two vertices at odd times, one at even times; complete incidence out of
    the even (pinch) times.  Dyadic ratios keep block partition sums exactly
    equal to the original ones."""
    if horizon % 2:
        raise BuildError(f"pinch2 needs an even horizon, got {horizon}")
    verts = [("w",)] + [
        ("a", "b") if n % 2 == 1 else ("w",) for n in range(1, horizon + 1)
    ]
    spaces = {"w": interval(0.0, 1.0), "a": interval(2.0, 3.0), "b": interval(4.0, 4.5)}
    edges = []
    for n in range(1, horizon + 1):
        if n % 2 == 1:
            # letters w -> {a, b}: maps X_a / X_b -> X_w
            edges.append(
                [
                    EdgeSpec("wa", "w", "a", Similarity(0.25, (0.0,))),
                    EdgeSpec("wb", "w", "b", Similarity(0.125, (-0.5,))),
                ]
            )
        else:
            # letters {a, b} -> w: maps X_w -> X_a or X_b
            edges.append(
                [
                    EdgeSpec("aw", "a", "w", Similarity(0.5, (2.0,))),
                    EdgeSpec("bw", "b", "w", Similarity(0.25, (4.0,))),
                ]
            )
    return build_gdms(
        verts, edges, spaces, matrices="full",
        provenance="two-vertex schedule pinched at even times",
    )


def elliptic_q2(t_star: float = 1.2, horizon: int = 6):
    """Instantiated pole-decay model for q = 2 at the given sub-threshold t."""
    report = elliptic_lower_bound(
        2, t_grid=(t_star,), horizon=horizon, build=True
    )
    if report.system is None:
        raise BuildError("model instantiation failed for the bundled lattice")
    return report.system


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

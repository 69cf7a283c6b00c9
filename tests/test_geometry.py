"""Limit-set sampling, box counting, covers, OSC, diameter diagnostics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bowendim import (
    BudgetError,
    EdgeSpec,
    InputError,
    Similarity,
    Word,
    box_counting_dim,
    build_cf_system,
    build_gdms,
    build_similarity_system,
    interval,
    level_cover,
    project_point,
    sample_limit_set,
    verify_osc,
)
from bowendim import _frontier, bundled
from bowendim.geometry import _boxes_at_scale, diameter_diagnostics

from oracles import cf_value


class TestProjectPoint:
    def test_middle_thirds_leftmost(self, cantor):
        for k in (3, 6, 10):
            lp = project_point(Word(1, ("m0",) * k), cantor)
            assert abs(lp.point[0]) <= 3.0**-k
            assert lp.radius == pytest.approx(0.5 * 3.0**-k, rel=1e-12)

    def test_cf_golden_ratio(self, cf18):
        lp = project_point(Word(1, ("1",) * 18), cf18)
        golden = (math.sqrt(5) - 1) / 2
        assert abs(lp.point[0] - golden) <= lp.radius + 1e-15

    def test_cf_periodic_21(self, cf18):
        lp = project_point(Word(1, tuple("21" * 9)), cf18)
        target = cf_value([2, 1] * 9)
        assert abs(lp.point[0] - target) <= lp.radius + 1e-15
        # the true periodic point solves x = 1/(2 + 1/(1 + x))
        assert lp.point[0] == pytest.approx((math.sqrt(3) - 1) / 2, abs=1e-7)

    def test_cf_periodic_12_is_sqrt3_minus_1(self, cf18):
        lp = project_point(Word(1, tuple("12" * 9)), cf18)
        assert lp.point[0] == pytest.approx(math.sqrt(3) - 1, abs=1e-7)

    def test_non_admissible_word_rejected(self, gdms):
        # uu1 ends at vertex u, but wu starts at w
        with pytest.raises(InputError, match="not admissible"):
            project_point(Word(1, ("uu1", "wu")), gdms)

    def test_nesting_of_prefixes(self, cf18):
        from bowendim import image_region

        word = tuple("1221211212")
        for k in range(1, len(word)):
            outer = image_region(Word(1, word[:k]), cf18)
            inner = image_region(Word(1, word[: k + 1]), cf18)
            assert outer.contains(inner)


class TestSampling:
    def test_middle_thirds_depth3(self, cantor):
        cloud = sample_limit_set(cantor, 3, 100)
        assert len(cloud) == 8
        xs = np.sort(cloud.coords[:, 0])
        gaps = np.diff(xs)
        assert gaps.min() >= 1 / 27 - 1e-12

    def test_identity_two_points(self):
        sys_i = bundled.perm2(8)
        cloud = sample_limit_set(sys_i, 5, 100)
        assert len(cloud) == 2

    def test_cf_depth10_inside_level1_cells(self, cf18):
        cloud = sample_limit_set(cf18, 10, 2048)
        assert len(cloud) == 1024
        xs = cloud.coords[:, 0]
        assert xs.min() >= 1 / 3 - 1e-12 and xs.max() <= 1.0 + 1e-12
        # nothing in the gap between the level-1 cells [1/3,1/2] and [1/2,1]
        assert np.all((xs <= 0.5 + 1e-12) | (xs >= 0.5 - 1e-12))

    def test_budget(self, cantor):
        with pytest.raises(BudgetError):
            sample_limit_set(cantor, 10, 100)

    def test_generic_exhaustive_budget_boundary(self):
        # continuants of {1, 2, 100} pass 2^52 by depth 8, so the vectorized
        # sweep steps aside and the word-at-a-time fallback samples
        wide = build_cf_system([[1, 2, 100]] * 8)
        assert not _frontier._moebius_float_safe(wide, 1, 8)
        assert len(sample_limit_set(wide, 8, 3**8)) == 3**8
        with pytest.raises(BudgetError, match=f"exceeds {3**8 - 1} points"):
            sample_limit_set(wide, 8, 3**8 - 1)

    def test_random_reproducible_and_admissible(self, gdms):
        a = sample_limit_set(gdms, 8, 64, "random-admissible", seed=3)
        b = sample_limit_set(gdms, 8, 64, "random-admissible", seed=3)
        assert np.array_equal(a.coords, b.coords)
        assert a.words == b.words
        from bowendim import is_admissible

        for w in a.words[:16]:
            assert is_admissible(Word(1, tuple(w.split("."))), gdms.schedule)

    def test_cover_budget_boundary(self, cantor):
        assert len(level_cover(cantor, 6, budget=64).cells) == 64
        with pytest.raises(
            BudgetError, match="level cover at depth 6 exceeds 63 cells"
        ):
            level_cover(cantor, 6, budget=63)

    def test_cover_soundness(self, cantor):
        cloud = sample_limit_set(cantor, 6, 100)
        for n in (1, 2, 3):
            cover = level_cover(cantor, n)
            for x in cloud.coords[:, 0]:
                assert any(
                    cell[2].bounds[0] - 1e-12 <= x <= cell[2].bounds[1] + 1e-12
                    for cell in cover.cells
                )


class TestBoxCounting:
    def test_uniform_grid_slope_one(self):
        pts = np.linspace(0.0, 1.0, 10_000)
        fit = box_counting_dim(pts, np.zeros_like(pts), (2.0**-10, 2.0**-4))
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_middle_thirds_depth12(self, cantor):
        cloud = sample_limit_set(cantor, 12, 5000, with_words=False)
        fit = box_counting_dim(cloud.coords, cloud.radii, (2.0**-14, 2.0**-4))
        assert fit.slope == pytest.approx(math.log(2) / math.log(3), abs=0.05)

    def test_single_point_slope_zero(self):
        fit = box_counting_dim(np.array([0.37]), np.array([1e-9]), (2.0**-10, 2.0**-4))
        assert fit.slope == pytest.approx(0.0, abs=1e-9)

    def test_counts_monotone_in_scale(self, cantor):
        cloud = sample_limit_set(cantor, 10, 2000, with_words=False)
        fit = box_counting_dim(cloud.coords, cloud.radii, (2.0**-12, 2.0**-4))
        # scales shrink along the tuple, counts must not decrease
        assert list(fit.counts) == sorted(fit.counts)

    def test_degenerate_window_rejected(self):
        with pytest.raises(InputError):
            box_counting_dim(np.array([0.5]), np.array([0.0]), (0.25, 0.25))

    def test_planar_points(self, elliptic):
        cloud = sample_limit_set(elliptic, 2, 4096, with_words=False)
        fit = box_counting_dim(cloud.coords, cloud.radii, (2.0**-6, 2.0**-2))
        assert 0.5 < fit.slope <= 2.0


def brute_force_boxes(coords, radii, eps):
    """Set of every grid box met by any enclosure, one point at a time."""
    boxes = set()
    for c, r in zip(coords, radii):
        ranges = [
            range(math.floor((x - r) / eps), math.floor((x + r) / eps) + 1)
            for x in c
        ]
        boxes.update(itertools.product(*ranges))
    return len(boxes)


@st.composite
def clouds(draw):
    """1-D or 2-D clouds at eps = 1/8 whose enclosures span 0-6 boxes per axis."""
    d = draw(st.integers(1, 2))
    size = draw(st.integers(0, 40))
    coord = st.floats(-4.0, 4.0, allow_nan=False)
    coords = np.array(
        draw(st.lists(st.tuples(*[coord] * d), min_size=size, max_size=size)),
        dtype=float,
    ).reshape(size, d)
    radii = np.array(
        draw(st.lists(st.floats(0.0, 3.0 / 8), min_size=size, max_size=size)),
        dtype=float,
    )
    return coords, radii


class TestBoxEnumeration:
    @settings(max_examples=200, deadline=None)
    @given(clouds())
    def test_matches_brute_force(self, cloud):
        coords, radii = cloud
        assert _boxes_at_scale(coords, radii, 0.125) == brute_force_boxes(
            coords, radii, 0.125
        )

    def test_budget_boundary(self):
        # each enclosure meets 4 x 4 boxes: 32 cells over two points
        coords = np.array([[0.5, 0.5], [2.5, 2.5]])
        radii = np.array([0.3, 0.3])
        assert _boxes_at_scale(coords, radii, 0.25, budget=32) == 32
        with pytest.raises(
            BudgetError, match="^box enumeration at scale 0.25 needs 32 cells$"
        ):
            _boxes_at_scale(coords, radii, 0.25, budget=31)


class TestOsc:
    def test_middle_thirds_clean(self, cantor):
        for n in (1, 2, 3, 4):
            assert verify_osc(cantor, n).ok

    def test_overlapping_images_flagged(self):
        bad = build_similarity_system([[0.6, 0.6]] * 4, [[0.0, 0.4]] * 4)
        rep = verify_osc(bad, 1)
        assert not rep.ok
        assert rep.violations[0][2] > 0.1  # overlap length is reported

    def test_cf_clean_to_depth8(self, cf18):
        for n in (1, 4, 8):
            assert verify_osc(cf18, n).ok

    def test_gdms_grouped_by_root(self, gdms):
        rep = verify_osc(gdms, 2)
        assert rep.ok and rep.checked == 18  # admissible pairs, both roots


class TestDiameterDiagnostics:
    def test_stationary_all_rates_zero(self, cantor):
        rep = diameter_diagnostics(cantor)
        assert rep.satisfied
        assert rep.upper_trend.slope == pytest.approx(0.0, abs=1e-12)
        assert rep.vertex_trend.slope == pytest.approx(0.0, abs=1e-12)

    def _shrinking_system(self, diam_fn, horizon=20):
        verts = [("v",)] * (horizon + 1)
        spaces = {
            (n, "v"): interval(0.0, diam_fn(n)) for n in range(horizon + 1)
        }
        edges = []
        for n in range(1, horizon + 1):
            # two maps X^(n) -> X^(n-1); scale keeps images inside
            scale = 0.4 * diam_fn(n - 1) / diam_fn(n)
            edges.append(
                [
                    EdgeSpec("e0", "v", "v", Similarity(scale, (0.0,))),
                    EdgeSpec(
                        "e1", "v", "v",
                        Similarity(scale, (0.5 * diam_fn(n - 1),)),
                    ),
                ]
            )
        return build_gdms(verts, edges, spaces)

    def test_harmonic_diameters_consistent(self):
        sys_h = self._shrinking_system(lambda n: 1.0 / (n + 1), horizon=60)
        rep = diameter_diagnostics(sys_h)
        assert rep.upper_trend.verdict == "subexponential-consistent"

    def test_geometric_diameters_violate(self):
        sys_g = self._shrinking_system(lambda n: 2.0**-n, horizon=20)
        rep = diameter_diagnostics(sys_g)
        assert not rep.satisfied
        assert rep.upper_trend.slope == pytest.approx(-math.log(2), rel=1e-6)

"""Limit-set sampling, box counting, covers, OSC, diameter diagnostics."""

import itertools
import math
from collections import Counter

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
    find_primitivity,
    image_region,
    interval,
    level_cover,
    reblock_one_primitive,
    reblock_pinched,
    sample_limit_set,
    verify_osc,
)
from bowendim import _frontier, bundled
from bowendim.geometry import _boxes_at_scale, _center_radius, diameter_diagnostics

from conftest import mixed_pair_system
from oracles import cf_value, grouped_sweep, schedule_words, traced_words


def _project(labels, system):
    """(center, radius) of a prefix's image region: the limit points of the
    prefix's words lie within radius of the center."""
    return _center_radius(image_region(Word(1, tuple(labels)), system))


class TestProjectPoint:
    def test_middle_thirds_leftmost(self, cantor):
        for k in (3, 6, 10):
            point, radius = _project(("m0",) * k, cantor)
            assert abs(point[0]) <= 3.0**-k
            assert radius == pytest.approx(0.5 * 3.0**-k, rel=1e-12)

    def test_cf_golden_ratio(self, cf18):
        point, radius = _project(("1",) * 18, cf18)
        golden = (math.sqrt(5) - 1) / 2
        assert abs(point[0] - golden) <= radius + 1e-15

    def test_cf_periodic_21(self, cf18):
        point, radius = _project("21" * 9, cf18)
        target = cf_value([2, 1] * 9)
        assert abs(point[0] - target) <= radius + 1e-15
        # the true periodic point solves x = 1/(2 + 1/(1 + x))
        assert point[0] == pytest.approx((math.sqrt(3) - 1) / 2, abs=1e-7)

    def test_cf_periodic_12_is_sqrt3_minus_1(self, cf18):
        point, _ = _project("12" * 9, cf18)
        assert point[0] == pytest.approx(math.sqrt(3) - 1, abs=1e-7)

    def test_non_admissible_word_rejected(self, gdms):
        # uu1 ends at vertex u, but wu starts at w
        with pytest.raises(InputError, match="not admissible"):
            _project(("uu1", "wu"), gdms)

    def test_nesting_of_prefixes(self, cf18):
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
        # point state steps aside and points are projected word by word;
        # cf12 at depth 8 takes the vectorized one.  Both check one budget.
        wide = build_cf_system([[1, 2, 100]] * 8)
        assert not _frontier._moebius_float_safe(wide, 1, 8)
        assert _frontier.vector_state(bundled.cf12(8), 1, 8, points=True)
        for system, words in ((wide, 3**8), (bundled.cf12(8), 2**8)):
            assert len(sample_limit_set(system, 8, words)) == words
            with pytest.raises(
                BudgetError,
                match=f"^exhaustive sampling exceeds {words - 1} points at depth 8;"
                " lower the depth or raise the budget$",
            ):
                sample_limit_set(system, 8, words - 1)

    @pytest.mark.parametrize("name", ["wide", "mixed"])
    def test_generic_points_are_image_regions(self, name):
        # ranges without a point state (continuants past 2^52, or both map
        # families): one point per admissible word, the center and radius of
        # its image region
        if name == "wide":
            system, depth = build_cf_system([[1, 2, 100]] * 8), 8
        else:
            system, depth = mixed_pair_system(8), 6
        assert _frontier.vector_state(system, 1, depth, points=True) is None
        cloud = sample_limit_set(system, depth, 10**4)
        got = {
            w: (tuple(p), r)
            for w, p, r in zip(cloud.words, cloud.coords.tolist(), cloud.radii.tolist())
        }
        words = [Word(1, lb) for lb in schedule_words(system.schedule, 1, depth)]
        want = {
            w.label(): _center_radius(image_region(w, system, check=False))
            for w in words
        }
        assert len(cloud) == len(want) and got == want

    @pytest.mark.parametrize("strategy", ["exhaustive", "random-admissible"])
    @pytest.mark.parametrize(
        "name", ["cf12", "gdms2v", "reblocked-gdms2v", "reblocked-cf12", "elliptic-q2"]
    )
    def test_vectorized_points_enclose_projections(self, name, strategy):
        if name == "reblocked-gdms2v":
            gdms = bundled.gdms2v()
            system, depth = reblock_one_primitive(gdms, find_primitivity(gdms.schedule, 4)), 3
        elif name == "reblocked-cf12":
            # two-digit blocks fold into one Moebius letter each
            system, depth = reblock_pinched(bundled.cf12(12), [2, 4, 6, 8, 10, 12]), 4
        else:
            system = bundled.BUNDLED[name]()
            depth = {"cf12": 10, "gdms2v": 6, "elliptic-q2": 2}[name]
        assert _frontier.vector_state(system, 1, depth, points=True)
        cloud = sample_limit_set(system, depth, 3000, strategy, seed=5)
        words = {
            ".".join(lb): Word(1, lb)
            for lb in schedule_words(system.schedule, 1, depth)
        }
        for p, r, label in zip(cloud.coords, cloud.radii, cloud.words):
            point, _ = _center_radius(image_region(words[label], system))
            assert np.linalg.norm(p - point) <= r + 1e-12

    @pytest.mark.parametrize("strategy", ["exhaustive", "random-admissible"])
    @pytest.mark.parametrize(
        "name", ["cf12", "gdms2v", "cantor3", "elliptic-q2", "reblocked-cf12"]
    )
    def test_words_equal_traced_labels(self, name, strategy):
        # every system here places its points by point state
        if name == "reblocked-cf12":
            system, depth = reblock_pinched(bundled.cf12(12), [2, 4, 6, 8, 10, 12]), 4
        else:
            system = bundled.BUNDLED[name]()
            depth = {"cf12": 10, "gdms2v": 6, "cantor3": 8, "elliptic-q2": 2}[name]
        draws = None
        if strategy == "random-admissible":
            draws = np.random.default_rng(5).random((3000, depth))
        cloud = sample_limit_set(system, depth, 3000, strategy, seed=5)
        levels = grouped_sweep(system.schedule, 1, depth, draws)
        assert type(cloud.words) is tuple
        assert cloud.words == traced_words(system.schedule, levels)

    def test_random_reproducible_and_admissible(self, gdms):
        a = sample_limit_set(gdms, 8, 4000, "random-admissible", seed=3)
        b = sample_limit_set(gdms, 8, 100, "random-admissible", seed=3)
        c = sample_limit_set(gdms, 8, 100, "random-admissible", seed=3)
        assert np.array_equal(b.coords, c.coords) and b.words == c.words
        # row i depends on (seed, i) alone: a longer cloud extends a shorter one
        assert np.array_equal(a.coords[:100], b.coords)
        assert np.array_equal(a.radii[:100], b.radii)
        assert a.words[:100] == b.words
        from bowendim import is_admissible

        for w in a.words:
            assert is_admissible(Word(1, tuple(w.split("."))), gdms.schedule)

    def test_random_followers_are_uniform(self, gdms):
        # a word takes each of its k candidates with chance 1/k: the count of
        # every choice lies within 5 sigma of uniform
        cloud = sample_limit_set(gdms, 8, 4000, "random-admissible", seed=11)
        sched = gdms.schedule
        words = [[None] + w.split(".") for w in cloud.words]
        for j in range(1, 9):
            parents = Counter(w[j - 1] for w in words)
            taken = Counter((w[j - 1], w[j]) for w in words)
            for prev, n in parents.items():
                if prev is None:
                    cand = sched.kept_indices(1)
                else:
                    cand = sched.followers(j - 1, sched.letter_index(j - 1, prev))
                k = cand.size
                for b in cand.tolist():
                    got = taken[(prev, sched.letters(j)[b].label)]
                    assert abs(got - n / k) <= 5 * math.sqrt(n / k * (1 - 1 / k))

    def test_cover_budget_boundary(self, cantor):
        assert len(level_cover(cantor, 6, budget=64).cells) == 64
        with pytest.raises(
            BudgetError, match="level cover at depth 6 exceeds 63 cells"
        ):
            level_cover(cantor, 6, budget=63)

    def test_cover_budget_checked_before_any_image(self, cantor, monkeypatch):
        calls = []
        real = image_region

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr("bowendim.geometry.image_region", counted)
        with pytest.raises(BudgetError):
            level_cover(cantor, 6, budget=63)
        assert calls == []

    @pytest.mark.parametrize("name", ["cf12", "gdms2v", "elliptic-q2", "pinched-cf12"])
    def test_cover_equals_brute_word_images(self, name):
        # pinched-cf12 folds its digit blocks; elliptic-q2 has disk cells
        if name == "pinched-cf12":
            system, n = reblock_pinched(bundled.cf12(12), [2, 4, 6, 8, 10, 12]), 4
        else:
            system = bundled.BUNDLED[name]()
            n = {"cf12": 10, "gdms2v": 6, "elliptic-q2": 2}[name]
        sched = system.schedule
        want = []
        for letters in schedule_words(sched, 1, n):
            w = Word(1, letters)
            root = sched.letters(1)[sched.letter_index(1, letters[0])].src
            want.append((w.label(), root, image_region(w, system, check=False).bounds))
        got = [
            (label, root, region.bounds)
            for label, root, region in level_cover(system, n).cells
        ]
        assert got == want
        if name == "gdms2v":
            assert len({root for _, root, _ in got}) == 2

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
        # an enclosure wider than int64 box indices reach is over any budget;
        # its indices once overflowed int64 (here into a count of one box)
        with pytest.raises(BudgetError, match="needs inf cells"):
            _boxes_at_scale(np.array([[0.0]]), np.array([1e308]), 0.25)


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

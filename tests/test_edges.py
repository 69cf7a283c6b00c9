"""Edge paths: reversed orientations, real digits, restricted digit systems,
wide enclosures, and degenerate windows."""

import math

import numpy as np
import pytest

from bowendim import (
    MoebiusInverse,
    Word,
    bowen_dimension,
    box_counting_dim,
    build_cf_system,
    build_similarity_system,
    compose_norm,
    count_words,
    image_region,
    partition,
    sample_limit_set,
    verify_osc,
)

from oracles import dense_grid_norm_fast


class TestOrientationReversing:
    def test_negative_ratio_cantor(self):
        # left map fixes 0, right map reverses orientation onto [2/3, 1]
        system = build_similarity_system(
            [[1 / 3, -1 / 3]] * 16, [[0.0, 1.0]] * 16
        )
        assert verify_osc(system, 2).ok
        region = image_region(Word(1, ("m1",)), system)
        assert region.bounds[0] == pytest.approx(2 / 3, rel=1e-15)
        assert region.bounds[1] == 1.0
        br = compose_norm(Word(1, ("m1", "m1")), system)
        assert br.hi == pytest.approx(1 / 9, rel=1e-15)
        res = bowen_dimension(system, (0.2, 0.95), 16)
        assert res.bracket[0] <= math.log(2) / math.log(3) <= res.bracket[1]

    def test_negative_ratio_sampling(self):
        system = build_similarity_system(
            [[1 / 3, -1 / 3]] * 10, [[0.0, 1.0]] * 10
        )
        cloud = sample_limit_set(system, 8, 1024)
        assert len(cloud) == 256
        assert cloud.coords.min() >= -1e-12 and cloud.coords.max() <= 1 + 1e-12
        assert (cloud.radii > 0).all()


class TestRealDigits:
    def test_non_integer_digit_norms(self):
        system = build_cf_system([[1.5, 2.5]] * 8)
        br = compose_norm(Word(1, ("1.5", "2.5")), system)
        grid = dense_grid_norm_fast(
            [MoebiusInverse(1.5), MoebiusInverse(2.5)], (0.0, 1.0)
        )
        assert br.hi == pytest.approx(grid, abs=1e-10)
        pv = partition(system, 1, 4, 0.6)
        assert pv.words == 16 and pv.lo == pv.hi


class TestRestrictedDigitSystem:
    def test_identity_restriction_collapses(self):
        system = build_cf_system([[1, 2]] * 10, matrix_rule="identity")
        assert count_words(1, 10, system.schedule) == 2
        cloud = sample_limit_set(system, 10, 16)
        golden = (math.sqrt(5) - 1) / 2
        root2 = math.sqrt(2) - 1
        xs = sorted(cloud.coords[:, 0])
        assert xs[0] == pytest.approx(root2, abs=1e-3)
        assert xs[1] == pytest.approx(golden, abs=1e-3)

    def test_banded_restriction_partition(self):
        mat = np.array([[1, 1], [1, 0]], dtype=bool)
        system = build_cf_system([[1, 2]] * 8, matrix_rule=mat)
        # words avoiding the digit pair (2, 2): Fibonacci-style counts
        counts = [count_words(1, n, system.schedule) for n in range(1, 7)]
        assert counts == [2, 3, 5, 8, 13, 21]
        exact = partition(system, 1, 3, 1.0)
        expect = 0.0
        for w in [("1", "1", "1"), ("1", "1", "2"), ("1", "2", "1"),
                  ("2", "1", "1"), ("2", "1", "2")]:
            expect += compose_norm(Word(1, w), system).hi
        assert exact.value == pytest.approx(expect, rel=1e-12)


class TestWideEnclosures:
    def test_boxes_counted_through_spanning_radii(self):
        # radii larger than the scale force the per-point range enumeration
        pts = np.array([0.25, 0.75])
        radii = np.array([0.2, 0.2])
        fit = box_counting_dim(pts, radii, (2.0**-8, 2.0**-3))
        # each enclosure is an interval of length 0.4 meeting 0.4/eps + 1 boxes
        for eps, count in zip(fit.scales, fit.counts):
            assert count == pytest.approx(2 * (0.4 / eps + 1), abs=2)
        assert fit.slope == pytest.approx(1.0, abs=0.1)

    def test_planar_spanning(self):
        pts = np.array([[0.5, 0.5]])
        radii = np.array([0.3])
        fit = box_counting_dim(pts, radii, (2.0**-5, 2.0**-3))
        assert fit.slope == pytest.approx(2.0, abs=0.3)

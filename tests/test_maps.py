"""Map families: certified norms, images, distortion, contraction blocks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bowendim import (
    CertificationError,
    InputError,
    MoebiusInverse,
    Similarity,
    SystemSpec,
    UnsupportedError,
    Word,
    build_cf_system,
    build_similarity_system,
    compose_norm,
    continuants,
    contraction_eta,
    distortion_constant,
    image_region,
    interval,
)
from bowendim import bundled, maps
from bowendim.maps import ConformalMap

from conftest import mixed_pair_system
from oracles import cf_value, dense_grid_norm, dense_grid_norm_fast, ncifs_schedule


@pytest.fixture(scope="module")
def cf8():
    return bundled.cf12(8)


@pytest.fixture(scope="module")
def cantor8():
    return bundled.cantor3(8)


class TestComposeNorm:
    def test_cf_word_12_exact_ninth(self, cf8):
        # phi(x) = 1/(1 + 1/(2+x)) = (2+x)/(3+x); sup |phi'| = 1/9 at x = 0
        br = compose_norm(Word(1, ("1", "2")), cf8)
        assert br.lo == br.hi == pytest.approx(1 / 9, abs=0)
        assert br.method == "continuant"

    def test_similarity_product_exact(self, cantor8):
        br = compose_norm(Word(1, ("m0", "m0")), cantor8)
        assert br.lo == br.hi == pytest.approx(1 / 9, rel=1e-15)
        assert br.method == "exact"

    def test_cf_111_continuant_vs_grid(self, cf8):
        qp, qc = continuants([1, 1, 1])
        assert (qp, qc) == (2, 3)
        br = compose_norm(Word(1, ("1", "1", "1")), cf8)
        assert br.lo == pytest.approx(1 / 9, abs=0)
        grid = dense_grid_norm_fast(
            [MoebiusInverse(1.0)] * 3, (0.0, 1.0), n_grid=1_000_000
        )
        assert abs(grid - br.hi) < 1e-12

    def test_continuant_bracket_past_the_float_range(self):
        # exact q reaches 1000^110 > 2^1024, and float continuants of a
        # non-integral digit overflow to inf; neither may raise
        system = build_cf_system([[1000]] * 110)
        for k in (1, 51, 52, 53, 60, 103, 110):
            br = compose_norm(Word(1, ("1000",) * k), system)
            _, q = continuants([1000] * k)
            if br.exact:  # 1/q^2 in float64: three roundings
                assert k < 52
                assert abs(Fraction(br.hi) * q * q - 1) <= Fraction(3, 2**52)
            else:
                assert Fraction(br.lo) * q * q <= 1 <= Fraction(br.hi) * q * q
        system = build_cf_system([[1e15 + 0.5]] * 25)
        br = compose_norm(Word(1, ("1000000000000000.5",) * 25), system)
        assert (br.lo, br.hi) == (0.0, 2.0**-1024)

    def test_block2_maximum_is_quarter(self, cf8):
        # the worst two-letter window is (1, 1): sup = 1/(2+x)^2 at 0 = 1/4
        vals = {
            w: compose_norm(Word(1, w), cf8).hi
            for w in [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]
        }
        assert vals[("1", "1")] == pytest.approx(0.25, abs=0)
        assert max(vals.values()) == pytest.approx(0.25, abs=0)
        grid = dense_grid_norm_fast([MoebiusInverse(1.0)] * 2, (0.0, 1.0))
        assert abs(grid - 0.25) < 1e-12

    def test_continuants_match_fractions(self):
        # exact rational cross-check of the recursion
        for digits in [(1, 2, 1), (2, 2, 2), (1, 1, 2, 1), (3, 1, 4, 1, 5)]:
            qp, qc = continuants(digits)
            # q_k is the denominator of [0; d_1..d_k] in lowest terms times
            # possible common factors; verify via the determinant identity
            pp_pc = [(0, 1)]
            qq = [(1, 0)]
            p_prev, p_cur, q_prev, q_cur = 1, 0, 0, 1
            for d in digits:
                p_prev, p_cur = p_cur, d * p_cur + p_prev
                q_prev, q_cur = q_cur, d * q_cur + q_prev
            assert (q_prev, q_cur) == (qp, qc)
            assert abs(p_prev * q_cur - p_cur * q_prev) == 1

    def test_mixed_chain_bracket_contains_truth(self):
        # a word over both families composes pointwise bounds letter by letter
        system = mixed_pair_system(8)
        word = Word(1, ("s1", "2", "s0", "1"))
        br = compose_norm(word, system)
        assert br.method == "interval"
        parts = [system.map_for(1 + k, lbl) for k, lbl in enumerate(word.letters)]
        grid = dense_grid_norm(parts, (0.0, 1.0), n_grid=2000)
        assert br.lo - 1e-12 <= grid <= br.hi + 1e-12

    def test_inadmissible_word_rejected(self, cf8):
        with pytest.raises(InputError):
            compose_norm(Word(1, ("1", "9")), cf8)


# digits 1..1000, and dyadic non-integers n + j/den such as 1.5
DIGITS = st.one_of(
    st.integers(1, 1000),
    st.builds(
        lambda n, den, j: n + (j % den or 1) / den,
        st.integers(1, 999), st.sampled_from([2, 4, 8, 16]), st.integers(1, 15),
    ),
)


def _nested(digits, x):
    """phi_{d_1} o ... o phi_{d_k}(x), one single-digit map at a time, in
    Fraction arithmetic."""
    for d in reversed(digits):
        x = MoebiusInverse(Fraction(d))(x)
    return x


class TestFold:
    @settings(max_examples=200, deadline=None)
    @given(digits=st.lists(DIGITS, min_size=1, max_size=6))
    @example(digits=[1, 1])
    @example(digits=[1.5, 2.5, 1000, 3.25])
    @example(digits=[1000] * 6)
    def test_folded_block_equals_nested_digits(self, digits):
        folded = MoebiusInverse.fold([MoebiusInverse(d) for d in digits])
        (a, b), (c, d) = folded.matrix
        assert (c, d) == continuants(digits)
        assert a * d - b * c == (-1) ** len(digits)
        points = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), Fraction(1)]
        for x in points:
            assert folded(x) == _nested(digits, x)
        # an even block increases, an odd one decreases
        assert (folded(Fraction(1)) > folded(Fraction(0))) == (len(digits) % 2 == 0)
        exact = sorted(_nested(digits, x) for x in (Fraction(0), Fraction(1)))
        lo, hi = folded.image(interval(0.0, 1.0)).bounds
        if all(float(v) == v for v in (a, b, c, d, a + b, c + d)):
            # the ends b/d and (a + b)/(c + d) take one rounding each, and a
            # sub-ulp image widens by one ulp on each side
            ends = [float(e) for e in exact]
            if ends[0] == ends[1]:
                ends = [math.nextafter(ends[0], -math.inf), math.nextafter(ends[0], math.inf)]
            assert [lo, hi] == ends
        else:
            # entries or sums past float64 round once each: an end is within
            # gamma_5 of its exact value, plus at most one ulp (2u relative)
            # of widening, under 8u, u = 2^-53
            assert lo < hi
            for got, want in zip((lo, hi), exact):
                assert abs(Fraction(got) / want - 1) <= Fraction(8, 2**53)
        br = folded.norm_on(interval(0.0, 1.0))
        # three roundings of 1/q^2: float(q), the square and the division
        assert br.lo == br.hi
        assert abs(Fraction(br.hi) * d * d - 1) <= Fraction(3, 2**52)

    def test_fold_keeps_a_single_digit(self):
        assert MoebiusInverse.fold([MoebiusInverse(2.0)]) == MoebiusInverse(2.0)
        assert repr(MoebiusInverse(2.0)) == "MoebiusInverse(digit=2.0)"
        pair = MoebiusInverse.fold([MoebiusInverse(1.0), MoebiusInverse(2.0)])
        assert repr(pair) == "MoebiusInverse(matrix=((1, 2), (1, 3)))"
        assert pair.digit is None

    def test_fold_past_2_512_rejected(self):
        with pytest.raises(InputError, match="passes 2\\^512"):
            MoebiusInverse.fold([MoebiusInverse(2.0**52)] * 10)


class TestImageRegion:
    def test_cf_single_digit(self, cf8):
        region = image_region(Word(1, ("1",)), cf8)
        assert region.bounds == (0.5, 1.0)

    def test_middle_thirds_left(self, cantor8):
        region = image_region(Word(1, ("m0",)), cantor8)
        assert region.bounds == (0.0, 1 / 3)

    def test_cf_21_matches_numeric_composition(self, cf8):
        region = image_region(Word(1, ("2", "1")), cf8)
        lo = cf_value([2, 1], x=1.0)
        hi = cf_value([2, 1], x=0.0)
        assert region.bounds[0] == pytest.approx(min(lo, hi), abs=1e-12)
        assert region.bounds[1] == pytest.approx(max(lo, hi), abs=1e-12)

    def test_nesting(self, cf8):
        outer = image_region(Word(1, ("1", "2")), cf8)
        inner = image_region(Word(1, ("1", "2", "1")), cf8)
        assert outer.contains(inner)


class TestDistortion:
    def test_similarity_is_one(self, cantor8):
        assert distortion_constant(cantor8) == 1.0

    def test_cf_is_four_and_never_exceeded(self, cf8):
        assert distortion_constant(cf8) == 4.0
        # brute-force max of sup/inf derivative ratio over all words to depth 12
        worst = 0.0
        sys12 = bundled.cf12(12)
        for digits in _all_words(12):
            qp, qc = continuants(digits)
            ratio = ((qp + qc) / qc) ** 2
            worst = max(worst, ratio)
        assert worst <= 4.0

    def test_user_map_type_has_no_distortion_rule(self):
        class Halving(ConformalMap):
            def deriv_range_on(self, dom):
                return (0.5, 0.5)

        system = SystemSpec(
            schedule=ncifs_schedule([["h"]] * 4),
            spaces=tuple((interval(0.0, 1.0),) for _ in range(5)),
            maps=((),) + ((Halving(),),) * 4,
        )
        with pytest.raises(UnsupportedError, match="no distortion rule for Halving"):
            distortion_constant(system)


def _all_words(depth, digits=(1, 2)):
    if depth == 0:
        yield ()
        return
    for rest in _all_words(depth - 1, digits):
        for d in digits:
            yield (d,) + rest


class TestContraction:
    def test_middle_thirds(self, cantor8):
        c = contraction_eta(cantor8)
        assert c.block == 1 and c.eta_block == pytest.approx(1 / 3, rel=1e-15)

    def test_cf_needs_block_two(self, cf8):
        c = contraction_eta(cf8)
        assert c.singles_max == 1.0  # digit 1 alone does not contract
        assert c.block == 2
        assert c.eta_block == pytest.approx(0.25, abs=0)

    def test_window_budget_boundary(self):
        # mixed windows are walked: block 2 is certified after all 4 windows
        # at each of 7 start times
        system = mixed_pair_system(8)
        assert contraction_eta(system, budget=28).block == 2
        with pytest.raises(
            CertificationError, match="contraction search exceeded 27 windows"
        ):
            contraction_eta(system, budget=27)

    def test_window_budget_checked_before_any_composition(self, monkeypatch):
        calls = []
        real = maps.compose_norm

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        system = mixed_pair_system(8)
        monkeypatch.setattr(maps, "compose_norm", counted)
        with pytest.raises(CertificationError, match="exceeded 27 windows"):
            contraction_eta(system, budget=27)
        assert calls == []

    def test_mixed_ratios(self):
        sys_m = build_similarity_system(
            [[0.5, 0.9]] * 6, [[0.0, 0.05]] * 6
        )
        assert contraction_eta(sys_m).eta_block == pytest.approx(0.9)

    def test_expanding_system_rejected(self):
        # the identity at odd times and digit 1 at even times: the windows
        # 1.id and id.1 have sup norm 1, and so has id.1.id
        identity, one = Similarity(1.0, (0.0,)), MoebiusInverse(1.0)
        system = SystemSpec(
            schedule=ncifs_schedule([["id"], ["1"]] * 2),
            spaces=tuple((interval(0.0, 1.0),) for _ in range(5)),
            maps=((),) + ((identity,), (one,)) * 2,
        )
        with pytest.raises(CertificationError, match="no contracting block length <= 3"):
            contraction_eta(system, m_max=3)

"""Map families: certified norms, images, distortion, contraction blocks."""

from fractions import Fraction

import numpy as np
import pytest

from bowendim import (
    CertificationError,
    InputError,
    MoebiusInverse,
    TabulatedInterval,
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

from conftest import tabulated_pair_system
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

    def test_inadmissible_word_rejected(self, cf8):
        with pytest.raises(InputError):
            compose_norm(Word(1, ("1", "9")), cf8)


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

    def test_tabulated_constant_derivative(self):
        tab = TabulatedInterval(
            nodes=(0.0, 1.0), values=(0.0, 0.5), deriv_lo=(0.5,), deriv_hi=(0.5,),
        )
        assert tab.distortion is None
        tab2 = TabulatedInterval(
            nodes=(0.0, 1.0), values=(0.0, 0.5), deriv_lo=(0.5,),
            deriv_hi=(0.5,), distortion=1.0,
        )
        sys_t = _tabulated_system(tab2)
        assert distortion_constant(sys_t) == 1.0

    def test_tabulated_without_declared_k_fails(self):
        tab = TabulatedInterval(
            nodes=(0.0, 1.0), values=(0.0, 0.5), deriv_lo=(0.4,), deriv_hi=(0.6,),
        )
        with pytest.raises(CertificationError):
            distortion_constant(_tabulated_system(tab))


def _all_words(depth, digits=(1, 2)):
    if depth == 0:
        yield ()
        return
    for rest in _all_words(depth - 1, digits):
        for d in digits:
            yield (d,) + rest


def _tabulated_system(tab):
    from bowendim.system import SystemSpec

    sched = ncifs_schedule([["t0"]] * 4)
    return SystemSpec(
        schedule=sched,
        spaces=tuple((interval(0.0, 1.0),) for _ in range(5)),
        maps=((),) + ((tab,),) * 4,
    )


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
        # tabulated windows are walked: block 2 is certified after all 4
        # windows at each of 7 start times
        system = tabulated_pair_system(8)
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

        system = tabulated_pair_system(8)
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
        from bowendim.system import SystemSpec
    
        tab = TabulatedInterval(
            nodes=(0.0, 1.0), values=(0.0, 1.0), deriv_lo=(1.0,), deriv_hi=(1.0,),
            distortion=1.0,
        )
        sched = ncifs_schedule([["t0"]] * 4)
        sys_t = SystemSpec(
            schedule=sched,
            spaces=tuple((interval(0.0, 1.0),) for _ in range(5)),
            maps=((),) + ((tab,),) * 4,
        )
        with pytest.raises(CertificationError):
            contraction_eta(sys_t, m_max=3)


class TestTabulated:
    def test_enclosure_and_norm_sound(self):
        # sqrt-like increasing map on [0,1] with per-cell certified bounds
        nodes = (0.0, 0.25, 0.5, 0.75, 1.0)
        f = lambda x: 0.5 * x + 0.2 * x * x
        fp = lambda x: 0.5 + 0.4 * x
        values = tuple(f(x) for x in nodes)
        d_lo = tuple(fp(nodes[i]) for i in range(4))
        d_hi = tuple(fp(nodes[i + 1]) for i in range(4))
        tab = TabulatedInterval(nodes, values, d_lo, d_hi, distortion=fp(1) / fp(0))
        for x in np.linspace(0, 1, 41):
            lo, hi = tab.enclosure(float(x))
            assert lo - 1e-12 <= f(x) <= hi + 1e-12
        br = tab.norm_on(interval(0.0, 1.0))
        assert br.lo <= fp(1.0) <= br.hi

    def test_chain_bracket_contains_truth(self):
        nodes = (0.0, 0.5, 1.0)
        values = (0.0, 0.2, 0.45)
        tab = TabulatedInterval(nodes, values, (0.38, 0.48), (0.42, 0.52), distortion=2.0)
        sys_t = _tabulated_system(tab)
        br = compose_norm(Word(1, ("t0", "t0")), sys_t)
        assert br.method == "interval"
        grid = dense_grid_norm([tab, tab], (0.0, 1.0), n_grid=2000)
        assert br.lo - 1e-12 <= grid <= br.hi + 1e-12

    def test_monotonicity_validation(self):
        with pytest.raises(InputError):
            TabulatedInterval((0.0, 1.0), (0.5, 0.5), (0.1,), (0.2,))

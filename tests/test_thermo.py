"""Partition values, pressure, dimension bisection, diagnostics, classifiers."""

import math

import numpy as np
import pytest

from bowendim import (
    BracketingError,
    BudgetError,
    ConfigurationError,
    InputError,
    PSeriesTail,
    UnsupportedError,
    ab_dimension_bounds,
    balancing_class,
    bowen_dimension,
    build_similarity_system,
    classify_rho,
    evenly_varying_check,
    hausdorff_measure_trend,
    hypothesis_report,
    lower_bound_diagnostics,
    partition,
    pressure_estimate,
    system_theta,
    theta_bounds,
)
from bowendim import bundled

from oracles import dense_grid_norm_fast

T_STAR3 = math.log(2) / math.log(3)


class TestPartition:
    def test_middle_thirds_closed_form(self, cantor):
        pv = partition(cantor, 1, 2, 0.5)
        assert pv.value == pytest.approx(4 * (1 / 9) ** 0.5, rel=1e-14)
        assert pv.value == pytest.approx(4 / 3, rel=1e-14)

    def test_middle_thirds_critical_exponent(self, cantor):
        for n in (1, 3, 7, 12):
            pv = partition(cantor, 1, n, T_STAR3)
            assert pv.value == pytest.approx(1.0, rel=1e-12)

    def test_cf_sum_vs_grid_oracle(self, cf):
        # four two-letter words; each norm cross-checked by a dense grid
        from bowendim.maps import MoebiusInverse

        words = [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]
        expect = 0.0
        for w in words:
            grid = dense_grid_norm_fast(
                [MoebiusInverse(float(d)) for d in w], (0.0, 1.0)
            )
            expect += grid
        pv = partition(cf, 1, 2, 1.0, "enumerate-exact")
        assert pv.value == pytest.approx(expect, abs=1e-10)
        assert pv.value == pytest.approx(1 / 4 + 1 / 9 + 1 / 9 + 1 / 25, rel=1e-12)

    def test_strategies_agree(self, cantor):
        a = partition(cantor, 1, 6, 0.7, "enumerate-exact")
        b = partition(cantor, 1, 6, 0.7, "matrix-exact")
        assert a.value == pytest.approx(b.value, rel=1e-12)
        assert partition(cantor, 1, 6, 0.7).strategy == "matrix-exact"

    def test_unknown_strategy_names_the_three(self, cf):
        with pytest.raises(InputError) as exc:
            partition(cf, 1, 5, 0.6, "bdp-bracket")
        assert str(exc.value) == (
            "unknown strategy 'bdp-bracket'; choose from"
            " ('auto', 'enumerate-exact', 'matrix-exact')"
        )

    def test_matrix_on_cf_unsupported(self, cf):
        with pytest.raises(UnsupportedError):
            partition(cf, 1, 4, 0.5, "matrix-exact")

    def test_budget_error_suggests_matrix(self, cf18):
        with pytest.raises(BudgetError):
            partition(cf18, 1, 18, 0.5, "enumerate-exact", budget=100)

    def test_mid_range_partition(self, cf):
        pv = partition(cf, 3, 5, 0.5)
        assert pv.m == 3 and pv.n == 5 and pv.words == 8


class TestPressure:
    def test_middle_thirds_t0(self, cantor):
        est = pressure_estimate(cantor, 0.0, (1, 10))
        assert all(s == pytest.approx(math.log(2), rel=1e-12) for s in est.s_lo)

    def test_middle_thirds_t1(self, cantor):
        est = pressure_estimate(cantor, 1.0, (1, 10))
        assert all(
            s == pytest.approx(math.log(2) - math.log(3), rel=1e-12)
            for s in est.s_lo
        )

    def test_alternating_even_levels_vanish(self, alt):
        est = pressure_estimate(alt, 2 / 3, (1, 20))
        for n, s in zip(est.ns, est.s_lo):
            expect = 0.0 if n % 2 == 0 else math.log(2) / (3 * n)
            assert s == pytest.approx(expect, abs=1e-12)
        assert est.growth_rate[0] == pytest.approx(0.0, abs=1e-12)

    def test_window_validation(self, cantor):
        with pytest.raises(ConfigurationError):
            pressure_estimate(cantor, 0.5, (5, 40))


class TestBowenDimension:
    def test_middle_thirds(self, cantor30):
        res = bowen_dimension(cantor30, (0.2, 0.95), 30, tol=1e-4)
        assert res.bracket[0] <= T_STAR3 <= res.bracket[1]
        assert res.width <= 2e-4
        assert res.strategy == "matrix-exact"

    def test_alternating_two_thirds(self, alt):
        res = bowen_dimension(alt, (0.2, 0.95), 30, tol=1e-4)
        assert res.bracket[0] <= 2 / 3 <= res.bracket[1]

    def test_cf_bracket_and_oracle_window(self, cf18):
        res = bowen_dimension(cf18, (0.2, 0.9), 18, tol=1e-4)
        assert 0.52 <= res.bracket[0] and res.bracket[1] <= 0.54
        assert res.strategy == "enumerate-exact"

    def test_window_past_n_max_is_configuration_error(self, cantor30):
        # the window once ran to time 30 while the result read horizon 10
        with pytest.raises(ConfigurationError, match="ends past n_max=10"):
            bowen_dimension(cantor30, (0.2, 0.95), 10, window=(15, 30))

    def test_no_sign_change_errors(self, cantor):
        with pytest.raises(BracketingError):
            bowen_dimension(cantor, (0.8, 0.95), 12)

    def test_full_interval_clamps_to_ambient(self):
        full = bundled.interval2(20)
        res = bowen_dimension(full, (0.5, 1.0), 20)
        assert res.bracket[1] == 1.0
        assert res.bracket[0] >= 1.0 - res.tol
        assert res.uncertainty  # the clamp is reported

    def test_invariant_signs_at_endpoints(self, cantor):
        res = bowen_dimension(cantor, (0.2, 0.95), 14)
        lo_rate = pressure_estimate(cantor, res.bracket[0], res.window).growth_rate
        hi_rate = pressure_estimate(cantor, res.bracket[1], res.window).growth_rate
        assert lo_rate[1] >= 0.0 >= hi_rate[0]


class TestTheta:
    def test_cf_full_alphabet_half(self):
        tb = theta_bounds(PSeriesTail(2.0, 1), tol=1e-9)
        assert tb.theta_n == pytest.approx(0.5, abs=1e-6)

    def test_finite_alphabet_zero(self, cantor):
        assert system_theta(cantor).theta_n == 0.0

    def test_elliptic_exponent_threshold(self):
        q = 2
        tb = theta_bounds(PSeriesTail((q + 1) / q, 2), tol=1e-9)
        assert tb.theta_n == pytest.approx(2 * q / (q + 1), abs=1e-6)

    def test_missing_rule_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            theta_bounds(object())


class TestLowerBoundDiagnostics:
    def test_perfectly_balanced_rho_one(self, cantor):
        d = lower_bound_diagnostics(cantor, 0.5, (2, 12))
        assert set(d.rho) == {1.0}

    def test_middle_thirds_certifies_half(self, cantor):
        d = lower_bound_diagnostics(cantor, 0.5, (2, 14))
        assert d.delta_proxy == pytest.approx(0.0, abs=1e-12)
        assert d.kappa_proxy > 0
        assert d.certified
        # z_tilde follows the closed-form recursion Z_{n-1} * 2^t * 3^-t
        z2 = d.z_tilde[0]
        assert z2 == pytest.approx(
            (2 * 3**-0.5) ** 1 * 2**0.5 * 3**-0.5, rel=1e-12
        )

    def test_cf_constant_rho_four(self, cf):
        d = lower_bound_diagnostics(cf, 0.4, (2, 10))
        assert set(d.rho) == {4.0}


class TestBalancing:
    def test_equal_ratio_perfectly(self, cantor):
        assert balancing_class(cantor).verdict == "perfectly"

    def test_rho_n_weakly_not_balanced(self):
        rep = classify_rho([float(n) for n in range(1, 129)])
        assert rep.verdict == "weakly"
        assert not rep.flags["balanced"] and rep.flags["barely"]

    def test_rho_exp_sqrt_barely_not_weakly(self):
        rep = classify_rho([math.exp(math.sqrt(n)) for n in range(1, 129)])
        assert rep.verdict == "barely"
        assert not rep.flags["weakly"]

    def test_real_systems_match_synthetic(self):
        n_sys = build_similarity_system(
            [[0.25, 0.25 / (n + 1)] for n in range(128)], [[0.0, 0.5]] * 128
        )
        assert balancing_class(n_sys).verdict == "weakly"
        e_sys = build_similarity_system(
            [[0.25, 0.25 * math.exp(-math.sqrt(n + 1))] for n in range(128)],
            [[0.0, 0.5]] * 128,
        )
        assert balancing_class(e_sys).verdict == "barely"

    def test_chain_is_monotone(self, cf):
        rep = balancing_class(cf)
        assert rep.verdict == "balanced"
        order = ["perfectly", "balanced", "weakly", "barely"]
        seen = [rep.flags[c] for c in order]
        # once true, stays true down the chain
        assert seen == sorted(seen)


class TestABBounds:
    def test_constant_growth_inapplicable(self, cantor):
        rep = ab_dimension_bounds(cantor)
        assert not rep.applicable
        assert rep.rates["a0"] == pytest.approx(0.0, abs=1e-12)

    def test_doubling_quarter_decay_point_half(self, abhalf):
        rep = ab_dimension_bounds(abhalf)
        assert rep.applicable
        assert rep.point == pytest.approx(0.5, abs=1e-12)
        assert rep.rates["a0"] == pytest.approx(math.log(2), rel=1e-9)
        assert rep.rates["b0"] == pytest.approx(math.log(4), rel=1e-9)

    def test_mixed_decay_gives_interval(self):
        horizon = 12
        ratios = []
        offsets = []
        for n in range(1, horizon + 1):
            k = 2**n
            row = [(4.0**-n if j % 2 == 0 else 3.0**-n) for j in range(k)]
            ratios.append(row)
            offsets.append([j / k for j in range(k)])
        sys_m = build_similarity_system(ratios, offsets)
        rep = ab_dimension_bounds(sys_m)
        assert rep.applicable
        assert rep.lo == pytest.approx(math.log(2) / math.log(4), rel=1e-6)
        assert rep.hi == pytest.approx(math.log(2) / math.log(3), rel=1e-6)


class TestMeasureTrend:
    def test_critical_exponent_finite_positive(self, cantor):
        rep = hausdorff_measure_trend(cantor, T_STAR3, (2, 14))
        assert rep.verdict == "finite-positive"

    def test_above_critical_zero(self, cantor):
        rep = hausdorff_measure_trend(cantor, T_STAR3 + 0.1, (2, 14))
        assert rep.verdict == "zero"

    def test_below_critical_infinite(self, cantor):
        rep = hausdorff_measure_trend(cantor, T_STAR3 - 0.1, (2, 14))
        assert rep.verdict == "infinite"

    def test_alternating_at_its_dimension(self, alt):
        # Z_n(2/3) is 1 at even n and 2^(1/3) at odd: bounded both ways
        rep = hausdorff_measure_trend(alt, 2 / 3, (2, 24))
        assert rep.verdict == "finite-positive"

    def test_unbalanced_inapplicable(self):
        sys_u = build_similarity_system(
            [[0.25, 0.25 * math.exp(-0.5 * (n + 1))] for n in range(16)],
            [[0.0, 0.5]] * 16,
        )
        rep = hausdorff_measure_trend(sys_u, 0.3, (2, 12))
        assert rep.verdict == "inapplicable"

    def test_budget_reaches_the_frontier(self):
        with pytest.raises(BudgetError):
            hausdorff_measure_trend(bundled.cf12(12), 0.53, (6, 12), budget=1000)


class TestEvenlyVarying:
    def test_stationary_c_one(self, cantor):
        rep = evenly_varying_check(cantor)
        assert rep.ok and rep.c == pytest.approx(1.0)

    def test_bounded_jitter(self):
        rng = np.random.default_rng(5)
        ratios = [[0.2 * f, 0.3 * f] for f in rng.uniform(0.75, 1.5, size=20)]
        sys_j = build_similarity_system(ratios, [[0.0, 0.5]] * 20)
        rep = evenly_varying_check(sys_j)
        assert rep.ok and rep.c <= 2.0

    def test_drifting_norms_fail(self):
        sys_d = build_similarity_system(
            [[min(0.9, 0.001 * 2**n), 0.25] for n in range(10)],
            [[0.0, 0.5]] * 10,
        )
        assert not evenly_varying_check(sys_d, cap=16).ok


class TestHypothesisReport:
    def test_cantor_autonomous_perfect(self, cantor):
        rep = hypothesis_report(cantor)
        assert rep.justification == "autonomous-system"
        assert rep.balancing.verdict == "perfectly"
        assert rep.bowen_supported

    def test_alternating_subexp_ncifs(self, alt):
        rep = hypothesis_report(alt)
        assert rep.justification == "subexponential-ncifs"

    def test_abhalf_exponential_route(self, abhalf):
        rep = hypothesis_report(abhalf)
        assert rep.justification == "shrinking-norms-exponential-growth"

    def test_permutation_upper_bound_only(self, perm):
        rep = hypothesis_report(perm)
        assert rep.justification == "upper-bound-only"
        assert not rep.bowen_supported

    def test_ascending_route(self):
        rep = hypothesis_report(bundled.ascend_cf12(10))
        assert rep.justification == "ascending-finitely-primitive"

    def test_gdms_weakly_balanced_route(self, gdms):
        rep = hypothesis_report(gdms)
        assert rep.justification in (
            "autonomous-system", "weakly-balanced-finitely-primitive",
        )
        assert rep.primitivity is not None and rep.primitivity.p == 2

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as ss

from readout_tradeoff.dist import DomainError, RateParams, point_mass, poisson_pmf, tv_distance
from readout_tradeoff.gates import Compilation, GateNoise, point_outcome
from readout_tradeoff.scheme import (
    CompositeStats,
    MeritPoint,
    Model,
    SchemeConfig,
    compose,
    estimate_time_exponent,
    gaussian_scheme_snr,
    mi_optimal,
    peak_snr,
    scheme_snr,
    snr_direct,
    snr_general,
    threshold_analytic,
    time_to_snr,
)
from tests._reference import dense

RATES = RateParams(3.5, 14.0, 0.0041)
NOISE = GateNoise(0.01)


def ideal_snr(n, t, mu0=3.5, mu1=14.0):
    return 2.0 * (mu1 - mu0) * n * t / (math.sqrt(n * mu0 * t) + math.sqrt(n * mu1 * t))


class TestConfig:
    def test_ideal_rejects_gate_noise(self):
        with pytest.raises(DomainError):
            SchemeConfig(2, Model.IDEAL_POISSON, rates=RATES, noise=NOISE)

    def test_noisy_requires_rates(self):
        with pytest.raises(DomainError):
            SchemeConfig.noisy(2, None, NOISE)

    def test_rejects_zero_qubits(self):
        with pytest.raises(DomainError):
            SchemeConfig.ideal(0, RATES)

    def test_rejects_huge_register(self):
        with pytest.raises(DomainError):
            SchemeConfig.ideal(1000, RATES)

    def test_injected_requires_laws(self):
        with pytest.raises(DomainError):
            SchemeConfig.injected(2, ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]), None)


class TestIdealComposite:
    @pytest.mark.parametrize("n,t", [(1, 0.5), (3, 1.0), (5, 2.0)])
    def test_laws_are_scaled_poisson(self, n, t):
        stats = compose(SchemeConfig.ideal(n, RATES), t)
        assert tv_distance(stats.p0, poisson_pmf(n * 3.5 * t)) < 1e-14
        assert tv_distance(stats.p1, poisson_pmf(n * 14.0 * t)) < 1e-14

    @pytest.mark.parametrize("n,t", [(2, 0.7), (4, 1.3)])
    def test_register_time_exchange(self, n, t):
        # n qubits for t and one qubit for n*t give identical laws
        many = compose(SchemeConfig.ideal(n, RATES), t)
        long = compose(SchemeConfig.ideal(1, RATES), n * t)
        assert tv_distance(many.p1, long.p1) < 1e-14
        assert tv_distance(many.p0, long.p0) < 1e-14

    def test_snr_closed_form(self):
        for n, t in [(1, 1.0), (3, 1.0), (5, 0.4)]:
            assert scheme_snr(SchemeConfig.ideal(n, RATES), t) == pytest.approx(
                ideal_snr(n, t), rel=1e-12
            )

    def test_zero_window(self):
        assert scheme_snr(SchemeConfig.ideal(3, RATES), 0.0) == 0.0


class TestNoisyComposite:
    def test_noise_free_limits_reduce_to_ideal(self):
        clean = SchemeConfig.noisy(3, RateParams(3.5, 14.0, 0.0), GateNoise(0.0))
        ideal = SchemeConfig.ideal(3, RateParams(3.5, 14.0))
        a, b = compose(clean, 1.5), compose(ideal, 1.5)
        assert tv_distance(a.p0, b.p0) < 1e-12
        assert tv_distance(a.p1, b.p1) < 1e-12

    def test_bright_law_against_independent_assembly(self):
        # independent route: scipy pmfs, explicit weights, plain np.convolve
        mu0, mu1, lam, p, t, n = 3.5, 14.0, 0.0041, 0.01, 2.0, 3
        kmax = 120
        ks = np.arange(kmax + 1)

        def w_pmf(k):
            stay = math.exp(-lam * t) * ss.poisson.pmf(k, mu1 * t)
            from scipy.integrate import quad

            bump, _ = quad(
                lambda tp: lam
                * math.exp(-lam * tp)
                * ss.poisson.pmf(k, mu0 * t + (mu1 - mu0) * tp),
                0.0,
                t,
                epsabs=1e-15,
                epsrel=1e-12,
            )
            return stay + bump

        w = np.array([w_pmf(k) for k in ks])
        dark = ss.poisson.pmf(ks, mu0 * t)
        weights = [p, (1 - p) * p, 0.0, (1 - p) ** 2]
        acc = np.zeros(4 * kmax + 1)
        for q in range(n + 1):
            term = np.array([1.0])
            for _ in range(q):
                term = np.convolve(term, w)
            for _ in range(n - q):
                term = np.convolve(term, dark)
            acc[: term.size] += weights[q] * term

        stats = compose(SchemeConfig.noisy(n, RateParams(mu0, mu1, lam), GateNoise(p)), t)
        got = dense(stats.p1, acc.size)
        assert 0.5 * np.abs(got - acc).sum() < 1e-10

    def test_dark_law_ignores_gate_noise(self):
        # a dark control never flips its targets, failed gate or not
        for p in (0.0, 0.01, 0.3):
            stats = compose(SchemeConfig.noisy(4, RATES, GateNoise(p)), 1.0)
            assert tv_distance(stats.p0, poisson_pmf(4 * 3.5)) < 1e-14

    def test_moment_route_agrees_with_direct(self):
        rng = np.random.default_rng(20260822)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            p = float(rng.uniform(0.0, 0.05))
            lam = float(rng.uniform(0.0, 0.01))
            t = float(rng.uniform(0.1, 8.0))
            compilation = Compilation.CASCADE if rng.integers(2) else Compilation.FLAT
            cfg = SchemeConfig.noisy(n, RateParams(3.5, 14.0, lam), GateNoise(p, compilation))
            direct = snr_direct(compose(cfg, t))
            fast = scheme_snr(cfg, t)
            assert fast == pytest.approx(direct, rel=1e-9)


class TestInjected:
    def test_symmetric_two_sided_mixture(self):
        # fair coin between keeping and flipping both qubits, point-mass laws
        coin = [0.5, 0.0, 0.5]
        cfg = SchemeConfig.injected(
            2, (coin, coin), single_laws={1.0: (point_mass(1), point_mass(5))}
        )
        stats = compose(cfg, 1.0)
        assert stats.p1.pmf(10) == pytest.approx(0.5)
        assert stats.p1.pmf(2) == pytest.approx(0.5)
        assert stats.p0.pmf(2) == pytest.approx(0.5)
        assert stats.p0.pmf(10) == pytest.approx(0.5)

    def test_missing_time_key_raises(self):
        cfg = SchemeConfig.injected(
            2,
            ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
            single_laws={1.0: (point_mass(0), point_mass(3))},
        )
        with pytest.raises(DomainError):
            compose(cfg, 2.0)


class TestSnr:
    def test_identical_laws_give_zero(self):
        stats = CompositeStats.from_dists(poisson_pmf(5.0), poisson_pmf(5.0), 1.0)
        assert snr_direct(stats) == 0.0

    def test_distinct_point_masses_give_infinity(self):
        stats = CompositeStats.from_dists(point_mass(0), point_mass(5), 1.0)
        assert snr_direct(stats) == math.inf

    def test_moment_formula_collapses_for_trivial_gates(self):
        # all qubits nominal: the general expression is the plain ratio
        perfect = (point_outcome(2, 2), point_outcome(2, 2))
        got = snr_general(perfect, (3.5, 3.5), (14.0, 14.0), 2)
        assert got == pytest.approx(ideal_snr(2, 1.0), rel=1e-12)

    def test_rejects_non_finite_moments(self):
        perfect = (point_outcome(2, 2), point_outcome(2, 2))
        with pytest.raises(DomainError):
            snr_general(perfect, (math.nan, 1.0), (14.0, 14.0), 2)


class TestMiOptimal:
    def test_separated_point_masses(self):
        stats = CompositeStats.from_dists(point_mass(0), point_mass(5), 1.0)
        mi, eta = mi_optimal(stats)
        assert mi == 0.0
        assert eta == 1.0  # smallest threshold among the ties

    def test_identical_laws_give_half(self):
        d = poisson_pmf(5.0)
        mi, _ = mi_optimal(CompositeStats.from_dists(d, d, 1.0))
        assert mi == pytest.approx(0.5, abs=1e-12)

    def test_matches_exhaustive_scipy_scan(self):
        stats = compose(SchemeConfig.ideal(1, RATES), 1.0)
        mi, eta = mi_optimal(stats)
        etas = np.arange(0, 40)
        curve = 0.5 * (ss.poisson.sf(etas - 1, 3.5) + ss.poisson.cdf(etas - 1, 14.0))
        assert mi == pytest.approx(curve.min(), abs=1e-12)
        assert eta == etas[np.argmin(curve)]

    @given(st.integers(1, 4), st.floats(min_value=0.2, max_value=4.0))
    def test_bounded_by_half(self, n, t):
        mi, eta = mi_optimal(compose(SchemeConfig.noisy(n, RATES, NOISE), t))
        assert 0.0 <= mi <= 0.5
        assert eta >= 0.0

    def test_ideal_register_time_exchange(self):
        a, _ = mi_optimal(compose(SchemeConfig.ideal(3, RATES), 0.8))
        b, _ = mi_optimal(compose(SchemeConfig.ideal(1, RATES), 2.4))
        assert a == pytest.approx(b, rel=1e-12)


class TestThresholdAnalytic:
    def test_frozen_reference_values(self):
        ana = threshold_analytic(RateParams(3.5, 14.0), 1, 1.0)
        # alpha = 1/4, beta = 3/log(4), exponents from the rate-function
        assert ana.alpha == pytest.approx(0.25, abs=0)
        assert ana.beta == pytest.approx(3.0 / math.log(4.0), rel=1e-15)
        beta = ana.beta
        assert ana.gamma0 == pytest.approx(beta * math.log(beta) + 1.0 - beta, rel=1e-13)
        ab = 0.25 * beta
        assert ana.gamma1 == pytest.approx(ab * math.log(ab) + 1.0 - ab, rel=1e-13)
        assert ana.gamma0 > 0.0 and ana.gamma1 > 0.0

    def test_threshold_scales_with_register_and_time(self):
        base = threshold_analytic(RateParams(3.5, 14.0), 1, 1.0).eta_analytic
        assert threshold_analytic(RateParams(3.5, 14.0), 4, 1.0).eta_analytic == pytest.approx(
            4 * base, rel=1e-13
        )
        assert threshold_analytic(RateParams(3.5, 14.0), 1, 2.5).eta_analytic == pytest.approx(
            2.5 * base, rel=1e-13
        )

    def test_near_optimal_at_moderate_counts(self):
        for n, t in [(1, 0.5), (1, 1.0), (1, 2.0), (2, 1.0), (4, 0.5)]:
            stats = compose(SchemeConfig.ideal(n, RateParams(3.5, 14.0)), t)
            mi_opt, _ = mi_optimal(stats)
            k = math.ceil(threshold_analytic(RateParams(3.5, 14.0), n, t).eta_analytic)
            from readout_tradeoff.dist import tail_ge

            mi_ana = 0.5 * (tail_ge(stats.p0, k) + 1.0 - tail_ge(stats.p1, k))
            assert mi_opt > 0.0
            assert mi_ana <= 1.2 * mi_opt

    def test_rejects_equal_rates(self):
        with pytest.raises(DomainError):
            threshold_analytic(RateParams(7.0, 7.0), 1, 1.0)


class TestPeakSnr:
    def test_ideal_grows_without_bound(self):
        assert peak_snr(SchemeConfig.ideal(2, RATES)) == (math.inf, math.inf)

    def test_noise_free_noisy_model_also_unbounded(self):
        cfg = SchemeConfig.noisy(2, RateParams(3.5, 14.0, 0.0), GateNoise(0.0))
        assert peak_snr(cfg) == (math.inf, math.inf)

    def test_single_qubit_peak_location(self):
        s_max, t_max = peak_snr(SchemeConfig.noisy(1, RATES, NOISE))
        # frozen regression values, cross-checked against a dense scan
        assert s_max == pytest.approx(9.188325382, rel=1e-6)
        assert t_max == pytest.approx(13.0105, rel=1e-3)

    def test_peak_dominates_neighborhood(self):
        cfg = SchemeConfig.noisy(2, RATES, NOISE)
        s_max, t_max = peak_snr(cfg)
        for t in (0.9 * t_max, 0.97 * t_max, 1.03 * t_max, 1.1 * t_max):
            assert scheme_snr(cfg, t) <= s_max + 1e-12


class TestTimeToSnr:
    def test_ideal_closed_form(self):
        # single qubit: snr = 2*dmu*sqrt(t)/(sqrt(mu0)+sqrt(mu1))
        t = time_to_snr(SchemeConfig.ideal(1, RateParams(3.5, 14.0)), 8.0)
        root = 8.0 * (math.sqrt(3.5) + math.sqrt(14.0)) / (2.0 * 10.5)
        assert t == pytest.approx(root * root, rel=1e-10)

    @pytest.mark.parametrize("target", [0.5, 8.0, 30.0])
    def test_ideal_is_smallest_float_reaching_target(self, target):
        for n in range(1, 65):
            cfg = SchemeConfig.ideal(n, RateParams(3.5, 14.0))
            t = time_to_snr(cfg, target)
            assert scheme_snr(cfg, t) >= target
            assert scheme_snr(cfg, math.nextafter(t, 0.0)) < target

    def test_reaches_requested_level(self):
        cfg = SchemeConfig.noisy(3, RATES, NOISE)
        t = time_to_snr(cfg, 8.0)
        assert scheme_snr(cfg, t) == pytest.approx(8.0, rel=1e-9)

    def test_unreachable_returns_none(self):
        assert time_to_snr(SchemeConfig.noisy(1, RATES, NOISE), 20.0) is None

    def test_rejects_non_positive_target(self):
        with pytest.raises(DomainError):
            time_to_snr(SchemeConfig.ideal(1, RATES), 0.0)


class TestGaussianScheme:
    def test_closed_form(self):
        assert gaussian_scheme_snr(2.0, 1, 1.0) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_register_time_identities(self):
        for n in (1, 2, 5):
            for t in (0.1, 1.0, 7.0):
                lhs = gaussian_scheme_snr(3.5, n, t)
                assert lhs == pytest.approx(gaussian_scheme_snr(3.5, 1, n * t), rel=1e-12)
                assert lhs == pytest.approx(
                    math.sqrt(n) * gaussian_scheme_snr(3.5, 1, t), rel=1e-12
                )

    def test_rejects_bad_drift(self):
        with pytest.raises(DomainError):
            gaussian_scheme_snr(-1.0, 1, 1.0)


class TestTimeExponent:
    def test_ideal_snr_scales_like_square_root(self):
        ts = np.geomspace(0.5, 8.0, 12)
        snrs = [scheme_snr(SchemeConfig.ideal(2, RateParams(3.5, 14.0)), t) for t in ts]
        assert estimate_time_exponent(ts, snrs) == pytest.approx(0.5, abs=1e-8)


class TestMeritPoint:
    def test_rejects_out_of_range_mi(self):
        with pytest.raises(DomainError):
            MeritPoint(1, 1.0, mi=0.7)

    def test_rejects_negative_snr(self):
        with pytest.raises(DomainError):
            MeritPoint(1, 1.0, snr=-2.0)

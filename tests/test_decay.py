import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, signal, stats as ss

from readout_tradeoff import decay
from readout_tradeoff.decay import DecayModelParams, decaying_poisson, decaying_poisson_moments
from readout_tradeoff.dist import DomainError, RateParams, moments, poisson_pmf, tv_distance
from readout_tradeoff.gates import GateNoise
from readout_tradeoff.scheme import SchemeConfig, scheme_snr
from tests._reference import decay_mean_var, decayed_pmf_exact, max_abs_diff

RATES = RateParams(3.5, 14.0, 0.0041)

LAM_GRID = [1e-4, 0.0041, 0.1, 1.0, 10.0]
T_GRID = [0.3, 3.0, 20.0]


class TestParams:
    def test_rejects_negative_window(self):
        with pytest.raises(DomainError):
            DecayModelParams(RATES, -1.0)

    def test_rejects_non_rate_argument(self):
        with pytest.raises(DomainError):
            DecayModelParams((3.5, 14.0, 0.0041), 1.0)

    @pytest.mark.parametrize(
        "t", [[1.0, 2.0], (1.0, 2.0), np.array([1.0, 2.0])], ids=["list", "tuple", "ndarray"]
    )
    def test_rejects_an_array_of_windows(self, t):
        # the law, its moments and the SNR are each built at one window length
        cfg = SchemeConfig.noisy(3, RATES, GateNoise(0.01))
        for call in (lambda: DecayModelParams(RATES, t), lambda: scheme_snr(cfg, t)):
            with pytest.raises(DomainError, match="^window length must be finite and non-negative"):
                call()


class TestMomentsClosedForm:
    """The closed-form moments must match the extended-precision integrals."""

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("t", T_GRID)
    def test_quadrature_route(self, lam, t):
        params = DecayModelParams(RateParams(3.5, 14.0, lam), t)
        mean, var = decaying_poisson_moments(params)
        ref_mean, ref_var = decay_mean_var(3.5, 14.0, lam, t)
        assert mean == pytest.approx(ref_mean, rel=1e-9)
        assert var == pytest.approx(ref_var, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.0041, 1.0])
    @pytest.mark.parametrize("t", [0.3, 3.0])
    def test_distribution_route(self, lam, t):
        params = DecayModelParams(RateParams(3.5, 14.0, lam), t)
        mean, var = moments(decaying_poisson(params))
        ref_mean, ref_var = decay_mean_var(3.5, 14.0, lam, t)
        assert mean == pytest.approx(ref_mean, rel=1e-8)
        assert var == pytest.approx(ref_var, rel=1e-7)

    # lam*t from subnormal to 1e4; the oracle's precision grows as lam*t
    # shrinks, so it resolves every point
    @pytest.mark.parametrize(
        "x",
        [2.2e-311, 1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.49, 0.5, 0.51, 1.0, 10.0, 1e3, 1e4]
        + [1e-40, 1e-30, 1e-20, 1e-15],
    )
    @pytest.mark.parametrize("mu0", [0.0, 3.5])
    @pytest.mark.parametrize("t", [0.1, 1e3])
    def test_envelope_against_oracle(self, x, mu0, t):
        lam = x / t
        mean, var = decaying_poisson_moments(DecayModelParams(RateParams(mu0, 14.0, lam), t))
        ref_mean, ref_var = decay_mean_var(mu0, 14.0, lam, t)
        assert mean == pytest.approx(ref_mean, rel=1e-12)
        assert var == pytest.approx(ref_var, rel=1e-12)

    @pytest.mark.parametrize("mu0, mu1", [(3.5, 14.0), (7.0, 7.0), (0.0, 0.0)])
    @pytest.mark.parametrize("t", [0.0, 5e-324, 1e-3, 7.3, 1e300])
    def test_no_decay_is_plain_poisson_moments(self, mu0, mu1, t):
        # the ideal bright law's moments come from here, exactly
        params = DecayModelParams(RateParams(mu0, mu1, 0.0), t)
        assert decaying_poisson_moments(params) == (mu1 * t, mu1 * t)

    @pytest.mark.parametrize("lam, t", [(0.0041, 1e300), (0.0, 1e308)])
    def test_overflow_names_the_window(self, lam, t):
        with pytest.raises(DomainError, match="window length"):
            decaying_poisson_moments(DecayModelParams(RateParams(3.5, 14.0, lam), t))


def _quad_pmf(mu0, mu1, lam, t, k):
    """P(K = k) by scipy.quad over the decay time, split around the peak.

    The integrand is log-concave in the decay time, with its maximum where
    the conditional mean equals k/(1 + lam/(mu1-mu0)) and a width set by
    both the Poisson spread and the decay scale 1/lam; quad gets those
    points as breakpoints so that a narrow bump is never stepped over.
    """
    dm = mu1 - mu0
    log_fact = math.lgamma(k + 1.0)

    def integrand(tp):
        m = mu0 * t + dm * tp
        if m == 0.0:
            return lam * math.exp(-lam * tp) if k == 0 else 0.0
        return lam * math.exp(-lam * tp + k * math.log(m) - m - log_fact)

    peak = min(max((k * dm / (dm + lam) - mu0 * t) / dm, 0.0), t)
    width = math.sqrt(max(k, 1.0)) / dm
    cuts = {peak} | {s / lam for s in (1.0, 4.0, 16.0, 64.0, 256.0, 750.0)}
    cuts |= {peak + s * width for s in (-20.0, -5.0, -1.0, 1.0, 5.0, 20.0)}
    edges = sorted({0.0, t} | {x for x in cuts if 0.0 < x < t})
    bump = math.fsum(
        integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )
    stay = math.exp(-lam * t + k * math.log(mu1 * t) - mu1 * t - log_fact)
    return stay + bump


class TestMassFunction:
    def test_pointwise_against_quad(self):
        # fully independent route: scipy.quad on the conditional pmf
        mu0, mu1, lam, t = 3.5, 14.0, 0.0041, 3.0
        d = decaying_poisson(DecayModelParams(RateParams(mu0, mu1, lam), t))
        for k in (0, 5, 20, 40, 60):
            stay = math.exp(-lam * t) * ss.poisson.pmf(k, mu1 * t)
            bump, _ = integrate.quad(
                lambda tp: lam
                * math.exp(-lam * tp)
                * ss.poisson.pmf(k, mu0 * t + (mu1 - mu0) * tp),
                0.0,
                t,
                epsabs=1e-16,
                epsrel=1e-12,
            )
            assert d.pmf(k) == pytest.approx(stay + bump, rel=1e-9, abs=1e-16)

    def test_heavy_decay_pointwise_against_quad(self):
        mu0, mu1, lam, t = 3.5, 14.0, 2.0, 3.0
        d = decaying_poisson(DecayModelParams(RateParams(mu0, mu1, lam), t))
        for k in (0, 8, 15, 30):
            stay = math.exp(-lam * t) * ss.poisson.pmf(k, mu1 * t)
            bump, _ = integrate.quad(
                lambda tp: lam
                * math.exp(-lam * tp)
                * ss.poisson.pmf(k, mu0 * t + (mu1 - mu0) * tp),
                0.0,
                t,
                epsabs=1e-16,
                epsrel=1e-12,
            )
            assert d.pmf(k) == pytest.approx(stay + bump, rel=1e-9, abs=1e-16)

    @pytest.mark.parametrize("lam", [1e-4, 10.0, 1e6])
    @pytest.mark.parametrize("mu0", [0.0, 3.5])
    @pytest.mark.parametrize("t", [0.1, 60.0, 1e3])
    def test_envelope_corners_against_quad(self, lam, mu0, t):
        # the first and last three bins of the window plus the two modes
        d = decaying_poisson(DecayModelParams(RateParams(mu0, 14.0, lam), t))
        ks = {d.offset + i for i in (0, 1, 2)} | {d.k_max - i for i in (0, 1, 2)}
        ks |= {k for k in (int(mu0 * t), int(14.0 * t)) if d.offset <= k <= d.k_max}
        for k in sorted(ks):
            assert d.pmf(k) == pytest.approx(_quad_pmf(mu0, 14.0, lam, t, k), rel=1e-9, abs=1e-300)

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("t", T_GRID)
    def test_mass_conserved(self, lam, t):
        d = decaying_poisson(DecayModelParams(RateParams(3.5, 14.0, lam), t))
        assert d.truncation_loss <= 1e-11
        assert d.masses.sum() == pytest.approx(1.0, abs=1e-10)


class TestRecurrenceEqualsLfilter:
    @pytest.mark.parametrize("lam", [1e-4, 0.0041, 10.0])
    @pytest.mark.parametrize("t", [0.5, 60.0, 1e3])
    def test_bit_identical(self, lam, t, monkeypatch):
        # mu0 = 0 takes Pois(0)'s window; want runs the recurrence step by scipy.signal.lfilter
        params = [DecayModelParams(RateParams(mu0, 14.0, lam), t) for mu0 in (3.5, 0.0)]
        got = [decaying_poisson(p) for p in params]
        step = mock.Mock(side_effect=lambda x, g, r: signal.lfilter([g], [1.0, -r], x))
        monkeypatch.setattr(decay, "_one_pole", step)
        for law, p in zip(got, params):
            want = decaying_poisson(p)
            assert law.offset == want.offset
            assert np.array_equal(law.masses, want.masses)
        assert step.call_count == len(params)  # each law stepped its recurrence by lfilter


class TestExactBins:
    """Bins on both sides of b = (1+c) mu1 t against the incomplete-gamma form in mpmath."""

    @pytest.mark.parametrize("lam, t", [(0.0041, 20.0), (0.0041, 1e3), (0.5, 100.0)])
    def test_relative_error(self, lam, t):
        d = decaying_poisson(DecayModelParams(RateParams(3.5, 14.0, lam), t))
        b = (1.0 + lam / 10.5) * 14.0 * t
        below = np.linspace(d.offset, math.floor(b), 12).astype(int).tolist()
        above = np.linspace(math.floor(b) + 1, d.k_max, 8).astype(int).tolist()
        for k in below + above:
            exact = decayed_pmf_exact(3.5, 14.0, lam, t, k)
            assert d.pmf(k) == pytest.approx(exact, rel=1e-12, abs=0.0), k


class TestLimits:
    def test_zero_decay_rate(self):
        d = decaying_poisson(DecayModelParams(RateParams(3.5, 14.0, 0.0), 2.0))
        assert max_abs_diff(d, poisson_pmf(28.0)) < 1e-15

    def test_tiny_decay_rate(self):
        d = decaying_poisson(DecayModelParams(RateParams(3.5, 14.0, 1e-14), 2.0))
        assert tv_distance(d, poisson_pmf(28.0)) < 1e-12

    def test_equal_rates_decay_invisible(self):
        # decay moves the emitter between states with identical rates
        d = decaying_poisson(DecayModelParams(RateParams(7.0, 7.0, 0.3), 2.0))
        assert max_abs_diff(d, poisson_pmf(14.0)) < 1e-10

    def test_zero_window_is_no_photons(self):
        d = decaying_poisson(DecayModelParams(RATES, 0.0))
        assert d.offset == 0 and d.masses.size == 1 and d.masses[0] == 1.0

    def test_zero_bright_rate_with_zero_dark(self):
        d = decaying_poisson(DecayModelParams(RateParams(0.0, 0.0, 0.5), 3.0))
        assert d.masses[0] == 1.0

    def test_strong_decay_approaches_dark_law(self):
        d = decaying_poisson(DecayModelParams(RateParams(3.5, 14.0, 1e6), 2.0))
        assert tv_distance(d, poisson_pmf(7.0)) < 1e-4


class TestShape:
    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.05, max_value=10.0),
    )
    def test_mean_between_dark_and_bright(self, lam, t):
        mean, var = decaying_poisson_moments(
            DecayModelParams(RateParams(3.5, 14.0, lam), t)
        )
        assert 3.5 * t - 1e-9 <= mean <= 14.0 * t + 1e-9
        assert var >= mean - 1e-9  # decay only adds dispersion

    def test_mean_decreases_with_decay_rate(self):
        means = [
            decaying_poisson_moments(DecayModelParams(RateParams(3.5, 14.0, lam), 3.0))[0]
            for lam in [0.0, 0.01, 0.1, 1.0, 10.0]
        ]
        assert all(a > b for a, b in zip(means, means[1:]))

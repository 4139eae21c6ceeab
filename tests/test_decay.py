import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, stats as ss

from readout_tradeoff.decay import (
    DecayModelParams,
    decaying_poisson,
    decaying_poisson_moments,
)
from readout_tradeoff.dist import DomainError, RateParams, moments, poisson_pmf, tv_distance
from tests._reference import decay_mean_var, max_abs_diff

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

    # lam*t from subnormal to 1e4; the 45-digit oracle resolves every point
    # (below ~1e-45 its exp(-lam*t) rounds to one, as the float answer does)
    @pytest.mark.parametrize(
        "x", [2.2e-311, 1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.49, 0.5, 0.51, 1.0, 10.0, 1e3, 1e4]
    )
    @pytest.mark.parametrize("mu0", [0.0, 3.5])
    @pytest.mark.parametrize("t", [0.1, 1e3])
    def test_envelope_against_oracle(self, x, mu0, t):
        lam = x / t
        mean, var = decaying_poisson_moments(DecayModelParams(RateParams(mu0, 14.0, lam), t))
        ref_mean, ref_var = decay_mean_var(mu0, 14.0, lam, t)
        assert mean == pytest.approx(ref_mean, rel=1e-12)
        assert var == pytest.approx(ref_var, rel=1e-12)

    def test_no_decay_is_plain_poisson_moments(self):
        params = DecayModelParams(RateParams(3.5, 14.0, 0.0), 2.0)
        assert decaying_poisson_moments(params) == (28.0, 28.0)


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

import numpy as np
import pytest

from readout_tradeoff.decay import DecayModelParams, decaying_poisson
from readout_tradeoff.dist import DomainError, RateParams, moments, point_mass, poisson_pmf, tv_distance
from readout_tradeoff.gates import Compilation, GateNoise, cascade_dist, cascade_wiring, flat_dist, flat_wiring
from readout_tradeoff.montecarlo import (
    BATCH_SHOTS,
    McConfig,
    sample_full_scheme,
    sample_gate_outcomes,
    sample_photon_counts,
)
from readout_tradeoff.scheme import SchemeConfig, compose

RATES = RateParams(3.5, 14.0, 0.0041)


class TestDeterminism:
    def test_gate_sampling_repeats(self):
        a = sample_gate_outcomes(cascade_wiring(4), 0.05, 30_000, 42)
        b = sample_gate_outcomes(cascade_wiring(4), 0.05, 30_000, 42)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_photon_sampling_repeats(self):
        a = sample_photon_counts(RATES, 1, 2.0, 30_000, 42)
        b = sample_photon_counts(RATES, 1, 2.0, 30_000, 42)
        np.testing.assert_array_equal(a.masses, b.masses)

    def test_seed_changes_outcome(self):
        a = sample_photon_counts(RATES, 1, 2.0, 30_000, 1)
        b = sample_photon_counts(RATES, 1, 2.0, 30_000, 2)
        assert tv_distance(a, b) > 0.0

    @pytest.mark.parametrize("seeds", [(-3, -4), (-1, 0), (2**63, 2**63 + 1)])
    def test_negative_and_huge_seeds_keep_their_own_stream(self, seeds):
        a, b = (sample_photon_counts(RATES, 1, 2.0, 30_000, s) for s in seeds)
        assert tv_distance(a, b) > 0.0

    def test_partial_final_batch(self):
        # shot counts straddling the batch size must still be exact
        n = BATCH_SHOTS + 17
        d = sample_photon_counts(RATES, 0, 1.0, n, 3)
        total = d.masses.sum() + d.truncation_loss
        assert total == pytest.approx(1.0, abs=1e-12)


class TestGateSampling:
    def test_matches_closed_form_cascade(self):
        emp = sample_gate_outcomes(cascade_wiring(5), 0.01, 200_000, 11)
        ana = cascade_dist(5, GateNoise(0.01))
        assert 0.5 * np.abs(emp.probs - ana.probs).sum() < 2e-3

    def test_matches_closed_form_flat(self):
        emp = sample_gate_outcomes(flat_wiring(6), 0.1, 200_000, 12)
        ana = flat_dist(6, GateNoise(0.1, Compilation.FLAT))
        assert 0.5 * np.abs(emp.probs - ana.probs).sum() < 3e-3

    def test_perfect_gates(self):
        emp = sample_gate_outcomes(flat_wiring(4), 0.0, 1_000, 0)
        assert emp.probs[4] == 1.0

    def test_single_qubit_no_gates(self):
        emp = sample_gate_outcomes([], 0.5, 1_000, 0)
        assert emp.probs.tolist() == [0.0, 1.0]


class TestPhotonSampling:
    def test_dark_state_is_plain_poisson(self):
        emp = sample_photon_counts(RATES, 0, 3.0, 200_000, 5)
        assert tv_distance(emp, poisson_pmf(10.5)) < 8e-3

    def test_bright_without_decay(self):
        emp = sample_photon_counts(RateParams(3.5, 14.0, 0.0), 1, 1.0, 200_000, 6)
        assert tv_distance(emp, poisson_pmf(14.0)) < 8e-3

    def test_bright_with_decay_matches_analytic(self):
        emp = sample_photon_counts(RATES, 1, 3.0, 200_000, 12)
        ana = decaying_poisson(DecayModelParams(RATES, 3.0))
        assert tv_distance(ana, emp) < 0.012

    def test_heavy_decay_drops_to_dark_rate(self):
        heavy = RateParams(3.5, 14.0, 50.0)
        emp = sample_photon_counts(heavy, 1, 2.0, 100_000, 7)
        mean, _ = moments(emp)
        # almost every trajectory decays immediately
        assert mean == pytest.approx(7.0, rel=0.05)

    def test_zero_window(self):
        emp = sample_photon_counts(RATES, 1, 0.0, 1_000, 8)
        assert tv_distance(emp, point_mass(0)) == 0.0


class TestFullScheme:
    def test_matches_composite_laws(self):
        cfg = SchemeConfig.noisy(3, RATES, GateNoise(0.01))
        stats = compose(cfg, 1.0)
        e0, e1 = sample_full_scheme(McConfig(100_000, 13, cfg, 1.0))
        assert tv_distance(stats.p0, e0) < 0.009
        assert tv_distance(stats.p1, e1) < 0.013

    def test_ideal_model_sampled_with_perfect_gates(self):
        cfg = SchemeConfig.ideal(2, RateParams(3.5, 14.0))
        stats = compose(cfg, 1.0)
        e0, e1 = sample_full_scheme(McConfig(60_000, 14, cfg, 1.0))
        assert tv_distance(stats.p0, e0) < 0.015
        assert tv_distance(stats.p1, e1) < 0.015

    def test_injected_model_unsupported(self):
        coin = [0.5, 0.0, 0.5]
        cfg = SchemeConfig.injected(2, (coin, coin), lambda t: (point_mass(1), point_mass(5)))
        with pytest.raises(DomainError):
            sample_full_scheme(McConfig(100, 0, cfg, 1.0))


class TestValidation:
    def test_rejects_zero_shots(self):
        cfg = SchemeConfig.ideal(1, RATES)
        with pytest.raises(DomainError):
            McConfig(0, 1, cfg, 1.0)

    def test_rejects_negative_window(self):
        cfg = SchemeConfig.ideal(1, RATES)
        with pytest.raises(DomainError):
            McConfig(100, 1, cfg, -1.0)

    def test_rejects_bad_gate_probability(self):
        with pytest.raises(DomainError):
            sample_gate_outcomes(flat_wiring(2), 1.5, 100, 0)

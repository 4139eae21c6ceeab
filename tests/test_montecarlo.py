import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import readout_tradeoff.montecarlo as mc
from readout_tradeoff.decay import DecayModelParams, decaying_poisson
from readout_tradeoff.dist import DomainError, RateParams, _laid_out, moments, point_mass, poisson_pmf
from readout_tradeoff.dist import tv_distance
from readout_tradeoff.gates import Compilation, GateNoise, cascade_dist, cascade_wiring, flat_dist, flat_wiring
from readout_tradeoff.montecarlo import (
    BATCH_SHOTS,
    McConfig,
    sample_full_scheme,
    sample_gate_outcomes,
    sample_photon_counts,
)
from readout_tradeoff.scheme import SchemeConfig, compose
from tests._reference import replay_full_scheme, replay_gate_outcomes, replay_photon_counts

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

    @pytest.mark.parametrize(
        "seeds",
        [
            (-3, -4),
            (-1, 0),
            (2**63, 2**63 + 1),
            (5, 2**64 + 5),
            (5, 5 - 2**64),
            (0, -(2**255)),
            (-1, 2**255 - 1),
        ],
    )
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

    def test_rejects_bad_initial_state(self):
        with pytest.raises(DomainError, match="^initial state must be 0 or 1, got 2$"):
            sample_photon_counts(RATES, 2, 1.0, 100, 0)

    @pytest.mark.parametrize("state, shown", [(np.array([1, 0]), "array([1, 0])"), ("1", "'1'")])
    def test_initial_state_is_one_count(self, state, shown):
        # a state is one count: an array's truth value in a range test is ambiguous
        message = f"^initial state must be 0 or 1, got {re.escape(shown)}$"
        with pytest.raises(DomainError, match=message):
            sample_photon_counts(RATES, state, 1.0, 100, 0)

    @pytest.mark.parametrize("shots", [math.nan, math.inf, "100", 2.5])
    def test_rejects_non_integer_shots(self, shots):
        with pytest.raises(DomainError):
            McConfig(shots, 1, SchemeConfig.ideal(1, RATES), 1.0)
        with pytest.raises(DomainError):
            sample_photon_counts(RATES, 1, 1.0, shots, 0)


BAD_SEEDS = [
    pytest.param(1.7, id="fraction"),
    pytest.param("3", id="string"),
    pytest.param(math.nan, id="nan"),
    pytest.param(math.inf, id="inf"),
    pytest.param(2**255, id="above-range"),
    pytest.param(-(2**255) - 1, id="below-range"),
]


class TestSeedValidation:
    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_mc_config_rejects(self, seed):
        with pytest.raises(DomainError, match="seed"):
            McConfig(100, seed, SchemeConfig.ideal(1, RATES), 1.0)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_gate_sampling_rejects(self, seed):
        with pytest.raises(DomainError, match="seed"):
            sample_gate_outcomes(cascade_wiring(3), 0.1, 100, seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_photon_sampling_rejects(self, seed):
        with pytest.raises(DomainError, match="seed"):
            sample_photon_counts(RATES, 1, 1.0, 100, seed)

    def test_numpy_integer_seed_is_the_same_seed(self):
        a = sample_photon_counts(RATES, 1, 2.0, 1_000, np.int64(-3))
        b = sample_photon_counts(RATES, 1, 2.0, 1_000, -3)
        np.testing.assert_array_equal(a.masses, b.masses)


SHOT_COUNTS = [1, BATCH_SHOTS, 3 * BATCH_SHOTS + 17]


def assert_same_law(dist, hist, shots):
    first = int(np.argmax(hist > 0))
    assert dist.offset == first
    np.testing.assert_array_equal(dist.masses, hist[first:] / shots)


class TestScheduleIndependence:
    """The pooled samplers equal a sequential replay of their batches, bit for bit."""

    @pytest.mark.parametrize("shots", SHOT_COUNTS)
    @pytest.mark.parametrize("compilation", list(Compilation))
    @pytest.mark.parametrize("lam", [0.0, 0.0041])
    def test_full_scheme(self, shots, compilation, lam):
        rates = RateParams(3.5, 14.0, lam)
        cfg = SchemeConfig.noisy(5, rates, GateNoise(0.02, compilation))
        e0, e1 = sample_full_scheme(McConfig(shots, 2**64 + 11, cfg, 2.0))
        wiring = cascade_wiring(5) if compilation is Compilation.CASCADE else flat_wiring(5)
        h0, h1 = replay_full_scheme(wiring, 5, rates, 0.02, 2.0, shots, 2**64 + 11, BATCH_SHOTS)
        assert_same_law(e0, h0, shots)
        assert_same_law(e1, h1, shots)

    @pytest.mark.parametrize("shots", SHOT_COUNTS)
    @pytest.mark.parametrize("wiring", [cascade_wiring(10), flat_wiring(10)],
                             ids=["cascade", "flat"])
    def test_gate_outcomes(self, shots, wiring):
        emp = sample_gate_outcomes(wiring, 0.05, shots, -7)
        hist = replay_gate_outcomes(wiring, 10, 0.05, shots, -7, BATCH_SHOTS)
        np.testing.assert_array_equal(emp.probs, hist / shots)

    @pytest.mark.parametrize("shots", SHOT_COUNTS)
    @pytest.mark.parametrize("lam", [0.0, 0.0041])
    @pytest.mark.parametrize("initial_state", [0, 1], ids=["dark", "bright"])
    def test_photon_counts(self, shots, lam, initial_state):
        rates = RateParams(3.5, 14.0, lam)
        emp = sample_photon_counts(rates, initial_state, 3.0, shots, 29)
        hist = replay_photon_counts(rates, initial_state, 3.0, shots, 29, BATCH_SHOTS)
        assert_same_law(emp, hist, shots)

    def test_more_workers_than_cores(self, monkeypatch):
        monkeypatch.setattr(mc, "_cpus", lambda: 8)
        shots = 3 * BATCH_SHOTS + 17
        cfg = SchemeConfig.noisy(5, RATES, GateNoise(0.02))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            e0, e1 = sample_full_scheme(McConfig(shots, 3, cfg, 2.0))
        finally:
            sys.setswitchinterval(interval)
        h0, h1 = replay_full_scheme(cascade_wiring(5), 5, RATES, 0.02, 2.0, shots, 3, BATCH_SHOTS)
        assert_same_law(e0, h0, shots)
        assert_same_law(e1, h1, shots)


class TestSparseBinning:
    """Each batch is binned from its lowest count, the same law as dense binning from zero."""

    BRIGHT = RateParams(3.5, 1e6, 0.0)  # counts near 3e6 at t = 3 ms

    @pytest.mark.parametrize("shots", [1_000, 2 * BATCH_SHOTS + 5])
    def test_far_from_zero_matches_dense_replay(self, shots):
        emp = sample_photon_counts(self.BRIGHT, 1, 3.0, shots, 2**70)
        assert emp.offset > 2_900_000
        hist = replay_photon_counts(self.BRIGHT, 1, 3.0, shots, 2**70, BATCH_SHOTS)
        assert_same_law(emp, hist, shots)

    def test_full_scheme_far_from_zero_matches_dense_replay(self):
        rates = RateParams(1e4, 1e5, 0.0041)
        cfg = SchemeConfig.noisy(3, rates, GateNoise(0.02))
        shots = BATCH_SHOTS + 17
        e0, e1 = sample_full_scheme(McConfig(shots, -3, cfg, 2.0))
        h0, h1 = replay_full_scheme(cascade_wiring(3), 3, rates, 0.02, 2.0, shots, -3, BATCH_SHOTS)
        assert_same_law(e0, h0, shots)
        assert_same_law(e1, h1, shots)

    def test_memory_follows_the_sampled_span(self):
        # binned from zero, the 12,102-point law took 48 MB: 8 bytes per count
        # up to 3e6, twice over
        tracemalloc.start()
        try:
            emp = sample_photon_counts(self.BRIGHT, 1, 3.0, 1_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emp.masses.size == 12_102
        assert peak < 2_000_000

    def test_batch_span_past_max_support_is_refused(self):
        # decay times of about 1 ms spread the counts over 0..3e6
        tracemalloc.start()
        try:
            message = r"^sampled law support \d+\.\.\d+ spans more than 1000000 counts$"
            with pytest.raises(DomainError, match=message):
                sample_photon_counts(RateParams(3.5, 1e6, 1.0), 1, 3.0, 1_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6  # less than the refused histogram

    # mu1 * t, the largest mean a shot can have, is checked as poisson_pmf
    # checks it, under every seed: a dark mean of 1.05e19, past what numpy's
    # sampler takes; a dark one of 5e9, which ten shots would span in far
    # fewer than 10^6 counts; and a bright 1e10 that decay at 10 per ms
    # leaves under the 4.8e9 limit in all but about 0.8% of shots
    @pytest.mark.parametrize(
        "rates, state, t",
        [
            (RateParams(3.5, 14.0, 0.0041), 0, 3e18),
            (RateParams(3.5, 14.0, 0.0041), 1, 3e18),
            (RateParams(5.0, 14.0, 0.0041), 0, 1e9),
            (RateParams(0.0, 1e10, 10.0), 1, 1.0),
        ],
    )
    def test_mean_past_poisson_pmf_check_is_refused_before_drawing(self, rates, state, t):
        with pytest.raises(DomainError) as expected:
            poisson_pmf(rates.mu1 * t)
        for seed in range(20):
            with pytest.raises(DomainError, match=f"^{re.escape(str(expected.value))}$"):
                sample_photon_counts(rates, state, t, 10, seed)

    @pytest.mark.parametrize("rates", [RateParams(0.0, 1e300, 0.1), RateParams(0.0, 1e10, 10.0)])
    def test_full_scheme_mean_past_poisson_pmf_check_is_refused(self, rates):
        cfg = SchemeConfig.noisy(3, rates, GateNoise(0.01))
        for seed in range(20):
            with pytest.raises(DomainError, match=r"^poisson mean \S+ support spans more than 1000000 counts$"):
                sample_full_scheme(McConfig(10, seed, cfg, 1.0))

    def test_merged_span_past_max_support_is_refused(self):
        batches = [(0, np.ones(10, dtype=np.int64)), (10**6, np.ones(1, dtype=np.int64))]
        with pytest.raises(DomainError, match=r"^sampled law support 0\.\.1000000 spans more than"):
            _laid_out(batches, "sampled law")
        lo, hist = _laid_out([(5, np.array([1, 2])), (3, np.array([4]))], "sampled law")
        assert lo == 3 and hist.tolist() == [4, 0, 1, 2]


def _batch_index(rng) -> int:
    # the second 64-bit word of a batch generator's Philox key
    return int(rng.bit_generator.state["state"]["key"][1])


class TestMapBatches:
    def test_results_in_batch_order_when_first_finishes_last(self, monkeypatch):
        monkeypatch.setattr(mc, "_cpus", lambda: 4)

        def draw(rng, size):
            batch = _batch_index(rng)
            time.sleep(0.2 if batch == 0 else 0.0)
            return batch, size, time.perf_counter()

        out = mc._map_batches(5, 3 * BATCH_SHOTS + 1, draw)
        assert [(b, s) for b, s, _ in out] == [(0, BATCH_SHOTS), (1, BATCH_SHOTS),
                                               (2, BATCH_SHOTS), (3, 1)]
        # batch 0 really did finish after the others
        assert out[0][2] > max(done for _, _, done in out[1:])

    @pytest.mark.parametrize("cpus, shots, workers", [
        (8, 3 * BATCH_SHOTS, 3),
        (2, 5 * BATCH_SHOTS, 2),
        (8, BATCH_SHOTS, 0),
        (1, 5 * BATCH_SHOTS, 0),
    ])
    def test_pool_size_is_min_of_cpus_and_batches(self, monkeypatch, cpus, shots, workers):
        pools = []

        class Recording(mc.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(mc, "_cpus", lambda: cpus)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", Recording)
        threads = set()

        def draw(rng, size):
            threads.add(threading.get_ident())
            return size

        assert sum(mc._map_batches(0, shots, draw)) == shots
        if workers:
            assert pools == [workers] and len(threads) <= workers
        else:
            # inline: no pool, every batch on the calling thread
            assert pools == [] and threads == {threading.get_ident()}

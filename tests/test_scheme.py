import itertools
import math
import operator
import re
import sys
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp
from scipy import stats as ss

from readout_tradeoff import cli, dist, scheme
from readout_tradeoff.decay import DecayModelParams, decaying_poisson, decaying_poisson_moments
from readout_tradeoff.dist import (
    DiscreteDist,
    DomainError,
    RateParams,
    convolve,
    moments,
    n_fold_convolve,
    point_mass,
    poisson_pmf,
    tail_ge,
    tv_distance,
)
from readout_tradeoff.gates import (
    Compilation,
    GateNoise,
    cascade_dist,
    compiled_dist,
    flat_dist,
    outcome_moments,
    point_outcome,
)
from readout_tradeoff.montecarlo import McConfig, sample_full_scheme, sample_photon_counts
from readout_tradeoff.scheme import (
    WEIGHT_FLOOR,
    CompositeStats,
    SchemeConfig,
    compose,
    gaussian_scheme_snr,
    mi_optimal,
    peak_snr,
    scheme_snr,
    snr_direct,
    threshold_analytic,
    time_to_snr,
)
from tests._reference import (
    cascade_explicit,
    dense,
    float_decay_moments,
    golden_peak_snr,
    grid_peak_snr,
    moment_snr,
    power_fold,
    scipy_bounded_minimum,
    scipy_brent_root,
    term_by_term_mix,
)

RATES = RateParams(3.5, 14.0, 0.0041)
NO_DECAY = RateParams(3.5, 14.0, 0.0)
NOISE = GateNoise(0.01)


def ideal_snr(n, t, mu0=3.5, mu1=14.0):
    return 2.0 * (mu1 - mu0) * n * t / (math.sqrt(n * mu0 * t) + math.sqrt(n * mu1 * t))


_LAW = point_mass(1)
_CONFIG = SchemeConfig.noisy(2, RATES, NOISE)
# every library object an argument takes, given as something else, and the
# start of the message that names it: id -> (call, message)
_WRONG_TYPES = {
    "noisy": (lambda: SchemeConfig.noisy(2, (3.5, 14.0), NOISE), "rates must be a RateParams"),
    "ideal": (lambda: SchemeConfig.ideal(2, (3.5, 14.0)), "rates must be a RateParams"),
    "sample_photon_counts": (
        lambda: sample_photon_counts((3.5, 14.0), 1, 1.0, 10, 1),
        "rates must be a RateParams",
    ),
    "compiled_dist": (lambda: compiled_dist(3, 0.1), "noise must be a GateNoise"),
    "flat_dist": (lambda: flat_dist(3, 0.1), "noise must be a GateNoise"),
    "cascade_dist": (lambda: cascade_dist(3, 0.1), "noise must be a GateNoise"),
    "McConfig": (lambda: McConfig(10, 1, "x", 1.0), "scheme must be a SchemeConfig"),
    "tv_distance": (lambda: tv_distance(None, _LAW), "law must be a DiscreteDist"),
    "moments": (lambda: moments(None), "law must be a DiscreteDist"),
    "convolve": (lambda: convolve(_LAW, None), "law must be a DiscreteDist"),
    "n_fold_convolve": (lambda: n_fold_convolve(None, 2), "law must be a DiscreteDist"),
    "tail_ge": (lambda: tail_ge(None, 1.0), "law must be a DiscreteDist"),
    "mi_optimal": (lambda: mi_optimal(None), "stats must be a CompositeStats"),
    "CompositeStats.p0": (
        lambda: mi_optimal(CompositeStats(None, None, 1.0)),
        "p0 must be a DiscreteDist",
    ),
    "CompositeStats.p1": (lambda: CompositeStats(_LAW, None, 1.0), "p1 must be a DiscreteDist"),
    "snr_direct": (lambda: snr_direct(None), "stats must be a CompositeStats"),
    "threshold_analytic": (lambda: threshold_analytic(None, 2, 1.0), "rates must be a RateParams"),
    "compose": (lambda: compose(None, 1.0), "config must be a SchemeConfig"),
    "scheme_snr": (lambda: scheme_snr(None, 1.0), "config must be a SchemeConfig"),
    "peak_snr": (lambda: peak_snr("x"), "config must be a SchemeConfig"),
    "time_to_snr": (lambda: time_to_snr("x", 8), "config must be a SchemeConfig"),
    "decaying_poisson": (lambda: decaying_poisson(None), "params must be a DecayModelParams"),
    "decaying_poisson_moments": (
        lambda: decaying_poisson_moments(None),
        "params must be a DecayModelParams",
    ),
    "outcome_moments": (lambda: outcome_moments(None), "outcome law must be an OutcomeDist"),
    "sample_full_scheme": (lambda: sample_full_scheme(_CONFIG), "config must be a McConfig"),
}


class TestConfig:
    def test_noisy_requires_gate_noise(self):
        with pytest.raises(DomainError):
            SchemeConfig.noisy(2, RATES, 0.01)

    @pytest.mark.parametrize(
        "laws", [None, lambda t: (point_mass(0), point_mass(3))], ids=["no-laws", "callable"]
    )
    def test_rejects_missing_noise(self, laws):
        with pytest.raises(DomainError):
            SchemeConfig(2, rates=RATES, noise=None, single_laws=laws)

    # a field the tier never reads is refused, not dropped
    def test_gate_noise_scheme_refuses_single_laws(self):
        with pytest.raises(DomainError, match="^a GateNoise scheme reads no single_laws: "):
            SchemeConfig(3, rates=RATES, noise=GateNoise(0.01), single_laws=_injected_laws)

    @pytest.mark.parametrize("rates", [RATES, "junk"], ids=["rates", "junk"])
    def test_injected_scheme_refuses_rates(self, rates):
        pair = (point_outcome(3, 3), point_outcome(3, 3))
        with pytest.raises(DomainError, match="^an injected scheme reads no rates: "):
            SchemeConfig(3, rates=rates, noise=pair, single_laws=_injected_laws)

    def test_ideal_requires_rates(self):
        with pytest.raises(DomainError):
            SchemeConfig.ideal(2, None)

    @pytest.mark.parametrize("call, message", _WRONG_TYPES.values(), ids=_WRONG_TYPES)
    def test_rates_of_the_wrong_type(self, call, message):
        with pytest.raises(DomainError, match=f"^{message} instance$"):
            call()

    def test_fields_are_frozen(self):
        cfg = SchemeConfig.noisy(2, RATES, NOISE)
        with pytest.raises(FrozenInstanceError):
            cfg.noise = GateNoise(0.5)

    def test_outcomes_are_no_field(self):
        cfg = SchemeConfig.noisy(2, RATES, NOISE)
        assert cfg.outcomes[1].probs[2] == compiled_dist(2, NOISE).probs[2]
        assert cfg == SchemeConfig.noisy(2, RATES, NOISE)
        assert "outcomes" not in repr(cfg)

    def test_outcome_laws_built_once_per_config(self, monkeypatch):
        calls = []

        def counted(n, noise):
            calls.append(n)
            return compiled_dist(n, noise)

        monkeypatch.setattr(scheme, "compiled_dist", counted)
        cfg = SchemeConfig.noisy(13, RATES, NOISE)
        peak_snr(cfg)
        time_to_snr(cfg, 8.0)
        compose(cfg, 2.0)
        assert len(calls) <= 1

    def test_outcome_moments_once_per_config(self, monkeypatch):
        calls = []

        def counted(t):
            calls.append(t)
            return outcome_moments(t)

        monkeypatch.setattr(scheme, "outcome_moments", counted)
        cfg = SchemeConfig.noisy(13, RATES, NOISE)
        peak_snr(cfg)
        time_to_snr(cfg, 8.0)
        assert len(calls) <= 2

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

    @pytest.mark.parametrize("t", [755.0, 1e3])
    def test_envelope_edge(self, t):
        # bright means of 6.8e5 and 9e5: log-space Poisson terms summed past
        # DiscreteDist's mass check here, and compose raised
        stats = compose(SchemeConfig.ideal(64, NO_DECAY), t)
        for law, rate in ((stats.p0, 3.5), (stats.p1, 14.0)):
            assert abs(law.masses.sum() + law.truncation_loss - 1.0) <= 1e-12
            assert moments(law)[0] == pytest.approx(64 * rate * t, rel=1e-12)


class TestNoisyComposite:
    def test_noise_free_limits_reduce_to_ideal(self):
        clean = SchemeConfig.noisy(3, RateParams(3.5, 14.0, 0.0), GateNoise(0.0))
        ideal = SchemeConfig.ideal(3, RateParams(3.5, 14.0))
        a, b = compose(clean, 1.5), compose(ideal, 1.5)
        assert tv_distance(a.p0, b.p0) < 1e-12
        assert tv_distance(a.p1, b.p1) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("t", [0.0, 0.5, 20.0])
    def test_noise_free_noisy_model_composes_as_ideal(self, n, t):
        clean = compose(SchemeConfig.noisy(n, RateParams(3.5, 14, 0), GateNoise(0)), t)
        ideal = compose(SchemeConfig.ideal(n, RateParams(3.5, 14, 0)), t)
        for a, b in ((clean.p0, ideal.p0), (clean.p1, ideal.p1)):
            assert a.offset == b.offset
            assert a.truncation_loss == b.truncation_loss
            np.testing.assert_array_equal(a.masses, b.masses)

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

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_closed_form_mean_that_overflows_is_refused_as_poisson_pmf_refuses_it(self, lam):
        # the dark law's 4-fold power, Pois(4 * mu0 * t), has a mean past the
        # largest float: its pair is checked as poisson_pmf checks a mean
        cfg = SchemeConfig.noisy(4, RateParams(1e307, 1e308, lam), GateNoise(0.01))
        with pytest.raises(DomainError, match="^poisson mean must be finite and non-negative, got inf$"):
            compose(cfg, 100.0)


# every entry that evaluates an injected scheme's single_laws, as a call on the scheme
_INJECTED_CALLS = {
    "compose": lambda cfg: compose(cfg, 1.0),
    "scheme_snr": lambda cfg: scheme_snr(cfg, 1.0),
    "peak_snr": peak_snr,
    "time_to_snr": lambda cfg: time_to_snr(cfg, 4.0),
}


class TestInjected:
    def test_symmetric_two_sided_mixture(self):
        # fair coin between keeping and flipping both qubits, point-mass laws
        coin = [0.5, 0.0, 0.5]
        cfg = SchemeConfig.injected(2, (coin, coin), lambda t: (point_mass(1), point_mass(5)))
        stats = compose(cfg, 1.0)
        assert stats.p1.pmf(10) == pytest.approx(0.5)
        assert stats.p1.pmf(2) == pytest.approx(0.5)
        assert stats.p0.pmf(2) == pytest.approx(0.5)
        assert stats.p0.pmf(10) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "laws", [5, None, (point_mass(0),) * 3], ids=["number", "none", "three-laws"]
    )
    @pytest.mark.parametrize("call", _INJECTED_CALLS.values(), ids=_INJECTED_CALLS)
    def test_laws_other_than_a_pair_are_refused(self, laws, call):
        cfg = SchemeConfig.injected(2, ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]), lambda t: laws)
        message = r"^single_laws must return a \(law0, law1\) pair, got .* at t=[0-9.e+-]+ ms$"
        with pytest.raises(DomainError, match=message):
            call(cfg)

    @pytest.mark.parametrize(
        "laws", [(poisson_pmf(1.0), "x"), ("x", poisson_pmf(1.0))], ids=["second", "first"]
    )
    @pytest.mark.parametrize("call", _INJECTED_CALLS.values(), ids=_INJECTED_CALLS)
    def test_a_pair_holding_no_law_is_refused(self, laws, call):
        cfg = SchemeConfig.injected(2, (point_outcome(2, 2), [0.1, 0.2, 0.7]), lambda t: laws)
        with pytest.raises(DomainError, match="^law must be a DiscreteDist instance$"):
            call(cfg)

    def test_an_error_of_single_laws_is_its_own(self):
        def laws(t):
            raise KeyError(t)

        cfg = SchemeConfig.injected(2, ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]), laws)
        with pytest.raises(KeyError):
            compose(cfg, 1.0)
        with pytest.raises(KeyError):
            scheme_snr(cfg, 1.0)

    def test_tabulated_laws_rejected_at_construction(self):
        with pytest.raises(DomainError):
            SchemeConfig.injected(
                2,
                ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
                single_laws={1.0: (point_mass(0), point_mass(3))},
            )


def _laws_by_term(cfg, t):
    """Both composite laws of a noisy or injected scheme, mixed term by term."""
    n = cfg.n_qubits
    if not isinstance(cfg.noise, GateNoise):
        law0, law1 = _injected_laws(t)
        dark, bright = power_fold(law0), power_fold(law1)
        t0, t1 = cfg.noise
    else:
        def dark(q):
            return poisson_pmf(q * cfg.rates.mu0 * t)

        # Without decay the bright law is the plain Poisson law. A Horner step
        # convolves by it, so its powers here are convolution powers as well.
        if cfg.rates.lam == 0.0:
            bright = power_fold(poisson_pmf(cfg.rates.mu1 * t))
        else:
            bright = power_fold(decaying_poisson(DecayModelParams(cfg.rates, t)))
        t0, t1 = point_outcome(n, n), compiled_dist(n, cfg.noise)
    return (
        term_by_term_mix(t0.probs, dark, bright, WEIGHT_FLOOR),
        term_by_term_mix(t1.probs, bright, dark, WEIGHT_FLOOR),
    )


def _injected_laws(t):
    return poisson_pmf(RATES.mu0 * t), decaying_poisson(DecayModelParams(RATES, t))


def _tiers(n):
    return {
        "cascade": SchemeConfig.noisy(n, RATES, NOISE),
        "flat": SchemeConfig.noisy(n, RATES, GateNoise(0.01, Compilation.FLAT)),
        "injected": SchemeConfig.injected(
            n, (flat_dist(n, GateNoise(0.2)), cascade_dist(n, GateNoise(0.05))), _injected_laws
        ),
        "no-decay": SchemeConfig.noisy(n, NO_DECAY, NOISE),
    }


def _top_below_n(n):
    # flat gates at p = 0.6 keep no outcome past q = 37 at n = 64, so the top
    # block of a blocked law ends below n on both sides
    return SchemeConfig.injected(n, (flat_dist(n, GateNoise(0.6)),) * 2, _injected_laws)


def _horner_steps_and_convolutions(cfg, t, monkeypatch):
    """Horner steps of both laws of cfg at t, and the convolutions compose ran."""
    calls = [0]

    def counted(fn, convolutions):
        def wrapper(*args):
            calls[0] += convolutions(*args)
            return fn(*args)

        return wrapper

    # every convolution, in compose or in a fold, runs one of these two; each
    # row of a batched call is one convolution
    for module in (dist, scheme):
        for name, convolutions in (
            ("_convolve_masses", lambda a, b: 1),
            ("_convolve_rows_by_cost", lambda rows, b: len(rows)),
        ):
            monkeypatch.setattr(module, name, counted(getattr(module, name), convolutions))
    compose(cfg, t)
    steps = sum(max(q for q, w in enumerate(o.probs) if w >= WEIGHT_FLOOR) for o in cfg.outcomes)
    return steps, calls[0]


class TestHornerCompose:
    """compose's Horner evaluation against the term-by-term mixture."""

    @pytest.mark.parametrize("tier", ["cascade", "flat", "injected", "no-decay"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0, 20.0])
    def test_matches_term_by_term_mixture(self, tier, n, t, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("a law at paper scale reached numpy.fft")

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, no_fft)
        cfg = _tiers(n)[tier]
        stats = compose(cfg, t)
        for got, ref in zip((stats.p0, stats.p1), _laws_by_term(cfg, t)):
            assert (got.offset, got.masses.size) == (ref.offset, ref.masses.size)
            # every convolution of this law stayed on the direct path
            assert got.masses.size <= dist.DIRECT_CONV_LIMIT
            scale = np.maximum(got.masses, ref.masses)
            live = scale >= 1e-300
            rel = np.abs(got.masses - ref.masses)[live] / scale[live]
            assert rel.max() <= 1e-13

    # (48, 5) is the case a pointwise power FFT(own)**size of the block step
    # pushed past the mi bound; (16, 100) and (64, 100) are envelope-laws' edges;
    # at (32, 60) and (48, 40) the in-block steps switch kernel part-way.
    @pytest.mark.parametrize(
        "n, t",
        [(48, 5.0), (64, 5.0), (32, 20.0), (64, 20.0), (16, 100.0), (64, 100.0), (32, 60.0),
         (48, 40.0)],
    )
    def test_fft_side_against_all_direct(self, n, t, monkeypatch):
        cfg = SchemeConfig.noisy(n, RATES, NOISE)
        got = compose(cfg, t)
        assert got.p1.masses.size > dist.DIRECT_CONV_LIMIT
        monkeypatch.setattr(dist, "DIRECT_CONV_LIMIT", 10**12)
        ref = compose(cfg, t)
        assert mi_optimal(got)[0] == pytest.approx(mi_optimal(ref)[0], rel=1e-13, abs=0.0)
        for a, b in ((got.p0, ref.p0), (got.p1, ref.p1)):
            assert (a.offset, a.masses.size) == (b.offset, b.masses.size)
            assert np.abs(a.masses - b.masses).max() <= 1e-16
            # mass accounting to the rounding of log-space Poisson terms
            k = max(a.k_max, 2)
            tol = max(1e-12, np.finfo(float).eps * k * math.log(k))
            assert abs(float(a.masses.sum()) + a.truncation_loss - 1.0) <= tol

    # top-below-n is the one case whose top block's factor other^(*(n - q_top))
    # is not a point mass
    @pytest.mark.parametrize(
        "n, t, top_below_n",
        [pytest.param(n, t, False, id=f"{n}-{t}") for n, t in [(32, 20.0), (64, 5.0), (64, 20.0), (64, 60.0)]]
        + [pytest.param(64, 20.0, True, id="top-below-n-64-20.0")],
    )
    def test_injected_fft_side_against_all_direct(self, n, t, top_below_n, monkeypatch):
        cfg = _top_below_n(n) if top_below_n else _tiers(n)["injected"]
        got = compose(cfg, t)
        assert got.p1.masses.size > dist.DIRECT_CONV_LIMIT
        monkeypatch.setattr(dist, "DIRECT_CONV_LIMIT", 10**12)
        ref = compose(cfg, t)
        assert mi_optimal(got)[0] == pytest.approx(mi_optimal(ref)[0], rel=1e-13, abs=0.0)
        for a, b in ((got.p0, ref.p0), (got.p1, ref.p1)):
            assert (a.offset, a.masses.size) == (b.offset, b.masses.size)
            assert np.abs(a.masses - b.masses).max() <= 1e-16

    def test_empty_blocks_against_all_direct(self, monkeypatch):
        # T1 keeps only q in {0, 1, 64}: seven of its nine blocks of 8 keep no term
        probs = np.zeros(65)
        probs[[0, 1, 64]] = 0.25, 0.25, 0.5
        cfg = SchemeConfig.injected(64, (probs[::-1], probs), _injected_laws)
        got = compose(cfg, 10.0)
        assert got.p0.masses.size > dist.DIRECT_CONV_LIMIT
        monkeypatch.setattr(dist, "DIRECT_CONV_LIMIT", 10**12)
        ref = compose(cfg, 10.0)
        assert mi_optimal(got)[0] == pytest.approx(mi_optimal(ref)[0], rel=1e-13, abs=0.0)
        for a, b in ((got.p0, ref.p0), (got.p1, ref.p1)):
            assert (a.offset, a.masses.size) == (b.offset, b.masses.size)
            assert np.abs(a.masses - b.masses).max() <= 1e-16

    def test_long_fold_priced_direct_is_exact(self, monkeypatch):
        # perfect gates leave one 33-fold law a side; its last fold product,
        # 141 x 4,481 points, is past DIRECT_CONV_LIMIT but priced direct, so
        # mi, 5.19e-70, is the all-direct law's, not FFT noise near 1e-16
        cfg = SchemeConfig.noisy(33, RATES, GateNoise(0.0))
        got = compose(cfg, 5.0)
        assert got.p1.masses.size > dist.DIRECT_CONV_LIMIT
        monkeypatch.setattr(dist, "DIRECT_CONV_LIMIT", 10**12)
        ref = compose(cfg, 5.0)
        assert mi_optimal(got) == mi_optimal(ref)
        for a, b in ((got.p0, ref.p0), (got.p1, ref.p1)):
            assert a.offset == b.offset and np.array_equal(a.masses, b.masses)

    def test_blocked_law_prices_its_kernels(self, monkeypatch):
        # Under the cost model two operands of 1,000 points or more always go
        # to the FFT: here the squarings of own^(*8), 1897 and 3793 points a
        # side, which DIRECT_CONV_LIMIT alone kept direct. own has 949 points
        # at t = 60, so an in-block step past 1e6 multiply-adds has a partial
        # sum of over 1,000 points, which the FFT also does faster.
        direct, original = [], np.convolve

        def recorded(a, b, *args):
            direct.append((a.size, b.size))
            return original(a, b, *args)

        monkeypatch.setattr(np, "convolve", recorded)
        compose(SchemeConfig.noisy(64, RATES, NOISE), 60.0)
        assert direct
        assert all(min(pair) < 1000 and math.prod(pair) <= 10**6 for pair in direct), direct

    def test_injected_other_side_is_a_running_product(self, monkeypatch):
        # each Horner step convolves once with the own law and extends the one
        # running product of the other law once; no power is squared up from scratch
        steps, calls = _horner_steps_and_convolutions(_tiers(10)["injected"], 2.0, monkeypatch)
        assert steps == 20
        assert calls <= 2 * steps, calls

    def test_injected_running_product_across_blocks(self, monkeypatch):
        # at n = 64 both laws are blocked in 9 blocks of up to 8; step j of every
        # block reads one shared other^(*j), so the other law's powers up to
        # other^(*7) cost 6 convolutions a side, not one a block step; own^(*8)
        # and the join's other^(*8) cost a few squarings
        steps, calls = _horner_steps_and_convolutions(_tiers(64)["injected"], 20.0, monkeypatch)
        assert steps == 128
        assert calls <= 1.25 * steps, calls

    def test_blocks_are_transformed_once(self, monkeypatch):
        # 65 outcomes in blocks of isqrt(65) = 8: one transform per block, one
        # of own^(*8) and one inverse at the finished law's length
        lengths, builds = [], [0]

        def counted(fn):
            def wrapper(x, n=None, *args, **kwargs):
                lengths.append(np.shape(x)[-1] if n is None else n)
                return fn(x, n, *args, **kwargs)

            return wrapper

        def decayed(params):
            builds[0] += 1
            return decaying_poisson(params)

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        monkeypatch.setattr(scheme, "decaying_poisson", decayed)
        got = compose(SchemeConfig.noisy(64, RATES, NOISE), 20.0)
        # a transform per Horner step would run about 100 at half length or more
        full = sum(2 * length >= got.p1.masses.size for length in lengths)
        assert 0 < full <= math.ceil(65 / math.isqrt(65)) + 2, full
        assert builds[0] == 1

    def test_lockstep_step_is_one_batched_transform(self, monkeypatch):
        # the 9 blocks of 8 step in lockstep: an FFT step stacks every running
        # sum and own into one rfft, then one irfft, not three per block
        steps, transforms = [], []
        batched = scheme._convolve_rows_by_cost

        def counted(fn):
            def wrapper(x, *args, **kwargs):
                transforms.append(np.shape(x))
                return fn(x, *args, **kwargs)

            return wrapper

        def step(rows, b):
            transforms.clear()
            out = batched(rows, b)
            steps.append((len(rows), list(transforms)))
            return out

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        monkeypatch.setattr(scheme, "_convolve_rows_by_cost", step)
        compose(SchemeConfig.noisy(64, RATES, NOISE), 20.0)
        fft_steps = [(rows, shapes) for rows, shapes in steps if rows == 8 and shapes]
        assert len(fft_steps) >= 5, steps
        for rows, (forward, inverse) in fft_steps:
            assert forward[0] == rows + 1 and inverse[0] == rows, steps
        # every call, the squarings of own^(*8) too, makes at most one of each
        assert all(len(shapes) in (0, 2) for _, shapes in steps), steps

    @pytest.mark.parametrize("t, top_below_n", [(20.0, False), (60.0, False), (20.0, True)])
    def test_injected_folds_only_the_join_factors(self, t, top_below_n, monkeypatch):
        # the blocks share one running product of the other law, so per side
        # n_fold_convolve folds it only for the join's factors, each once, from
        # the top block down: other^(*(n - q_top)), a point mass where q_top = n,
        # then other^(*(q_top % size + 1)) and other^(*size)
        cfg = _top_below_n(64) if top_below_n else _tiers(64)["injected"]
        folds = {}
        original = scheme.n_fold_convolve

        def recorded(law, q):
            folds.setdefault(id(law), []).append(q)
            return original(law, q)

        monkeypatch.setattr(scheme, "n_fold_convolve", recorded)
        got = compose(cfg, t)
        assert min(got.p0.masses.size, got.p1.masses.size) > dist.DIRECT_CONV_LIMIT
        factors = []
        for outcomes in cfg.outcomes:
            q_top = max(q for q, w in enumerate(outcomes.probs) if w >= WEIGHT_FLOOR)
            size = math.isqrt(q_top + 1)
            gaps = (64 - q_top, q_top % size + 1, size)
            factors.append(list(dict.fromkeys(gap for gap in gaps if gap)))
        assert sorted(folds.values()) == sorted(factors), folds

    @pytest.mark.parametrize("t", [20.0, 60.0])
    def test_injected_blocked_law_peak_memory(self, t):
        # the other law's one running product and the join's three factors are
        # all that compose holds of its powers: it peaks at about 2.1 MB at
        # t = 20 and 4.4 MB at t = 60, where a running product per block
        # peaked at 3.5 and 8.0 MB
        cfg = _tiers(64)["injected"]
        tracemalloc.start()
        try:
            compose(cfg, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < {20.0: 3e6, 60.0: 6e6}[t], peak

    @pytest.mark.parametrize("p, builds", [(1.0, 0), (0.01, 1)])
    def test_decayed_law_built_on_first_fold(self, p, builds, monkeypatch):
        calls = [0]
        original = scheme.decaying_poisson

        def counted(params):
            calls[0] += 1
            return original(params)

        monkeypatch.setattr(scheme, "decaying_poisson", counted)
        compose(SchemeConfig.noisy(8, RATES, GateNoise(p)), 20.0)
        assert calls[0] == builds

    def test_no_decay_never_builds_the_decayed_law(self, monkeypatch):
        # at lam = 0 the bright law is Poisson, whatever the gates do
        def unused(params):
            raise AssertionError("a scheme without decay built the decayed law")

        monkeypatch.setattr(scheme, "decaying_poisson", unused)
        stats = compose(SchemeConfig.noisy(8, NO_DECAY, NOISE), 20.0)
        assert stats.p1.k_max > 14.0 * 8 * 20.0

    def test_moment_route_at_envelope_edge(self):
        cfg = SchemeConfig.noisy(64, RATES, NOISE)
        assert scheme_snr(cfg, 100.0) == pytest.approx(snr_direct(compose(cfg, 100.0)), rel=1e-9)


class TestMaxSupport:
    """A law past MAX_SUPPORT counts is a DomainError naming its span, raised before it is laid out."""

    @pytest.mark.parametrize(
        "build, args, span",
        [
            (decaying_poisson, lambda: (DecayModelParams(RATES, 1e5),), "decayed law support 345732..1408560"),
            (
                decaying_poisson,
                lambda: (DecayModelParams(RateParams(3.5, 1e8, 0.0041), 1.0),),
                "decayed law support 0..100072264",
            ),
            (n_fold_convolve, lambda: (poisson_pmf(3.0), 10**6), "1000000-fold law support 0..24000000"),
            # the decayed law of 3.2e5 counts is built, its 64-fold power is not
            (
                compose,
                lambda: (SchemeConfig.noisy(64, RATES, NOISE), 3e4),
                "64-fold law support 6570560..27180352",
            ),
            (
                convolve,
                lambda: 2 * (DiscreteDist(0, np.full(600_000, 1 / 600_000)),),
                "convolved law support 0..1199998",
            ),
        ],
        ids=["decayed-long-window", "decayed-bright-rate", "n-fold", "compose", "convolve"],
    )
    def test_refused_before_it_is_laid_out(self, build, args, span):
        # the arguments are built before tracing starts: only the refused call is traced
        args = args()
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"^{re.escape(span)} spans more than 1000000 counts$"):
                build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lo, hi = map(int, span.rsplit(" ", 1)[1].split(".."))
        assert peak < 8 * (hi - lo + 1)  # less than the refused law's masses

    def test_running_product_is_checked(self):
        # the other side's powers grow one convolution at a time past the limit
        wide = np.zeros(250_001)
        wide[[0, -1]] = 0.5
        laws = (point_mass(0), DiscreteDist(0, wide))
        cfg = SchemeConfig.injected(4, (np.full(5, 0.2), [0, 0, 0, 0, 1.0]), lambda t: laws)
        with pytest.raises(DomainError, match=r"^convolved law support 0\.\.1000000 spans more than"):
            compose(cfg, 1.0)

    # T0 puts w on q = 0, whose term is the bright law's 4-fold power, and the
    # rest on q = 4. The bright law holds 1 + 0.9e-9, within the rule, and its
    # square 1 + 1.8e-9, past it. At w = 0.9 only the running product's own
    # mass rule names 1.0000000018: without it the mixture would sum to
    # 1 + 3.24e-9. At w = 0.1 the bright side's 4-fold power names it too.
    @pytest.mark.parametrize("w", [0.5, 0.1, 0.9], ids=["even", "diluted", "dominant"])
    def test_running_product_keeps_the_mass_rule(self, w):
        laws = (point_mass(0), DiscreteDist(0, [0.5, 0.5 + 0.9e-9]))
        cfg = SchemeConfig.injected(4, ([w, 0, 0, 0, 1.0 - w], [0, 0, 0, 0, 1.0]), lambda t: laws)
        with pytest.raises(DomainError, match=r"^masses must sum to at most one, got 1\.0000000018$"):
            compose(cfg, 1.0)

    @staticmethod
    def far_apart(gap):
        # T0 spread evenly over q, T1 all on q = 64, and point-mass laws gap
        # counts apart: T0's law holds one point every gap counts up to 64 * gap
        laws = (point_mass(0), point_mass(gap))
        return SchemeConfig.injected(64, (np.full(65, 1 / 65), [0] * 64 + [1.0]), lambda t: laws)

    def test_horner_join_is_checked(self):
        # the sum steps down in q, and its term at q = 30 is the first past the limit
        with pytest.raises(DomainError, match=r"^composite law support 0\.\.1020000 spans more than"):
            compose(self.far_apart(30_000), 1.0)

    def test_far_apart_law_just_under_the_limit(self):
        cfg = self.far_apart(15_624)
        stats = compose(cfg, 1.0)
        assert stats.p0.masses.size == 64 * 15_624 + 1 == dist.MAX_SUPPORT - 63
        laws = [power_fold(law) for law in cfg.single_laws(1.0)]
        t0, t1 = cfg.outcomes
        refs = (term_by_term_mix(t0.probs, *laws, WEIGHT_FLOOR),
                term_by_term_mix(t1.probs, *laws[::-1], WEIGHT_FLOOR))
        for got, ref in zip((stats.p0, stats.p1), refs):
            assert (got.offset, got.masses.size) == (ref.offset, ref.masses.size)
            scale = np.maximum(got.masses, ref.masses)
            live = scale >= 1e-300
            assert (np.abs(got.masses - ref.masses)[live] / scale[live]).max() <= 1e-13

    @pytest.mark.parametrize("comp", list(Compilation), ids=lambda c: c.value)
    def test_envelope_edge_is_composed(self, comp):
        stats = compose(SchemeConfig.noisy(64, RATES, GateNoise(0.01, comp)), 1e3)
        assert stats.p1.masses.size == 754_305 < dist.MAX_SUPPORT


class TestSnr:
    def test_identical_laws_give_zero(self):
        stats = CompositeStats(poisson_pmf(5.0), poisson_pmf(5.0), 1.0)
        assert snr_direct(stats) == 0.0

    def test_distinct_point_masses_give_infinity(self):
        stats = CompositeStats(point_mass(0), point_mass(5), 1.0)
        assert snr_direct(stats) == math.inf

    def test_moment_formula_collapses_for_trivial_gates(self):
        # all qubits nominal: the general expression is the plain ratio
        perfect = (point_outcome(2, 2), point_outcome(2, 2))
        q_moments = tuple(map(outcome_moments, perfect))
        got = scheme._snr_kernel(q_moments, 2, lambda t: (3.5, 3.5, 14.0, 14.0))(1.0)
        assert got == pytest.approx(ideal_snr(2, 1.0), rel=1e-12)

    def test_rejects_non_finite_moments(self):
        perfect = (point_outcome(2, 2), point_outcome(2, 2))
        q_moments = tuple(map(outcome_moments, perfect))
        kernel = scheme._snr_kernel(q_moments, 2, lambda t: (math.nan, 1.0, 14.0, 14.0))
        with pytest.raises(DomainError, match=r"^count moments are not finite at window length t=1\.0 ms$"):
            kernel(1.0)


class TestOverfullOutcomeLaw:
    """An outcome law may sum to just over 1: OutcomeDist allows 1e-12.

    T0 on q = n with mass 1 + 5e-13 makes (n - E[Q0]) * Var[bright] round
    below 0, where the variance is 0 for the exact law."""

    N = 4

    def _cfg(self, top):
        t0 = [0.0] * self.N + [top]
        t1 = [0.0, 0.0, 0.5, 0.0, 0.5]
        return SchemeConfig.injected(self.N, (t0, t1), lambda t: (point_mass(0), poisson_pmf(14.0 * t)))

    def test_matches_the_exact_law(self):
        over, exact = self._cfg(1.0 + 5e-13), self._cfg(1.0)
        assert scheme_snr(over, 1.0) == pytest.approx(scheme_snr(exact, 1.0), rel=1e-9)
        ts = [0.0, 1e-3, 1.0, 37.0]
        np.testing.assert_allclose(
            [scheme_snr(over, t) for t in ts], [scheme_snr(exact, t) for t in ts], rtol=1e-9
        )
        assert peak_snr(over) == pytest.approx(peak_snr(exact), rel=1e-9)
        assert time_to_snr(over, 2.0) == pytest.approx(time_to_snr(exact, 2.0), rel=1e-9)


class TestPeakGrid:
    """peak_snr and time_to_snr scan one constant grid of floats: a GateNoise scheme
    in one array pass over its rates' moment table, an injected one with its kernel."""

    def test_peak_grid_is_one_scan(self, monkeypatch):
        # one scan of the grid, then every solver step a float scheme_snr call
        passes, windows, calls = [], [], []
        on_grid, kernel, float_snr = scheme._snr_on_grid, scheme._snr_kernel, scheme.scheme_snr

        def counted_pass(q_moments, n, table):
            passes.append(table)
            return on_grid(q_moments, n, table)

        def counted_kernel(*args):
            snr = kernel(*args)
            return lambda t: windows.append(t) or snr(t)

        def counted(config, t):
            calls.append(type(t))
            return float_snr(config, t)

        # n = 1's grid maximum, 9.18459, lies below 9.1865 and its refined peak,
        # 9.18833, above: time_to_snr refines the peak from its one grid pass
        probe = SchemeConfig.noisy(1, RATES, NOISE)  # its kernel is bound before the counters
        assert max(scheme_snr(probe, t) for t in scheme._PEAK_GRID) < 9.1865 < peak_snr(probe)[0]
        monkeypatch.setattr(scheme, "_snr_on_grid", counted_pass)
        monkeypatch.setattr(scheme, "_snr_kernel", counted_kernel)
        monkeypatch.setattr(scheme, "scheme_snr", counted)
        rows = (
            (SchemeConfig.noisy(5, RATES, NOISE), 8.0),
            (SchemeConfig.noisy(1, RATES, NOISE), 9.1865),
            (_tiers(3)["injected"], 1.5),
        )
        for cfg, target in rows:
            passes.clear()
            windows.clear()
            calls.clear()
            assert time_to_snr(cfg, target) is not None
            if isinstance(cfg.noise, GateNoise):
                # the kernel runs the solver's steps alone
                assert len(passes) == 1 and passes[0] is scheme._peak_moments(RATES)
                assert len(windows) == len(calls)
            else:
                assert passes == []
                assert windows[: scheme.PEAK_GRID_POINTS] == list(scheme._PEAK_GRID)
                assert len(windows) == scheme.PEAK_GRID_POINTS + len(calls)
            assert calls and set(calls) == {float}

    def test_peak_grid_is_a_read_only_constant(self, monkeypatch):
        # every scan reads the module's own grid of floats, never a rebuilt one,
        # through one read-only moment table per rates
        grid = scheme._PEAK_GRID
        assert isinstance(grid, tuple) and all(type(t) is float for t in grid)
        assert grid == tuple(np.geomspace(*scheme.PEAK_BRACKET, scheme.PEAK_GRID_POINTS).tolist())
        scheme._peak_moments.cache_clear()
        windows, tables = [], []
        moments_at, on_grid = scheme._moments_at, scheme._snr_on_grid

        def counted(rates):
            at = moments_at(rates)
            return lambda t: windows.append(t) or at(t)

        monkeypatch.setattr(scheme, "_moments_at", counted)
        monkeypatch.setattr(scheme, "_snr_on_grid", lambda *args: tables.append(args[2]) or on_grid(*args))
        for n in (3, 5):
            peak_snr(SchemeConfig.noisy(n, RATES, NOISE))
        assert len(windows) > len(grid) and all(map(operator.is_, windows, grid))
        table = scheme._peak_moments(RATES)
        assert len(tables) == 2 and all(t is table for t in tables)
        assert table.shape == (4, len(grid)) and not table.flags.writeable
        assert np.array_equal(table, np.array([moments_at(RATES)(t) for t in grid]).T)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


def _bits(call):
    """call()'s float, or tuple of floats, in hex, or None; or the message of the DomainError it raises."""
    try:
        out = call()
    except DomainError as exc:
        return str(exc)
    if out is None:
        return None
    return tuple(x.hex() for x in out) if isinstance(out, tuple) else out.hex()


class TestMomentKernel:
    """The per-scheme kernel equals the moment route in one function per step, bit for bit."""

    @settings(max_examples=60, deadline=None)
    # a decay rate so small that the bright variance overflows at lam*t = 1/2
    @example(3, 0.01, Compilation.CASCADE, [3.5, 14.0], 1e-300, [1.0])
    @given(
        st.integers(1, 64),
        st.floats(0.0, 1.0),
        st.sampled_from(list(Compilation)),
        st.lists(st.floats(0.0, 1e4), min_size=2, max_size=2).map(sorted),
        st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
        st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
    )
    def test_equals_the_transcription(self, n, p, compilation, mus, lam, xs):
        rates = RateParams(*mus, lam)
        cfg = SchemeConfig.noisy(n, rates, GateNoise(p, compilation))
        # windows at lam*t = x, on both sides of 1/2, where the variance shape switches form
        half = 0.5 / lam if lam > 0.0 else 1.0
        ts = [0.0, 5e-324, math.nextafter(half, 0.0), half, *(2.0 * half * x for x in xs)]
        ts = [t for t in ts if math.isfinite(t)]

        def want(t):
            dark = rates.mu0 * t
            return moment_snr(cfg.q_moments, (dark, dark), float_decay_moments(rates, t), n, t)

        wants = [_bits(lambda: want(t)) for t in ts]
        assert [_bits(lambda: scheme_snr(cfg, t)) for t in ts] == wants
        assert [_bits(lambda: decaying_poisson_moments(DecayModelParams(rates, t))) for t in ts] == [
            _bits(lambda: float_decay_moments(rates, t)) for t in ts
        ]


# peak-grid windows where a scan's moments or variances overflow: n, p, rates, and the error
_GRID_OVERFLOWS = [
    # the bright variance overflows at the grid's first window
    pytest.param(1, 0.0, RateParams(0.0, 1e306, 0.5), "count moments overflow", id="moments-first-window"),
    # and mid-grid, past t = 134 ms
    pytest.param(3, 0.01, RateParams(0.0, 1e152, 1e-3), "count moments overflow", id="moments-mid-grid"),
    # the moments stay finite, the gap squared does not: the table is complete
    pytest.param(3, 0.01, RateParams(0.0, 1e152, 0.0), "count moments are not finite", id="kernel"),
    # the gap squared times Var[Q1] overflows windows below the moments
    pytest.param(
        64, 0.5, RateParams(0.0, 1e152, 1e-3), "count moments are not finite", id="kernel-below-moments"
    ),
]


class TestSnrOnGrid:
    """_snr_on_grid is the scalar kernel on arrays: the kernel's value at every
    window of a moment table, bit for bit, or None where the kernel raises."""

    # a window's single-qubit moments, beside those the rates give: signed zeros,
    # point masses (a distinct pair without spread reads inf) and overflowing values
    _MOMENT = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(allow_nan=False, allow_infinity=False)

    @settings(max_examples=100, deadline=None)
    # perfect gates, whose point masses 0 and 1 read inf; every gate failing reads 0
    @example(5, None, 0.0, Compilation.CASCADE, 3.5, 10.5, 0.0041, [(0.0, 0.0, 1.0, 0.0)])
    @example(5, None, 1.0, Compilation.FLAT, 3.5, 10.5, 0.0041, [(0.0, 0.0, 1.0, 0.0)])
    # equal rates, and a dark rate of -0.0
    @example(3, None, 0.01, Compilation.CASCADE, 14.0, 0.0, 0.0041, [])
    @example(3, 0.2, 0.01, Compilation.FLAT, -0.0, 14.0, 0.0, [(-0.0, -0.0, 0.0, -0.0)])
    # a dark variance so large that var0 overflows where var1 does not
    @example(5, 0.0, 0.0, Compilation.CASCADE, 3.5, 10.5, 0.0041, [(0.0, 1e308, 1.0, 1.0)])
    @given(
        st.integers(1, 64),
        # T0: a GateNoise scheme's all-dark point law (None), or an injected flat law
        st.none() | st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        st.sampled_from(list(Compilation)),
        st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e4),
        st.sampled_from([0.0]) | st.floats(0.0, 1e4),
        st.sampled_from([0.0]) | st.floats(0.0, 1e3),
        st.lists(st.tuples(_MOMENT, _MOMENT, _MOMENT, _MOMENT), max_size=4),
    )
    def test_equals_the_kernel(self, n, p0, p, compilation, mu0, gap, lam, extra):
        t0 = point_outcome(n, n) if p0 is None else flat_dist(n, GateNoise(p0))
        q_moments = outcome_moments(t0), outcome_moments(compiled_dist(n, GateNoise(p, compilation)))
        ts = (0.0, 5e-324, *scheme._PEAK_GRID)
        table = scheme._moment_table(RateParams(mu0, mu0 + gap, lam), ts)
        assert table is not None and table.shape == (4, len(ts))
        table = np.concatenate((table, np.array(extra).reshape(-1, 4).T), axis=1)
        columns = table.T.tolist()
        kernel = scheme._snr_kernel(q_moments, n, columns.__getitem__)
        wants = [_bits(lambda: kernel(i)) for i in range(len(columns))]
        got = scheme._snr_on_grid(q_moments, n, table)
        if any(want.startswith("count moments") for want in wants):
            assert got is None
        else:
            assert [x.hex() for x in got] == wants


class TestPeakTable:
    """peak_snr's scan over the grid moments of its rates equals the scan of one
    scheme_snr call per window (the array scan before it), bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 64),
        st.floats(0.0, 1.0),
        st.sampled_from(list(Compilation)),
        st.lists(st.floats(0.0, 1e4), min_size=2, max_size=2).map(sorted),
        st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    )
    # SNRs near 1e-160: time_to_snr's root search bisects where its denominators underflow
    @example(1, 0.0, Compilation.FLAT, [0.0, 5e-324], 1.401298464324817e-45)
    def test_equals_the_array_scan(self, n, p, compilation, mus, lam):
        cfg = SchemeConfig.noisy(n, RateParams(*mus, lam), GateNoise(p, compilation))
        want = _bits(lambda: grid_peak_snr(cfg))
        # the first scan with these rates may build the table, the second reads it
        assert [_bits(lambda: peak_snr(cfg)) for _ in range(2)] == [want, want]
        s_max = grid_peak_snr(cfg)[0]
        targets = [2.0, 8.0] + ([0.999 * s_max] if 0.0 < s_max < math.inf else [])
        with mock.patch.object(scheme, "peak_snr", grid_peak_snr):
            wants = [_bits(lambda: time_to_snr(cfg, s)) for s in targets]
        assert [_bits(lambda: time_to_snr(cfg, s)) for s in targets] == wants

    @pytest.mark.parametrize("n, p, rates, kind", _GRID_OVERFLOWS)
    def test_grid_overflow_raises_the_array_scan_error(self, n, p, rates, kind):
        scheme._peak_moments.cache_clear()
        # a second scheme with the same rates, scanned after the raise, raises it too
        for _ in range(2):
            cfg = SchemeConfig.noisy(n, rates, GateNoise(p))
            with pytest.raises(DomainError, match=f"^{kind} at window length t=") as want:
                grid_peak_snr(cfg)
            with pytest.raises(DomainError) as got:
                peak_snr(cfg)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n, p, rates, kind", _GRID_OVERFLOWS)
    def test_grid_overflow_through_snr_sweep(self, capsys, n, p, rates, kind):
        # rt snr-sweep over the peak grid names the window the scalar scan names
        cfg = SchemeConfig.noisy(n, rates, GateNoise(p))
        with pytest.raises(DomainError, match=f"^{kind} at window length t=") as want:
            [scheme_snr(cfg, t) for t in scheme._PEAK_GRID]
        rate_args = ["--mu0", repr(rates.mu0), "--mu1", repr(rates.mu1), "--lambda", repr(rates.lam)]
        grid_args = ["--t-start", "1e-3", "--t-stop", "1e3", "--t-points", str(scheme.PEAK_GRID_POINTS)]
        code = cli.main(["snr-sweep", *rate_args, "--p", repr(p), "--n-min", str(n), "--n-max", str(n), *grid_args])
        assert (code, capsys.readouterr()) == (1, ("", f"error: {want.value}\n"))

    def test_signed_zero_rates_share_a_table(self):
        scheme._peak_moments.cache_clear()
        plus, minus = RateParams(0.0, 14.0, 0.0041), RateParams(-0.0, 14.0, 0.0041)
        assert plus == minus and math.copysign(1.0, minus.mu0) == -1.0
        peak_snr(SchemeConfig.noisy(5, plus, NOISE))
        cfg = SchemeConfig.noisy(5, minus, NOISE)
        assert _bits(lambda: peak_snr(cfg)) == _bits(lambda: grid_peak_snr(cfg))
        assert scheme._peak_moments.cache_info().hits == 1

    def test_grid_moments_are_computed_once_per_rates(self, monkeypatch):
        scheme._peak_moments.cache_clear()
        grid = set(scheme._PEAK_GRID)
        windows = []
        moments_at = scheme._moments_at

        def counted(rates):
            at = moments_at(rates)
            return lambda t: windows.append(t) or at(t)

        def grid_windows():
            out = sorted(t for t in windows if t in grid)
            windows.clear()
            return out

        monkeypatch.setattr(scheme, "_moments_at", counted)
        peak_snr(SchemeConfig.noisy(3, RateParams(3.5, 14.0, 0.0041), NOISE))
        assert grid_windows() == sorted(grid)
        # equal rates, another object and another scheme: Brent's steps only
        peak_snr(SchemeConfig.noisy(5, RateParams(3.5, 14.0, 0.0041), GateNoise(0.2)))
        assert windows and grid_windows() == []
        peak_snr(SchemeConfig.noisy(5, RateParams(3.5, 14.0, 0.0042), NOISE))
        assert grid_windows() == sorted(grid)


class TestMiOptimal:
    def test_separated_point_masses(self):
        stats = CompositeStats(point_mass(0), point_mass(5), 1.0)
        mi, eta = mi_optimal(stats)
        assert mi == 0.0
        assert eta == 1.0  # smallest threshold among the ties

    @pytest.mark.parametrize("dark_below", [True, False], ids=["dark-below", "dark-above"])
    def test_laws_far_apart(self, dark_below):
        # laid out densely, the 1e12 empty counts between the laws would take 8 TB
        gap = 10**12
        if dark_below:
            stats = CompositeStats(poisson_pmf(3.5), DiscreteDist(gap, [0.5, 0.5]), 1.0)
            # the cut right after the dark law, the smallest of the tied ones in the gap
            want = (0.0, float(stats.p0.k_max + 1))
        else:
            # the bright law has lost half its mass, so a cut past the gap, through the
            # dark law, is the best one: 0.5 * (0.6 + 0.5) at gap + 1, 0.5 * 0.5 at gap + 2
            stats = CompositeStats(DiscreteDist(gap, [0.4, 0.6]), DiscreteDist(0, [0.5]), 1.0)
            want = (0.25, float(gap + 2))
        assert mi_optimal(stats) == want

    def test_identical_laws_give_half(self):
        d = poisson_pmf(5.0)
        mi, _ = mi_optimal(CompositeStats(d, d, 1.0))
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


class TestEnvelope:
    """Oracles on random schemes over the declared envelope, at windows up to 20 ms."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 16),
        # a mean mu * t below about 1e-300 is subnormal, where a float holds too
        # few bits for any relative tolerance
        t=st.one_of(st.just(0.0), st.floats(1e-6, 20.0)),
        p=st.floats(0.0, 1.0),
        mu1=st.one_of(st.just(0.0), st.floats(1e-6, 20.0)),
        frac=st.floats(0.0, 1.0),
        # decay rates up to 240 times the measured 0.0041 per ms; past about
        # 1 per ms test_snr_of_a_fast_decay_on_the_fft_side fails
        lam=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        comp=st.sampled_from(list(Compilation)),
        injected=st.booleans(),
    )
    def test_compose_meets_the_moment_route_and_the_bayes_error(
        self, n, t, p, mu1, frac, lam, comp, injected
    ):
        rates = RateParams(frac * mu1, mu1, lam)
        cfg = SchemeConfig.noisy(n, rates, GateNoise(p, comp))
        if injected:
            # the same laws through the injected tier, which folds both sides by convolution
            laws = lambda t: (poisson_pmf(rates.mu0 * t), decaying_poisson(DecayModelParams(rates, t)))
            cfg = SchemeConfig.injected(n, cfg.outcomes, laws)
        stats = compose(cfg, t)
        for law in (stats.p0, stats.p1):
            assert float(law.masses.sum()) <= 1.0 + 1e-9
        # An SNR near 0 (equal rates, or p near 1, where almost every register
        # ends dark) is resolved only to what the laws lost. A law that dropped
        # mass L past its top count k_max has its mean off by up to L k_max, and
        # rounding moves it by about 1e-15 of itself: twice that drift over the
        # summed standard deviations. Outcome weights below WEIGHT_FLOOR, which
        # compose drops, of total w, move it by up to 2 sqrt(w).
        (m0, v0), (m1, v1) = moments(stats.p0), moments(stats.p1)
        drift = sum(d.truncation_loss * d.k_max for d in (stats.p0, stats.p1)) + 1e-15 * (m0 + m1)
        dropped = sum(float(w) for law in cfg.outcomes for w in law.probs if w < WEIGHT_FLOOR)
        floor = 2.0 * math.sqrt(dropped)
        if v0 + v1:
            floor += 2.0 * drift / (math.sqrt(v0) + math.sqrt(v1))
        assert scheme_snr(cfg, t) == pytest.approx(snr_direct(stats), rel=1e-9, abs=floor)
        # 0.5 (1 - TV) is the Bayes error on the count; a threshold can only match
        # it, up to the mass the laws dropped and the rounding of their sums
        mi, _ = mi_optimal(stats)
        bayes = 0.5 * (1.0 - tv_distance(stats.p0, stats.p1))
        assert mi >= bayes - (stats.p0.truncation_loss + stats.p1.truncation_loss) / 2 - 1e-12
        assert mi == pytest.approx(bayes, rel=0.0, abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="decaying_poisson spans the bright Poisson window at any decay, so 16 folds "
        "lay 8,880 counts on the FFT side where the mass lies below about 20, and the "
        "clipped FFT noise in the empty tail moves the variance",
    )
    def test_snr_of_a_fast_decay_on_the_fft_side(self):
        cfg = SchemeConfig.noisy(16, RateParams(0.0, 20.0, 1e3), GateNoise(0.75))
        stats = compose(cfg, 20.0)
        assert stats.p1.k_max > dist.DIRECT_CONV_LIMIT
        # 1.3e-5 apart
        assert scheme_snr(cfg, 20.0) == pytest.approx(snr_direct(stats), rel=1e-9)


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

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_rejects_bad_register(self, n):
        with pytest.raises(DomainError, match=f"^n must be a positive integer, got {n}$"):
            threshold_analytic(RateParams(3.5, 14.0), n, 1.0)

    # mu1/mu0 past the largest float, where alpha is 0 or 1/alpha is inf,
    # and an eta past it
    @pytest.mark.parametrize(
        "rates, n, t",
        [
            (RateParams(1e-200, 1e200), 1, 1.0),
            (RateParams(1e-300, 1e10), 1, 1.0),
            (RateParams(5e-324, 1.0), 1, 1.0),
            (RateParams(1.0, 1e300), 64, 1e300),
        ],
    )
    def test_rejects_a_field_that_is_not_finite(self, rates, n, t):
        message = f"analytic threshold is not finite at mu0={rates.mu0}, mu1={rates.mu1}, n={n}, t={t}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            threshold_analytic(rates, n, t)


class TestPeakSnr:
    def test_ideal_grows_without_bound(self):
        assert peak_snr(SchemeConfig.ideal(2, RATES)) == (math.inf, math.inf)

    def test_noise_free_noisy_model_also_unbounded(self):
        cfg = SchemeConfig.noisy(2, RateParams(3.5, 14.0, 0.0), GateNoise(0.0))
        assert peak_snr(cfg) == (math.inf, math.inf)

    @pytest.mark.parametrize(
        "cfg",
        [
            SchemeConfig.noisy(3, RATES, GateNoise(1.0)),
            SchemeConfig.noisy(2, NO_DECAY, GateNoise(1.0)),
            SchemeConfig.noisy(2, RateParams(5.0, 5.0, 0.0041), NOISE),
            SchemeConfig.ideal(2, RateParams(5.0, 5.0)),
        ],
        ids=["all-gates-fail", "all-gates-fail-no-decay", "equal-rates", "ideal-equal-rates"],
    )
    def test_no_signal_sentinel(self, cfg):
        s_max, t_max = peak_snr(cfg)
        assert s_max == 0.0 and math.isnan(t_max)
        assert time_to_snr(cfg, 1.0) is None

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.5])
    @pytest.mark.parametrize("comp", list(Compilation), ids=lambda c: c.value)
    def test_single_qubit_without_decay_is_ideal_at_any_p(self, comp, p):
        # one qubit has no gates, so p cannot matter once lam = 0
        rates = RateParams(3.5, 14.0, 0.0)
        cfg = SchemeConfig.noisy(1, rates, GateNoise(p, comp))
        ref = SchemeConfig.noisy(1, rates, GateNoise(0.0, comp))
        for t in (0.5, 10.0):
            got, want = compose(cfg, t), compose(ref, t)
            for a, b in ((got.p0, want.p0), (got.p1, want.p1)):
                assert (a.offset, a.truncation_loss) == (b.offset, b.truncation_loss)
                np.testing.assert_array_equal(a.masses, b.masses)
        assert peak_snr(cfg) == (math.inf, math.inf)
        assert time_to_snr(cfg, 8.0) == time_to_snr(ref, 8.0)

    @pytest.mark.parametrize("p", [0.001, 0.01, 0.3])
    @pytest.mark.parametrize("comp", list(Compilation), ids=lambda c: c.value)
    def test_gate_noise_without_decay_has_a_supremum(self, comp, p):
        # SNR rises towards 2*E[Q1]/sqrt(Var[Q1]) and attains it at no finite t
        ts = np.geomspace(1e-3, 1e12, 151)
        for n in range(2, 65):
            cfg = SchemeConfig.noisy(n, NO_DECAY, GateNoise(p, comp))
            eq1, vq1 = outcome_moments(cfg.outcomes[1])
            s_max, t_max = peak_snr(cfg)
            assert t_max == math.inf
            assert s_max == pytest.approx(2.0 * eq1 / math.sqrt(vq1), rel=1e-13)
            curve = np.array([scheme_snr(cfg, t) for t in ts.tolist()])
            assert np.all(np.diff(curve) > 0.0)
            assert s_max * (1.0 - 1e-4) < curve[-1] < s_max

    @pytest.mark.parametrize("p", [0.001, 0.01, 0.1, 0.3, 0.6])
    @pytest.mark.parametrize("comp", list(Compilation), ids=lambda c: c.value)
    def test_no_decay_supremum_has_no_cancellation(self, comp, p):
        # E[Q0] = n exactly, so the mean gap is E[Q1] itself, not E[Q0] + E[Q1] - n
        for n in range(2, 65):
            cfg = SchemeConfig.noisy(n, NO_DECAY, GateNoise(p, comp))
            eq1, vq1 = cfg.q_moments[1]
            assert peak_snr(cfg)[0] == 2.0 * eq1 / math.sqrt(vq1)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 32])
    @pytest.mark.parametrize("p", [0.001, 0.01])
    @pytest.mark.parametrize("comp", list(Compilation), ids=lambda c: c.value)
    def test_matches_golden_section_oracle(self, comp, p, n):
        cfg = SchemeConfig.noisy(n, RATES, GateNoise(p, comp))
        s_max, t_max = peak_snr(cfg)
        s_ref, t_ref = golden_peak_snr(cfg)
        assert s_max >= s_ref * (1.0 - 1e-12)
        assert s_max == pytest.approx(s_ref, rel=1e-12)
        assert t_max == pytest.approx(t_ref, rel=1e-6)


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

    @staticmethod
    def assert_smallest_float_reaching(cfg, target):
        t = time_to_snr(cfg, target)
        if peak_snr(cfg)[0] < target:
            assert t is None
        else:
            assert scheme_snr(cfg, t) >= target
            assert scheme_snr(cfg, math.nextafter(t, 0.0)) < target

    @settings(max_examples=25)
    @given(
        comp=st.sampled_from(list(Compilation)),
        p=st.floats(0.0, 0.05),
        n=st.integers(1, 32),
        target=st.floats(0.5, 15.0),
    )
    def test_noisy_is_smallest_float_reaching_target(self, comp, p, n, target):
        cfg = SchemeConfig.noisy(n, RATES, GateNoise(p, comp))
        self.assert_smallest_float_reaching(cfg, target)

    @pytest.mark.parametrize(
        "n, t_pair, bright",
        [
            (
                3,
                (point_outcome(3, 3), flat_dist(3, GateNoise(0.02))),
                lambda t: decaying_poisson(DecayModelParams(RATES, t)),
            ),
            (
                5,
                (point_outcome(5, 5), cascade_dist(5, GateNoise(0.01))),
                lambda t: poisson_pmf(14.0 * t),
            ),
        ],
        ids=["flat-decayed", "cascade-poisson"],
    )
    def test_injected_is_smallest_float_reaching_target(self, n, t_pair, bright):
        cfg = SchemeConfig.injected(n, t_pair, lambda t: (poisson_pmf(3.5 * t), bright(t)))
        self.assert_smallest_float_reaching(cfg, 8.0)

    @pytest.mark.parametrize("below", [0, 1, 2])
    def test_target_at_the_peak(self, below):
        # SNR is flat over ~1e8 floats around its peak: the solve must not
        # walk that plateau one float at a time
        cfg = SchemeConfig.noisy(13, RATES, GateNoise(0.01, Compilation.FLAT))
        target = peak_snr(cfg)[0]
        for _ in range(below):
            target = math.nextafter(target, 0.0)
        self.assert_smallest_float_reaching(cfg, target)

    def test_gate_noise_without_decay_solves_past_the_peak_bracket(self):
        cfg = SchemeConfig.noisy(4, NO_DECAY, NOISE)
        t = time_to_snr(cfg, 16.0)
        assert t == 3007.099701551377
        # The crossing at 50 digits, from the exact outcome law of the float p.
        # Near the supremum d(ln SNR)/d(ln t) is ~0.007, so one ulp of the SNR
        # moves t by ~3e-14 relative: the solve must land within that.
        with mp.workdps(50):
            probs = [mp.mpf(w.numerator) / w.denominator
                     for w in cascade_explicit(4, Fraction(NOISE.p))]
            eq1 = sum(q * w for q, w in enumerate(probs))
            vq1 = sum(q * q * w for q, w in enumerate(probs)) - eq1**2
            mu0, mu1 = mp.mpf(NO_DECAY.mu0), mp.mpf(NO_DECAY.mu1)
            bright = eq1 * mu1 + (4 - eq1) * mu0

            def snr(x):
                spread = mp.sqrt(4 * mu0 * x) + mp.sqrt(bright * x + ((mu1 - mu0) * x) ** 2 * vq1)
                return 2 * (mu1 - mu0) * eq1 * x / spread

            crossing = mp.findroot(lambda x: snr(x) - 16, 3007)
            slope = mp.diff(snr, crossing) * crossing / 16
            assert abs(t - crossing) / crossing < (math.ulp(16.0) / 16.0) / slope

    @pytest.mark.parametrize("p", [0.001, 0.01, 0.3])
    @pytest.mark.parametrize("comp", list(Compilation), ids=lambda c: c.value)
    def test_no_decay_is_smallest_float_reaching_target(self, comp, p):
        for n in range(2, 65):
            cfg = SchemeConfig.noisy(n, NO_DECAY, GateNoise(p, comp))
            sup = peak_snr(cfg)[0]
            for target in (1e-3 * sup, 0.5 * sup, 0.99 * sup, (1.0 - 1e-9) * sup):
                t = time_to_snr(cfg, target)
                assert scheme_snr(cfg, t) >= target
                assert scheme_snr(cfg, math.nextafter(t, 0.0)) < target
            # the supremum is approached, never reached
            for target in (sup, math.nextafter(sup, math.inf), 2.0 * sup):
                assert time_to_snr(cfg, target) is None

    def test_reaches_requested_level(self):
        cfg = SchemeConfig.noisy(3, RATES, NOISE)
        t = time_to_snr(cfg, 8.0)
        assert scheme_snr(cfg, t) == pytest.approx(8.0, rel=1e-9)

    def test_unreachable_returns_none(self):
        assert time_to_snr(SchemeConfig.noisy(1, RATES, NOISE), 20.0) is None

    def test_rejects_non_positive_target(self):
        with pytest.raises(DomainError):
            time_to_snr(SchemeConfig.ideal(1, RATES), 0.0)

    @pytest.mark.parametrize(
        "cfg, target",
        [(SchemeConfig.noisy(5, RATES, NOISE), 8.0), (_tiers(3)["injected"], 1.5)],
        ids=["gate-noise", "injected"],
    )
    def test_grid_crossing_needs_no_peak(self, cfg, target, monkeypatch):
        # a target some grid window reaches is bracketed on the grid: the peak
        # is never refined
        def refused(*args):
            raise AssertionError("the peak was refined")

        monkeypatch.setattr(scheme, "_bounded_minimum", refused)
        t = time_to_snr(cfg, target)
        assert scheme_snr(cfg, t) >= target > scheme_snr(cfg, math.nextafter(t, 0.0))

    @pytest.mark.parametrize(
        "rates, target",
        [(RateParams(3.5e3, 1.4e4, 0.0041), 2.0), (RATES, 2.0), (RATES, 8.0)],
        ids=["first-window", "low-target", "default-target"],
    )
    def test_bracket_is_the_first_grid_cell_reaching_target(self, rates, target, monkeypatch):
        # [0, ts[0]] when the first window reaches the target, else the grid
        # cell [ts[i-1], ts[i]] whose upper end is the first window reaching it
        cfg = SchemeConfig.noisy(3, rates, NOISE)
        grid = scheme._PEAK_GRID
        i = next(j for j, t in enumerate(grid) if scheme_snr(cfg, t) >= target)
        assert (i == 0) == (rates.mu1 > RATES.mu1)
        brackets, root = [], scheme._brent_root

        def recorded(f, a, b, xtol):
            brackets.append((a, b))
            return root(f, a, b, xtol)

        monkeypatch.setattr(scheme, "_brent_root", recorded)
        t = time_to_snr(cfg, target)
        assert brackets == [(grid[i - 1] if i else 0.0, grid[i])]
        assert scheme_snr(cfg, t) >= target > scheme_snr(cfg, math.nextafter(t, 0.0))

    @staticmethod
    def no_decay_crossing(cfg, target) -> float:
        """The exact window at which the closed-form SNR of the float rates and
        outcome moments reaches target (see time_to_snr), inf where it never does."""
        with mp.workdps(60):
            eq1, vq1 = map(mp.mpf, cfg.q_moments[1])
            mu0, mu1 = mp.mpf(cfg.rates.mu0), mp.mpf(cfg.rates.mu1)
            gap, s = mu1 - mu0, mp.mpf(target)
            k, a = 2 * gap * eq1, cfg.n_qubits * mu0
            d = k * k - (s * gap) ** 2 * vq1
            if d <= 0:
                return math.inf
            u = s * (k * mp.sqrt(a) + mp.sqrt(k * k * a + d * eq1 * gap)) / d
            return float(u * u)  # inf past the largest float

    @settings(max_examples=300, deadline=None)
    @example(log_mu1=140.0, frac=0.0, n=1, p=0.0, comp=Compilation.CASCADE, target=8.0)
    @example(log_mu1=-170.0, frac=0.0, n=1, p=0.0, comp=Compilation.CASCADE, target=8.0)
    @example(log_mu1=150.0, frac=0.0, n=2, p=0.0, comp=Compilation.CASCADE, target=1.5)
    @given(
        log_mu1=st.floats(-300.0, 300.0),
        frac=st.floats(0.0, 1.0),
        n=st.integers(1, 64),
        p=st.floats(0.0, 0.05),
        comp=st.sampled_from(list(Compilation)),
        target=st.floats(0.5, 15.0),
    )
    def test_no_decay_solves_at_any_rates(self, log_mu1, frac, n, p, comp, target):
        # the closed form neither over- nor underflows: None only where the
        # crossing is past the largest float or the supremum
        mu1 = 10.0**log_mu1
        cfg = SchemeConfig.noisy(n, RateParams(frac * mu1, mu1, 0.0), GateNoise(p, comp))
        t = time_to_snr(cfg, target)
        if t is None:
            eq1, vq1 = cfg.q_moments[1]
            near_sup = vq1 > 0.0 and target >= (1.0 - 1e-13) * 2.0 * eq1 / math.sqrt(vq1)
            assert near_sup or self.no_decay_crossing(cfg, target) > 0.999 * sys.float_info.max
        else:
            assert scheme_snr(cfg, t) >= target > scheme_snr(cfg, math.nextafter(t, 0.0))


def _counted(f, calls: list):
    def g(x):
        calls.append(x)
        return f(x)

    return g


class TestSolverPorts:
    """The two solvers give scipy.optimize's results to the bit, in as many evaluations."""

    @pytest.mark.parametrize(
        "f, a, b, xatol",
        [
            (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-5),
            (math.cos, 1.0, 5.0, 1e-9),
            (lambda x: x**3 - 2.0 * x - 5.0, 0.0, 3.0, 1e-6),
            (lambda x: 1.0, -1.0, 1.0, 1e-5),
            # the minimum at 0 pulls the tolerance to 0: all 500 evaluations run
            (abs, -1.0, 2.0, 0.0),
        ],
        ids=["parabola", "cos", "cubic", "flat", "exhausted"],
    )
    def test_bounded_minimum_matches_scipy(self, f, a, b, xatol):
        ours, theirs = [], []
        got = scheme._bounded_minimum(_counted(f, ours), a, b, xatol)
        assert got == scipy_bounded_minimum(_counted(f, theirs), a, b, xatol)
        assert ours == theirs
        assert (len(ours) == 500) == (f is abs)

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
            (math.cos, 1.0, 2.0),
            (lambda x: math.atan(x - 0.7), -3.0, 4.0),
            (lambda x: math.exp(x) - 2.0, -3.0, 5.0),
            (lambda x: x - 1.0, 1.0, 2.0),
            (lambda x: x - 2.0, 1.0, 2.0),
            # the inverse quadratic step's denominator underflows to 0: it bisects
            (lambda x: 1e-160 * (x**3 - 2.0 * x - 5.0), 2.0, 3.0),
        ],
        ids=["cubic", "cos", "atan", "exp", "root-at-a", "root-at-b", "underflow"],
    )
    def test_brent_root_matches_scipy(self, f, a, b):
        ours, theirs = [], []
        got = scheme._brent_root(_counted(f, ours), a, b, 1e-300)
        assert got == scipy_brent_root(_counted(f, theirs), a, b, 1e-300)
        assert ours == theirs

    def test_brent_root_needs_a_sign_change(self):
        with pytest.raises(DomainError, match="^no sign change of f between 1.0 and 2.0$"):
            scheme._brent_root(lambda x: x, 1.0, 2.0, 1e-300)

    def test_public_solvers_match_scipy_driven(self, monkeypatch):
        # a seeded third of a grid of configs with decay, each solved by the
        # ports and then again with scipy's calls in their place, as peak_snr
        # and time_to_snr were before the ports. The snap onto the crossing
        # can land on another float when the root moves by one ulp.
        grid = list(
            itertools.product(
                Compilation,
                [0.0, 0.001, 0.01, 0.1, 0.5],
                [0.0041, 0.02, 0.5],
                [1, 2, 3, 5, 8, 13, 21, 32, 48, 64],
            )
        )
        picks = np.random.default_rng(21).choice(len(grid), 100, replace=False)
        configs = [
            SchemeConfig.noisy(n, RateParams(3.5, 14.0, lam), GateNoise(p, comp))
            for comp, p, lam, n in (grid[i] for i in picks)
        ]

        def solve(cfg):
            s_max, t_max = peak_snr(cfg)
            targets = (2.0, 4.0, 8.0, 12.0, 0.999 * s_max)
            return s_max, t_max, [time_to_snr(cfg, target) for target in targets]

        ported = [solve(cfg) for cfg in configs]
        monkeypatch.setattr(scheme, "_bounded_minimum", scipy_bounded_minimum)
        monkeypatch.setattr(scheme, "_brent_root", scipy_brent_root)
        assert [solve(cfg) for cfg in configs] == ported
        assert any(t is not None for *_, times in ported for t in times[:4])


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

    @pytest.mark.parametrize(
        "n, t, message",
        [
            (0, 1.0, "n must be a positive integer, got 0"),
            (1.5, 1.0, "n must be a positive integer, got 1.5"),
            (1, -1.0, "window length must be positive and finite, got -1.0"),
            (1, math.inf, "window length must be positive and finite, got inf"),
        ],
    )
    def test_rejects_bad_register_or_window(self, n, t, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            gaussian_scheme_snr(2.0, n, t)


class TestTimeExponent:
    def test_ideal_snr_scales_like_square_root(self):
        ts = np.geomspace(0.5, 8.0, 12)
        snrs = [scheme_snr(SchemeConfig.ideal(2, RateParams(3.5, 14.0)), t) for t in ts]
        assert np.polyfit(np.log(ts), np.log(snrs), 1)[0] == pytest.approx(0.5, abs=1e-8)

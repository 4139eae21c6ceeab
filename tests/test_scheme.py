import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from mpmath import mp
from scipy import stats as ss

from readout_tradeoff import decay, dist, scheme
from readout_tradeoff.decay import DecayModelParams, decaying_poisson, decaying_poisson_moments
from readout_tradeoff.dist import (
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
    estimate_time_exponent,
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
    golden_peak_snr,
    power_fold,
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
    "snr_direct": (lambda: snr_direct(None), "stats must be a CompositeStats"),
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


def _horner_steps_and_convolutions(cfg, t, monkeypatch):
    """Horner steps of both laws of cfg at t, and the convolutions compose ran."""
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    # every convolution, in compose or in a fold, runs one of these two
    for module in (dist, scheme):
        for name in ("_convolve_masses", "_convolve_by_cost"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
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
            raise AssertionError("a law at paper scale reached scipy.fft")

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(scipy.fft, name, no_fft)
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

    @pytest.mark.parametrize("n, t", [(32, 20.0), (64, 5.0), (64, 20.0)])
    def test_injected_fft_side_against_all_direct(self, n, t, monkeypatch):
        cfg = _tiers(n)["injected"]
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
        # each Horner step convolves once with the own law and extends the
        # other side's power once; no power is squared up from scratch
        steps, calls = _horner_steps_and_convolutions(_tiers(10)["injected"], 2.0, monkeypatch)
        assert steps == 20
        assert calls <= 2 * steps, calls

    def test_injected_running_product_across_blocks(self, monkeypatch):
        # at n = 64 both laws are blocked; the blocks still ask for the other
        # side in increasing n - q, and own^(*size) costs a few squarings
        steps, calls = _horner_steps_and_convolutions(_tiers(64)["injected"], 20.0, monkeypatch)
        assert calls <= 2 * steps, calls

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
            monkeypatch.setattr(scipy.fft, name, counted(getattr(scipy.fft, name)))
        monkeypatch.setattr(scheme, "decaying_poisson", decayed)
        got = compose(SchemeConfig.noisy(64, RATES, NOISE), 20.0)
        # a transform per Horner step would run about 100 at half length or more
        full = sum(2 * length >= got.p1.masses.size for length in lengths)
        assert 0 < full <= math.ceil(65 / math.isqrt(65)) + 2, full
        assert builds[0] == 1

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
        got = scheme._moment_snr(tuple(map(outcome_moments, perfect)), (3.5, 3.5), (14.0, 14.0), 2, 1.0)
        assert got == pytest.approx(ideal_snr(2, 1.0), rel=1e-12)

    def test_rejects_non_finite_moments(self):
        perfect = (point_outcome(2, 2), point_outcome(2, 2))
        with pytest.raises(DomainError):
            scheme._moment_snr(tuple(map(outcome_moments, perfect)), (math.nan, 1.0), (14.0, 14.0), 2, 1.0)


# Window lengths for the array route: t = 0, the smallest subnormal, both
# sides of x = lam*t = 1/2 (where the decay variance switches from its
# series to its closed form), the peak grid and the envelope's edge.
_X_HALF = 0.5 / RATES.lam
ARRAY_TS = np.concatenate(
    (
        [0.0, 5e-324],
        [math.nextafter(_X_HALF, 0.0), _X_HALF, math.nextafter(_X_HALF, math.inf)],
        _X_HALF * np.array([0.9, 0.999, 1.001, 1.1]),
        np.geomspace(*scheme.PEAK_BRACKET, scheme.PEAK_GRID_POINTS),
        [1e3],
    )
)


def _array_tiers():
    cfgs = {
        f"{comp.value}-p{p}": SchemeConfig.noisy(5, RATES, GateNoise(p, comp))
        for comp in Compilation
        for p in (0.001, 0.01, 1.0)
    }
    cfgs["ideal-n1"] = SchemeConfig.ideal(1, RateParams(3.5, 14.0))
    cfgs["ideal-n8"] = SchemeConfig.ideal(8, RateParams(3.5, 14.0))
    cfgs["injected"] = _tiers(3)["injected"]
    return cfgs


class TestArrayRoute:
    """scheme_snr over an array of t is the float call at each t, bit for bit."""

    @pytest.mark.parametrize("cfg", _array_tiers().values(), ids=_array_tiers().keys())
    def test_equals_float_calls(self, cfg):
        got = scheme_snr(cfg, ARRAY_TS)
        assert isinstance(got, np.ndarray) and got.shape == ARRAY_TS.shape
        want = [scheme_snr(cfg, float(t)) for t in ARRAY_TS]
        assert all(type(w) is float for w in want)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -5e-324])
    def test_bad_entry_raises_the_float_error(self, bad):
        cfg = SchemeConfig.noisy(3, RATES, NOISE)
        with pytest.raises(DomainError) as one:
            scheme_snr(cfg, bad)
        with pytest.raises(DomainError) as many:
            scheme_snr(cfg, np.array([1.0, bad, 2.0, math.nan]))
        assert str(many.value) == str(one.value)

    @pytest.mark.parametrize(
        "cfg, ts, first",
        [
            # the decayed bright moments overflow
            (SchemeConfig.noisy(1, RATES, NOISE), [1.0, 1e300, 1e200, 2.0], 1e200),
            # the gap squared overflows below the window where a mean does
            (SchemeConfig.ideal(1, RateParams(3.5, 14.0)), [1e308, 1.0, 3e153, 1e200], 3e153),
        ],
        ids=["decay-moments", "gap-squared"],
    )
    def test_overflow_names_the_smallest_window(self, cfg, ts, first):
        with pytest.raises(DomainError) as one:
            scheme_snr(cfg, first)
        with pytest.raises(DomainError) as many:
            scheme_snr(cfg, np.array(ts))
        assert f"t={first} ms" in str(one.value)
        assert str(many.value) == str(one.value)

    def test_peak_grid_is_one_array_call(self, monkeypatch):
        calls = []

        def counted(config, t):
            calls.append(np.shape(t))
            return scheme_snr(config, t)

        monkeypatch.setattr(scheme, "scheme_snr", counted)
        peak_snr(SchemeConfig.noisy(5, RATES, NOISE))
        assert calls[0] == (scheme.PEAK_GRID_POINTS,)
        assert all(shape == () for shape in calls[1:])

    def test_window_lengths_are_checked_once(self, monkeypatch):
        # scheme_snr checks them; the decay moments it asks for take them as checked
        checked = []

        def counted(t):
            checked.append(np.shape(t))
            return window_length(t)

        window_length = decay._window_length
        monkeypatch.setattr(scheme, "_window_length", counted)
        monkeypatch.setattr(decay, "_window_length", counted)
        scheme_snr(SchemeConfig.noisy(3, RATES, NOISE), ARRAY_TS)
        assert checked == [ARRAY_TS.shape]
        DecayModelParams(RATES, ARRAY_TS)  # a public caller's are still checked
        assert checked == [ARRAY_TS.shape] * 2

    def test_peak_grid_is_built_once(self, monkeypatch):
        grids = []

        def counted(config, t):
            grids.append(t)
            return scheme_snr(config, t)

        monkeypatch.setattr(scheme, "scheme_snr", counted)
        for n in (3, 5):
            peak_snr(SchemeConfig.noisy(n, RATES, NOISE))
        first, second = (t for t in grids if np.ndim(t))
        assert first is second and not first.flags.writeable
        assert np.array_equal(first, np.geomspace(*scheme.PEAK_BRACKET, scheme.PEAK_GRID_POINTS))


class TestMiOptimal:
    def test_separated_point_masses(self):
        stats = CompositeStats(point_mass(0), point_mass(5), 1.0)
        mi, eta = mi_optimal(stats)
        assert mi == 0.0
        assert eta == 1.0  # smallest threshold among the ties

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
            SchemeConfig.noisy(2, RateParams(5.0, 5.0, 0.0041), NOISE),
            SchemeConfig.ideal(2, RateParams(5.0, 5.0)),
        ],
        ids=["all-gates-fail", "equal-rates", "ideal-equal-rates"],
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
            curve = scheme_snr(cfg, ts)
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
        assert estimate_time_exponent(ts, snrs) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize(
        "ts, snrs, message",
        [
            ([1.0], [1.0], "need at least two matching"),
            ([1.0, 2.0], [1.0, 2.0, 3.0], "need at least two matching"),
            ([0.0, 1.0], [1.0, 2.0], "log-log fit needs positive samples"),
            ([1.0, 2.0], [1.0, -2.0], "log-log fit needs positive samples"),
            ([1.0, math.nan], [1.0, 2.0], "log-log fit needs finite samples"),
            ([1.0, math.inf], [1.0, 2.0], "log-log fit needs finite samples"),
            ([1.0, 2.0], [math.nan, 2.0], "log-log fit needs finite samples"),
            ([1.0, 2.0], [1.0, math.inf], "log-log fit needs finite samples"),
            ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], "need at least two matching"),
        ],
    )
    def test_rejects_bad_samples(self, ts, snrs, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            estimate_time_exponent(ts, snrs)


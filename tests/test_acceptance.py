"""End-to-end acceptance checks for every advertised quantitative behaviour.

Each test prints one summary line (visible under ``pytest -s``) of the form

    criterion NN [PASS|FAIL] short name (elapsed, limit)

and then asserts both the numerical claim and the runtime budget. The
budgets are generous on purpose; a miss usually means an algorithmic
regression (a lost fast path), not a slow machine.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as ss

import readout_tradeoff as rt
from tests._reference import enumerate_gate_patterns

CLEAN = rt.RateParams(3.5, 14.0)
RATES = rt.RateParams(3.5, 14.0, 0.0041)
SEED = 20260822


@pytest.fixture(scope="module", autouse=True)
def _warm_up():
    # first-touch import and allocator costs stay out of the timed blocks
    rt.convolve(rt.poisson_pmf(30.0), rt.poisson_pmf(20.0))
    rt.decaying_poisson(rt.DecayModelParams(RATES, 0.5))
    rt.cascade_dist(4, rt.GateNoise(0.01))
    rt.flat_dist(4, rt.GateNoise(0.01, rt.Compilation.FLAT))
    rt.sample_gate_outcomes(rt.cascade_wiring(3), 0.01, 256, 0)
    rt.peak_snr(rt.SchemeConfig.noisy(1, RATES, rt.GateNoise(0.01)))


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {name} ({elapsed:.3f}s, limit {limit:g}s)")


def _finish(num, name, ok, start, limit):
    elapsed = time.perf_counter() - start
    _report(num, name, ok and elapsed < limit, elapsed, limit)
    assert ok
    assert elapsed < limit
    return elapsed


def test_criterion_01_ideal_speedup_is_exactly_linear():
    limit, start = 1.0, time.perf_counter()
    ok = True
    for target in (4.0, 8.0, 12.0):
        t1 = rt.time_to_snr(rt.SchemeConfig.ideal(1, CLEAN), target)
        for n in range(1, 11):
            tn = rt.time_to_snr(rt.SchemeConfig.ideal(n, CLEAN), target)
            ok &= abs(t1 / tn - n) / n <= 1e-9
    _finish(1, "ideal time ratio equals qubit count", ok, start, limit)


def _best_of(runs: int, f) -> tuple[bool, float]:
    # sub-millisecond budgets get timeit-style best-of timing; a single
    # cold call mostly measures scheduler noise at that scale
    best = math.inf
    ok = True
    for _ in range(runs):
        start = time.perf_counter()
        ok = f()
        best = min(best, time.perf_counter() - start)
    return ok, best


def test_criterion_02_split_wiring_full_success_mass():
    limit = 1e-3

    def check() -> bool:
        cascade = rt.cascade_dist(10, rt.GateNoise(0.005))
        flat = rt.flat_dist(10, rt.GateNoise(0.005, rt.Compilation.FLAT))
        ok = abs(cascade.probs[10] - 0.995**9) <= 1e-12
        ok &= cascade.probs[9] == 0.0
        ok &= flat.probs[9] == 0.0
        return ok

    ok, elapsed = _best_of(5, check)
    _report(2, "ten-qubit full-success mass and impossible count", ok and elapsed < limit, elapsed, limit)
    assert ok
    assert elapsed < limit


def test_criterion_03_closed_forms_match_brute_force():
    limit, start = 10.0, time.perf_counter()
    ok = True
    for n in range(1, 11):
        for p in (0.001, 0.005, 0.01, 0.25):
            brute = enumerate_gate_patterns(n, rt.flat_wiring(n), p)
            closed = rt.flat_dist(n, rt.GateNoise(p, rt.Compilation.FLAT))
            ok &= 0.5 * np.abs(brute.probs - closed.probs).sum() <= 1e-12
            brute = enumerate_gate_patterns(n, rt.cascade_wiring(n), p)
            closed = rt.cascade_dist(n, rt.GateNoise(p))
            ok &= 0.5 * np.abs(brute.probs - closed.probs).sum() <= 1e-12
    _finish(3, "outcome laws equal exhaustive gate enumeration", ok, start, limit)


def test_criterion_04_moment_route_matches_direct_route():
    limit, start = 30.0, time.perf_counter()
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 9))
        p = float(rng.uniform(0.0, 0.05))
        lam = float(rng.uniform(0.0, 0.01))
        t = float(rng.uniform(0.1, 10.0))
        compilation = rt.Compilation.CASCADE if rng.integers(2) else rt.Compilation.FLAT
        cfg = rt.SchemeConfig.noisy(
            n, rt.RateParams(3.5, 14.0, lam), rt.GateNoise(p, compilation)
        )
        direct = rt.snr_direct(rt.compose(cfg, t))
        fast = rt.scheme_snr(cfg, t)
        ok &= abs(fast - direct) <= 1e-9 * max(abs(direct), 1e-300)
    _finish(4, "moment-only SNR equals composed-distribution SNR", ok, start, limit)


def test_criterion_05_peak_snr_grows_and_curves_are_unimodal():
    limit, start = 60.0, time.perf_counter()
    noise = rt.GateNoise(0.01)
    peaks = []
    ok = True
    for n in range(1, 6):
        cfg = rt.SchemeConfig.noisy(n, RATES, noise)
        s_max, _ = rt.peak_snr(cfg)
        peaks.append(s_max)
        ts = np.geomspace(0.01, 100.0, 120)
        snrs = np.array([rt.scheme_snr(cfg, float(t)) for t in ts])
        d = np.diff(snrs)
        signs = np.sign(d[np.abs(d) > 1e-13])
        ok &= int(np.sum(signs[1:] != signs[:-1])) <= 1
    ok &= all(a < b for a, b in zip(peaks, peaks[1:]))
    _finish(5, "peak SNR increases with register size, curves unimodal", ok, start, limit)


def test_criterion_06_speedup_crossover_with_gate_quality():
    limit, start = 120.0, time.perf_counter()
    ok = True
    for p, above in ((0.001, True), (0.01, False)):
        noise = rt.GateNoise(p)
        t1 = rt.time_to_snr(rt.SchemeConfig.noisy(1, RATES, noise), 8.0)
        for n in range(2, 11):
            tn = rt.time_to_snr(rt.SchemeConfig.noisy(n, RATES, noise), 8.0)
            ratio = t1 / tn
            ok &= (ratio > n) if above else (ratio < n)
    _finish(6, "speed-up beats qubit count only for good gates", ok, start, limit)


def _min_mi_over_t(n: int, p: float) -> float:
    cfg = rt.SchemeConfig.noisy(n, RATES, rt.GateNoise(p))
    ts = np.geomspace(0.2, 60.0, 72)
    return min(rt.mi_optimal(rt.compose(cfg, float(t)))[0] for t in ts)


def test_criterion_07_infidelity_floor_set_by_gates():
    limit, start = 120.0, time.perf_counter()
    coarse = {p: [_min_mi_over_t(n, p) for n in range(1, 6)] for p in (0.01, 0.001)}
    bad = coarse[0.01]
    good = coarse[0.001]
    ok = all(bad[0] < m for m in bad[1:])  # single qubit wins with poor gates
    ok &= good[1] < good[0]  # a second qubit helps with good gates
    for m in bad[2:]:  # plateau above one qubit with poor gates
        ok &= abs(m - bad[1]) / bad[1] <= 0.25
    _finish(7, "best-case infidelity ordering across register sizes", ok, start, limit)


def test_criterion_08_decayed_law_limits():
    limit, start = 1.0, time.perf_counter()
    no_decay = rt.decaying_poisson(rt.DecayModelParams(rt.RateParams(3.5, 14.0, 0.0), 2.0))
    ok = _pointwise_against(no_decay, 14.0 * 2.0) <= 1e-12
    equal_rates = rt.decaying_poisson(rt.DecayModelParams(rt.RateParams(7.0, 7.0, 0.3), 2.0))
    ok &= _pointwise_against(equal_rates, 7.0 * 2.0) <= 1e-10
    _finish(8, "decayed law reduces to plain counting in both limits", ok, start, limit)


def _pointwise_against(dist, omega: float) -> float:
    ref = rt.poisson_pmf(omega)
    size = max(dist.offset + dist.masses.size, ref.offset + ref.masses.size)
    a = np.zeros(size)
    a[dist.offset : dist.offset + dist.masses.size] = dist.masses
    b = np.zeros(size)
    b[ref.offset : ref.offset + ref.masses.size] = ref.masses
    return float(np.max(np.abs(a - b)))


def test_criterion_09_million_shot_ground_truth():
    limit, start = 120.0, time.perf_counter()
    shots = 10**6
    emp = rt.sample_gate_outcomes(rt.cascade_wiring(10), 0.005, shots, SEED)
    ana = rt.cascade_dist(10, rt.GateNoise(0.005))
    ok = 0.5 * np.abs(emp.probs - ana.probs).sum() <= 5e-3

    emp_w = rt.sample_photon_counts(RATES, 1, 3.0, shots, SEED + 1)
    ana_w = rt.decaying_poisson(rt.DecayModelParams(RATES, 3.0))
    ok &= rt.tv_distance(ana_w, emp_w) <= 5e-3

    cfg = rt.SchemeConfig.noisy(5, RATES, rt.GateNoise(0.01))
    stats = rt.compose(cfg, 2.0)
    e0, e1 = rt.sample_full_scheme(rt.McConfig(shots, SEED + 2, cfg, 2.0))
    ok &= rt.tv_distance(stats.p0, e0) <= 5e-3
    ok &= rt.tv_distance(stats.p1, e1) <= 5e-3
    _finish(9, "sampled trajectories reproduce the analytic laws", ok, start, limit)


def test_criterion_10_drift_readout_identities():
    limit = 1e-3
    ts = np.geomspace(0.01, 100.0, 10)

    def check() -> bool:
        ok = True
        for n in range(1, 11):
            pooled = [rt.gaussian_scheme_snr(3.5, 1, float(n * t)) for t in ts]
            spread = [rt.gaussian_scheme_snr(3.5, 1, float(t)) for t in ts]
            for t, via_time, single in zip(ts, pooled, spread):
                lhs = rt.gaussian_scheme_snr(3.5, n, float(t))
                ok &= abs(lhs - via_time) <= 1e-12 * lhs
                ok &= abs(lhs - math.sqrt(n) * single) <= 1e-12 * lhs
        return ok

    ok, elapsed = _best_of(5, check)
    _report(10, "drift readout trades register for time exactly", ok and elapsed < limit, elapsed, limit)
    assert ok
    assert elapsed < limit


def test_criterion_11_error_tails_inside_printed_brackets():
    limit, start = 5.0, time.perf_counter()
    ok = True
    for omega0 in np.linspace(2.0, 50.0, 20):
        t = float(omega0) / 3.5
        ana = rt.threshold_analytic(CLEAN, 1, t)
        k = math.ceil(ana.eta_analytic)
        omega1 = 14.0 * t
        ok &= k > omega0 and (k - 1) < omega1  # bracket validity conditions
        eps0 = float(ss.poisson.sf(k - 1, omega0))
        eps1 = float(ss.poisson.cdf(k - 1, omega1))
        term0 = math.exp(-omega0 + k * math.log(omega0) - math.lgamma(k + 1))
        term1 = math.exp(-omega1 + (k - 1) * math.log(omega1) - math.lgamma(k))
        ok &= term0 <= eps0 <= term0 * k / (k - omega0)
        ok &= term1 <= eps1 <= term1 * omega1 / (omega1 - (k - 1))
    _finish(11, "threshold error tails inside geometric brackets", ok, start, limit)

"""The benchmark's workloads: seeded inputs, one library call per result, checks.

A workload turns the seed into a list of rows. Each row is one result: one
top-level library call that yields one output row, the way the ``rt``
command loops produce them. A row also knows how to shrink its output to a
small comparable digest (taken outside the timer) and how to check that
digest for correctness (run after the timed passes, untraced).

Library functions are looked up on the package at call time, so the span
recorder sees every call once it rebinds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import readout_tradeoff as rt

# The rt command defaults: emission rates 3.5 / 14.0 per ms, decay 0.0041 per ms.
RATES = rt.RateParams(3.5, 14.0, 0.0041)
IDEAL_RATES = rt.RateParams(3.5, 14.0, 0.0)
TARGET_SNR = 8.0
SAMPLER_SHOTS = 1 << 17
SAMPLER_N = 10
# rt validate's acceptance threshold: 5e-3 at 1e6 shots, scaled by 1/sqrt(shots).
TV_THRESHOLD = 5e-3 * math.sqrt(1e6 / SAMPLER_SHOTS)
# Floor on the TV threshold as a multiple of the pure sampling noise of the
# exact law. rt validate's threshold is calibrated on its n=5 composite;
# the n=10 bright composite is wide enough that its noise alone averages
# about 4.7/sqrt(shots), level with that threshold.
TV_NOISE_FACTOR = 1.5
# Relative tolerance of the moment-route SNR against the composed laws.
SNR_REL_TOL = 1e-9
# sum(masses) + truncation_loss == 1 is checked to within float rounding of
# the log-space Poisson evaluation, whose terms reach k*ln(k) in magnitude:
# eps * k_max * ln(k_max), and never tighter than MASS_TOL_MIN.
MASS_TOL_MIN = 1e-12
# Relative step below a solved time_to_snr at which the SNR must be under target.
BRACKET_STEP = 1e-9


@dataclass
class Row:
    kind: str
    run: Callable[[], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Workload:
    name: str
    make_rows: Callable[[np.random.Generator], list[Row]]
    shots_per_pass: int = 0


def _int_strata(rng, lo: int, hi: int, k: int) -> list[int]:
    """One integer drawn uniformly from each of k equal strata of lo..hi."""
    edges = np.linspace(lo, hi + 1, k + 1)
    return [int(rng.integers(math.ceil(a), math.ceil(b))) for a, b in zip(edges, edges[1:])]


def _log_grid(rng, lo: float, hi: float, k: int) -> list[float]:
    """A log-spaced grid of k points in [lo, hi], shifted by one random
    offset: each point is log-uniform over [lo, hi], and the set keeps the
    same spacing for every seed, so its cost does not swing with the seed."""
    u = (np.arange(k) + rng.random()) / k
    return [float(x) for x in lo * (hi / lo) ** u]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# merit-solve: the moment-only route, no pmf is ever built.


def _peak_row(cfg) -> Row:
    def check(d):
        s, t = d
        lo, hi = rt.scheme.PEAK_BRACKET
        if not lo * (1 + 1e-9) < t < hi * (1 - 1e-9):
            return [f"peak_snr argmax t={t} on the bracket edge"]
        errs = []
        if _rel(rt.scheme_snr(cfg, t), s) > 1e-12:
            errs.append("peak_snr value differs from scheme_snr at its argmax")
        if max(rt.scheme_snr(cfg, t * (1 - 1e-3)), rt.scheme_snr(cfg, t * (1 + 1e-3))) > s:
            errs.append("peak_snr argmax is not a local maximum")
        return errs

    return Row("peak", lambda: rt.peak_snr(cfg), lambda out: out, check)


def _tts_row(cfg, kind: str) -> Row:
    def check(t):
        if t is None:
            if rt.peak_snr(cfg)[0] >= TARGET_SNR:
                return ["time_to_snr gave None for a reachable target"]
            return []
        errs = []
        if not rt.scheme_snr(cfg, t) >= TARGET_SNR:
            errs.append(f"SNR below target at the solved t={t}")
        if not rt.scheme_snr(cfg, t * (1 - BRACKET_STEP)) < TARGET_SNR:
            errs.append(f"SNR reaches target below the solved t={t}")
        if kind == "tts-ideal":
            r = cfg.rates
            closed = (TARGET_SNR**2 * (math.sqrt(r.mu0) + math.sqrt(r.mu1)) ** 2
                      / (4 * cfg.n_qubits * (r.mu1 - r.mu0) ** 2))
            if _rel(t, closed) > SNR_REL_TOL:
                errs.append(f"ideal time_to_snr {t} differs from the closed form {closed}")
        return errs

    return Row(kind, lambda: rt.time_to_snr(cfg, TARGET_SNR), lambda out: out, check)


def merit_solve(rng) -> list[Row]:
    rows = []
    for comp in (rt.Compilation.CASCADE, rt.Compilation.FLAT):
        for p in (0.001, 0.01):
            for n in _int_strata(rng, 1, 32, 8):
                cfg = rt.SchemeConfig.noisy(n, RATES, rt.GateNoise(p, comp))
                rows += [_peak_row(cfg), _tts_row(cfg, "tts")]
    for n in _int_strata(rng, 1, 64, 16):
        rows.append(_tts_row(rt.SchemeConfig.ideal(n, IDEAL_RATES), "tts-ideal"))
    return rows


# law-sweep and envelope-laws: the full-law route, mi_optimal(compose(cfg, t)).


def _mass_error(d) -> tuple[float, float]:
    """(|sum(masses) + truncation_loss - 1|, the float-rounding tolerance for d)."""
    err = abs(float(d.masses.sum()) + d.truncation_loss - 1.0)
    k = max(d.k_max, 2)
    return err, max(MASS_TOL_MIN, np.finfo(float).eps * k * math.log(k))


def _law_digest(out):
    stats, (mi, eta) = out
    return mi, eta, rt.snr_direct(stats), _mass_error(stats.p0), _mass_error(stats.p1)


def _law_row(kind: str, cfg, t: float) -> Row:
    def run():
        stats = rt.compose(cfg, t)
        return stats, rt.mi_optimal(stats)

    def check(d):
        mi, _, snr, mass0, mass1 = d
        errs = []
        if not 0.0 <= mi <= 0.5:
            errs.append(f"mi={mi} outside [0, 0.5]")
        for label, (err, tol) in (("dark", mass0), ("bright", mass1)):
            if err > tol:
                errs.append(f"{label} law mass accounting off by {err:.3g} (tolerance {tol:.3g})")
        if _rel(rt.scheme_snr(cfg, t), snr) > SNR_REL_TOL:
            errs.append("scheme_snr disagrees with snr_direct(compose)")
        return errs

    return Row(kind, run, _law_digest, check)


def _injected_laws(t: float):
    return rt.poisson_pmf(RATES.mu0 * t), rt.decaying_poisson(rt.DecayModelParams(RATES, t))


def law_sweep(rng) -> list[Row]:
    rows = []
    for n in range(1, 11):
        tiers = (
            ("noisy", rt.SchemeConfig.noisy(n, RATES, rt.GateNoise(0.01))),
            ("ideal", rt.SchemeConfig.ideal(n, IDEAL_RATES)),
            ("injected", rt.SchemeConfig.injected(
                n,
                (rt.flat_dist(n, rt.GateNoise(0.001)), rt.flat_dist(n, rt.GateNoise(0.01))),
                _injected_laws,
            )),
        )
        for kind, cfg in tiers:
            rows += [_law_row(kind, cfg, t) for t in _log_grid(rng, 0.5, 20.0, 8)]
    return rows


def envelope_laws(rng) -> list[Row]:
    rows = []
    for n in (16, 32, 48, 64):
        cfg = rt.SchemeConfig.noisy(n, RATES, rt.GateNoise(0.01))
        rows += [_law_row("noisy", cfg, t) for t in _log_grid(rng, 5.0, 100.0, 8)]
    return rows


# sampler: the trajectory sampler, the only layer the analytic routes never touch.


def _hist_digest(d):
    return d.offset, d.masses.tobytes()


def _as_dist(digest):
    offset, raw = digest
    return rt.DiscreteDist(offset, np.frombuffer(raw))


def _tv_errors(name: str, exact: np.ndarray, tv: float) -> list[str]:
    """Fail when tv exceeds rt validate's threshold and the noise floor of exact."""
    noise = 0.5 * float(np.sqrt(2 * exact * (1 - exact) / (math.pi * SAMPLER_SHOTS)).sum())
    limit = max(TV_THRESHOLD, TV_NOISE_FACTOR * noise)
    return [] if tv <= limit else [f"{name} TV {tv:.4g} above {limit:.4g}"]


def sampler(rng) -> list[Row]:
    seeds = [int(s) for s in rng.integers(0, 2**32, 3)]
    scheme = rt.SchemeConfig.noisy(SAMPLER_N, RATES, rt.GateNoise(0.01))

    def check_full(d):
        stats = rt.compose(scheme, 2.0)
        return [
            err
            for name, exact, sample in (("dark", stats.p0, d[0]), ("bright", stats.p1, d[1]))
            for err in _tv_errors(f"{name} composite", exact.masses,
                                  rt.tv_distance(exact, _as_dist(sample)))
        ]

    def check_gates(raw):
        exact = rt.cascade_dist(SAMPLER_N, rt.GateNoise(0.005)).probs
        tv = 0.5 * float(np.abs(np.frombuffer(raw) - exact).sum())
        return _tv_errors("cascade outcome law", exact, tv)

    def check_photons(d):
        exact = rt.decaying_poisson(rt.DecayModelParams(RATES, 3.0))
        return _tv_errors("bright single-qubit law", exact.masses,
                          rt.tv_distance(exact, _as_dist(d)))

    return [
        Row(
            "full",
            lambda: rt.sample_full_scheme(rt.McConfig(SAMPLER_SHOTS, seeds[0], scheme, 2.0)),
            lambda out: (_hist_digest(out[0]), _hist_digest(out[1])),
            check_full,
        ),
        Row(
            "gates",
            lambda: rt.sample_gate_outcomes(
                rt.cascade_wiring(SAMPLER_N), 0.005, SAMPLER_SHOTS, seeds[1]),
            lambda out: out.probs.tobytes(),
            check_gates,
        ),
        Row(
            "photons",
            lambda: rt.sample_photon_counts(RATES, 1, 3.0, SAMPLER_SHOTS, seeds[2]),
            _hist_digest,
            check_photons,
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("merit-solve", merit_solve),
        Workload("law-sweep", law_sweep),
        Workload("envelope-laws", envelope_laws),
        Workload("sampler", sampler, shots_per_pass=3 * SAMPLER_SHOTS),
    )
}

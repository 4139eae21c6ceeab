"""Seeded trajectory sampling, the ground truth the analytic laws are held to.

All randomness comes from numpy's Philox counter-based bit generator,
which has a fixed published algorithm and produces identical streams on
every platform. Shots are partitioned into fixed batches of BATCH_SHOTS;
batch i draws from a generator keyed by (seed, i), and each batch consumes
its draws in a fixed documented order. The batches run on a thread pool
with one worker per CPU this process may use (numpy's samplers release
the GIL). Each batch bins its counts from its lowest one, and the
histograms are summed at their offsets in batch order, so results are
bit-identical on any machine: no setting changes the output. A sampled
law past MAX_SUPPORT counts is refused before it is binned.

Per-shot sampling follows the physical story literally, one qubit at a
time: gates fail and collapse their control, each bright qubit draws a
single exponential decay time, and each qubit draws its own Poisson count.
None of the analytic collapses (Poisson additivity, mixture re-grouping)
are used here, which is what makes the sampler an independent check.
"""

from __future__ import annotations

import contextlib
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .decay import _window_length
from .dist import DiscreteDist, DomainError, RateParams, _check_mean, _check_span, _instance, _integer, _laid_out
from .gates import GateNoise, OutcomeDist, _gate_pairs, validate_wiring
from .scheme import SchemeConfig

__all__ = [
    "McConfig",
    "sample_full_scheme",
    "sample_gate_outcomes",
    "sample_photon_counts",
]

BATCH_SHOTS = 1 << 16
_SHOTS = "shots must be a positive integer, got {!r}"


@dataclass(frozen=True)
class McConfig:
    """A sampling run: how many shots, from which seed, of which scheme."""

    shots: int
    seed: int
    scheme: SchemeConfig
    t: float

    def __post_init__(self):
        object.__setattr__(self, "shots", _integer(self.shots, _SHOTS, 1))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        object.__setattr__(self, "t", _window_length(self.t))
        _instance(self.scheme, SchemeConfig, "scheme")


def _check_seed(seed) -> int:
    """Integers in [-2**255, 2**255); nothing is rounded or parsed into one."""
    with contextlib.suppress(TypeError):
        if -(1 << 255) <= operator.index(seed) < 1 << 255:
            return operator.index(seed)
    raise DomainError(f"seed must be an integer in [-2**255, 2**255), got {seed!r}")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_batches(seed: int, shots: int, draw) -> list:
    """draw(rng, size) for every shot batch, its results in batch order.

    Batch i gets a Philox generator keyed by (seed's low 64 bits, i) and
    counting from the seed's upper 192 bits (256-bit two's complement), a
    start no batch counts up to, 0 for seeds below 2**64. It shares nothing
    else, so the batches run on min(cpus, batches) threads; one worker runs
    them inline. draw must not call a traced library function (the
    perfbench recorder's span stack is not thread-safe).
    """
    word = _check_seed(seed) % (1 << 256)
    sizes = [min(BATCH_SHOTS, shots - done) for done in range(0, shots, BATCH_SHOTS)]

    def run(batch: int):
        philox = np.random.Philox(key=word % (1 << 64) | batch << 64, counter=word >> 64 << 64)
        return draw(np.random.Generator(philox), sizes[batch])

    workers = min(_cpus(), len(sizes))
    if workers == 1:
        return [run(batch) for batch in range(len(sizes))]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, range(len(sizes))))


def _histogram(counts: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo, hist): a batch's counts binned from their lowest, lo, to their highest."""
    lo, hi = int(counts.min()), int(counts.max())
    _check_span(lo, hi, "sampled law")
    return lo, np.bincount(counts - lo)


def _wiring_size(wiring) -> int:
    return 1 + max((max(c, t) for c, t in wiring), default=0)


def sample_gate_outcomes(wiring, p: float, shots: int, seed: int) -> OutcomeDist:
    """Empirical bright-count law after running the wiring with failing gates.

    Per shot and gate one uniform decides failure; a failure collapses the
    control before the gate acts. Draw order per batch: the full
    (shots, gates) uniform block, row per shot.
    """
    wiring = _gate_pairs(wiring)
    n = _wiring_size(wiring)
    validate_wiring(n, wiring)
    p = GateNoise(p).p
    shots = _integer(shots, _SHOTS, 1)

    def draw(rng, size):
        return np.bincount(_run_gates(rng, wiring, n, p, size).sum(axis=1), minlength=n + 1)

    return OutcomeDist(n, sum(_map_batches(seed, shots, draw)) / shots)


def _run_gates(rng, wiring, n: int, p: float, size: int) -> np.ndarray:
    fails = rng.random((size, len(wiring))) < p
    state = np.zeros((size, n), dtype=bool)
    state[:, 0] = True
    for g, (c, t) in enumerate(wiring):
        ok = ~fails[:, g]
        state[:, c] &= ok
        state[:, t] = ok & state[:, c]
    return state


def _bright_time(rng, lam: float, t: float, shape) -> np.ndarray:
    """Time each qubit spends bright in the window: min(Exp(lam), t)."""
    if lam > 0.0:
        tau = rng.exponential(1.0 / lam, shape)
        return np.minimum(tau, t, out=tau)
    return np.full(shape, t)


def _count_means(bright: np.ndarray, rates: RateParams, t: float) -> np.ndarray:
    """mu1 * bright + mu0 * (t - bright), built in place in bright."""
    dark = t - bright
    dark *= rates.mu0
    bright *= rates.mu1
    bright += dark
    return bright


def sample_photon_counts(
    rates: RateParams, initial_state: int, t: float, shots: int, seed: int
) -> DiscreteDist:
    """Empirical count law for one qubit prepared bright (1) or dark (0).

    A bright qubit draws its decay time from Exp(lam) (infinite when
    lam = 0) and then one Poisson count with the time-weighted mean; a
    dark qubit draws a plain Poisson count. Draw order per batch: decay
    times first, then counts. Where mu1 * t is a mean poisson_pmf refuses,
    from about 4.8e9 on, the call is refused before drawing, for either
    preparation, as decaying_poisson refuses it.
    """
    initial_state = _integer(initial_state, "initial state must be 0 or 1, got {}", 0, 1)
    _instance(rates, RateParams, "rates")
    t = _window_length(t)
    shots = _integer(shots, _SHOTS, 1)
    _check_mean(rates.mu1 * t)  # the largest mean a shot can have

    def draw(rng, size):
        if initial_state == 1:
            mean = _count_means(_bright_time(rng, rates.lam, t, size), rates, t)
        else:
            mean = np.full(size, rates.mu0 * t)
        return _histogram(rng.poisson(mean))

    return _empirical(_map_batches(seed, shots, draw), shots)


def sample_full_scheme(config: McConfig) -> tuple[DiscreteDist, DiscreteDist]:
    """Empirical composite count laws for both preparations.

    Each shot entangles the register through the compiled wiring, then
    every qubit contributes its own count conditioned on its post-gate
    state; the shot lands in exactly one bin of each histogram. Draw order
    per batch: dark-preparation counts, then gate uniforms, decay times
    and counts for the bright preparation. Where mu1 * t is a mean
    poisson_pmf refuses, the call is refused before drawing.
    """
    scheme = _instance(config, McConfig, "config").scheme
    if not isinstance(scheme.noise, GateNoise):
        raise DomainError("trajectory sampling needs a physical gate and decay model")
    n = scheme.n_qubits
    rates = scheme.rates
    wiring = scheme.noise.compilation.wiring(n)
    t = config.t
    _check_mean(rates.mu1 * t)  # the largest mean a shot can have

    def draw(rng, size):
        dark = _histogram(rng.poisson(rates.mu0 * t, (size, n)).sum(axis=1))
        state = _run_gates(rng, wiring, n, scheme.noise.p, size)
        bright = _bright_time(rng, rates.lam, t, (size, n))
        bright[~state] = 0.0
        return dark, _histogram(rng.poisson(_count_means(bright, rates, t)).sum(axis=1))

    dark, bright = zip(*_map_batches(config.seed, config.shots, draw))
    return _empirical(dark, config.shots), _empirical(bright, config.shots)


def _empirical(batches, shots: int) -> DiscreteDist:
    """The law of shots counts binned in (offset, histogram) batches."""
    lo, hist = _laid_out(batches, "sampled law")
    return DiscreteDist(lo, hist / shots)

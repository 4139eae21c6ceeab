"""Seeded trajectory sampling, the ground truth the analytic laws are held to.

All randomness comes from numpy's Philox counter-based bit generator,
which has a fixed published algorithm and produces identical streams on
every platform. Shots are partitioned into fixed batches of BATCH_SHOTS;
batch i draws from a generator keyed by (seed, i), and each batch consumes
its draws in a fixed documented order. Histograms therefore merge by plain
addition in any batch order, so results are bit-identical no matter how
the batches are scheduled or parallelised.

Per-shot sampling follows the physical story literally, one qubit at a
time: gates fail and collapse their control, each bright qubit draws a
single exponential decay time, and each qubit draws its own Poisson count.
None of the analytic collapses (Poisson additivity, mixture re-grouping)
are used here, which is what makes the sampler an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import DiscreteDist, DomainError, RateParams
from .gates import Compilation, GateNoise, OutcomeDist, validate_wiring
from .gates import cascade_wiring, flat_wiring
from .scheme import SchemeConfig

__all__ = [
    "BATCH_SHOTS",
    "McConfig",
    "sample_full_scheme",
    "sample_gate_outcomes",
    "sample_photon_counts",
]

BATCH_SHOTS = 1 << 16


@dataclass(frozen=True)
class McConfig:
    """A sampling run: how many shots, from which seed, of which scheme."""

    shots: int
    seed: int
    scheme: SchemeConfig
    t: float

    def __post_init__(self):
        if self.shots != int(self.shots) or self.shots < 1:
            raise DomainError(f"shots must be a positive integer, got {self.shots}")
        object.__setattr__(self, "shots", int(self.shots))
        object.__setattr__(self, "t", float(self.t))
        if not math.isfinite(self.t) or self.t < 0.0:
            raise DomainError(f"window length must be finite and non-negative, got {self.t}")


def _batches(seed: int, shots: int):
    """Philox generator per fixed-size shot batch, keyed by (seed, batch)."""
    key = int(seed) % (1 << 64)
    done = 0
    batch = 0
    while done < shots:
        size = min(BATCH_SHOTS, shots - done)
        # the 128-bit key as one integer: its 64-bit words are (key, batch)
        yield np.random.Generator(np.random.Philox(key=key | batch << 64)), size
        done += size
        batch += 1


def _wiring_size(wiring) -> int:
    return 1 + max((max(c, t) for c, t in wiring), default=0)


def sample_gate_outcomes(wiring, p: float, shots: int, seed: int) -> OutcomeDist:
    """Empirical bright-count law after running the wiring with failing gates.

    Per shot and gate one uniform decides failure; a failure collapses the
    control before the gate acts. Draw order per batch: the full
    (shots, gates) uniform block, row per shot.
    """
    wiring = list(wiring)
    n = _wiring_size(wiring)
    validate_wiring(n, wiring)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"gate failure probability must lie in [0, 1], got {p}")
    if shots != int(shots) or shots < 1:
        raise DomainError(f"shots must be a positive integer, got {shots}")
    hist = np.zeros(n + 1, dtype=np.int64)
    for rng, size in _batches(seed, shots):
        state = _run_gates(rng, wiring, n, p, size)
        hist += np.bincount(state.sum(axis=1), minlength=n + 1)
    return OutcomeDist(n, hist / shots)


def _run_gates(rng, wiring, n: int, p: float, size: int) -> np.ndarray:
    fails = rng.random((size, len(wiring))) < p
    state = np.zeros((size, n), dtype=bool)
    state[:, 0] = True
    for g, (c, t) in enumerate(wiring):
        f = fails[:, g]
        state[f, c] = False
        state[:, t] = ~f & state[:, c]
    return state


def sample_photon_counts(
    rates: RateParams, initial_state: int, t: float, shots: int, seed: int
) -> DiscreteDist:
    """Empirical count law for one qubit prepared bright (1) or dark (0).

    A bright qubit draws its decay time from Exp(lam) (infinite when
    lam = 0) and then one Poisson count with the time-weighted mean; a
    dark qubit draws a plain Poisson count. Draw order per batch: decay
    times first, then counts.
    """
    if initial_state not in (0, 1):
        raise DomainError(f"initial state must be 0 or 1, got {initial_state}")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"window length must be finite and non-negative, got {t}")
    if shots != int(shots) or shots < 1:
        raise DomainError(f"shots must be a positive integer, got {shots}")
    hist = np.zeros(1, dtype=np.int64)
    for rng, size in _batches(seed, shots):
        if initial_state == 1:
            if rates.lam > 0.0:
                tau = rng.exponential(1.0 / rates.lam, size)
            else:
                tau = np.full(size, np.inf)
            bright = np.minimum(tau, t)
            mean = rates.mu1 * bright + rates.mu0 * (t - bright)
        else:
            mean = np.full(size, rates.mu0 * t)
        hist = _accumulate(hist, rng.poisson(mean))
    return _empirical(hist, shots)


def sample_full_scheme(config: McConfig) -> tuple[DiscreteDist, DiscreteDist]:
    """Empirical composite count laws for both preparations.

    Each shot entangles the register through the compiled wiring, then
    every qubit contributes its own count conditioned on its post-gate
    state; the shot lands in exactly one bin of each histogram. Draw order
    per batch: dark-preparation counts, then gate uniforms, decay times
    and counts for the bright preparation.
    """
    scheme = config.scheme
    if not isinstance(scheme.noise, GateNoise):
        raise DomainError("trajectory sampling needs a physical gate and decay model")
    n = scheme.n_qubits
    rates = scheme.rates
    wiring = flat_wiring(n) if scheme.noise.compilation is Compilation.FLAT else cascade_wiring(n)
    t = config.t
    hist0 = np.zeros(1, dtype=np.int64)
    hist1 = np.zeros(1, dtype=np.int64)
    for rng, size in _batches(config.seed, config.shots):
        hist0 = _accumulate(hist0, rng.poisson(rates.mu0 * t, (size, n)).sum(axis=1))
        state = _run_gates(rng, wiring, n, scheme.noise.p, size)
        if rates.lam > 0.0:
            tau = rng.exponential(1.0 / rates.lam, (size, n))
        else:
            tau = np.full((size, n), np.inf)
        bright = np.where(state, np.minimum(tau, t), 0.0)
        mean = rates.mu1 * bright + rates.mu0 * (t - bright)
        hist1 = _accumulate(hist1, rng.poisson(mean).sum(axis=1))
    return _empirical(hist0, config.shots), _empirical(hist1, config.shots)


def _accumulate(hist: np.ndarray, counts: np.ndarray) -> np.ndarray:
    bc = np.bincount(counts)
    if bc.size > hist.size:
        hist = np.concatenate((hist, np.zeros(bc.size - hist.size, dtype=np.int64)))
    hist[: bc.size] += bc
    return hist


def _empirical(hist: np.ndarray, shots: int) -> DiscreteDist:
    first = int(np.argmax(hist > 0))
    return DiscreteDist(first, hist[first:] / shots)

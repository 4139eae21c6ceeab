"""Composite readout statistics and the figures of merit built on them.

A scheme entangles n_qubits copies of the prepared state and counts all
emitted photons in one detector. The composite count laws for the two
preparations follow from mixing convolution powers of the single-qubit
laws over the entangling outcome, and every merit figure (signal-to-noise
ratio, misclassification infidelity, timing solutions) derives from those
two laws or, where only moments are needed, from the moment identities of
the same mixture.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .decay import DecayModelParams, decaying_poisson, decaying_poisson_moments
from .dist import (
    DiscreteDist,
    DomainError,
    RateParams,
    _window,
    convolve,
    mixture,
    moments,
    n_fold_convolve,
    point_mass,
    poisson_pmf,
)
from .gates import (
    GateNoise,
    OutcomeDist,
    compiled_dist,
    general_t_pair,
    outcome_moments,
    point_outcome,
)

__all__ = [
    "CompositeStats",
    "MeritPoint",
    "Model",
    "SchemeConfig",
    "ThresholdAnalysis",
    "compose",
    "estimate_time_exponent",
    "gaussian_scheme_snr",
    "mi_optimal",
    "peak_snr",
    "scheme_snr",
    "snr_direct",
    "snr_general",
    "threshold_analytic",
    "time_to_snr",
]

MAX_QUBITS = 64
# Mixture terms below this weight are dropped; with at most MAX_QUBITS + 1
# terms the induced mass error stays under 1e-13.
WEIGHT_FLOOR = 1e-15

PEAK_BRACKET = (1e-3, 1e3)
PEAK_GRID_POINTS = 64


class Model(enum.Enum):
    IDEAL_POISSON = "ideal-poisson"
    NOISY_DECAYING = "noisy-decaying"
    GENERAL_INJECTED = "general-injected"


LawProvider = Callable[[float], tuple[DiscreteDist, DiscreteDist]]


@dataclass
class SchemeConfig:
    """Everything needed to evaluate one readout scheme.

    model picks how single-qubit laws and entangling outcomes arise:

    - ideal-poisson: perfect gates, pure Poisson emission.
    - noisy-decaying: failing gates per ``noise`` plus single-decay
      emission statistics from ``rates``.
    - general-injected: ``noise`` is an explicit (t0, t1) outcome pair and
      ``single_laws`` supplies the single-qubit count laws per window
      length, either as a callable t -> (law0, law1) or as a mapping keyed
      by exact t (no interpolation is attempted between entries).
    """

    n_qubits: int
    model: Model
    rates: RateParams | None = None
    noise: GateNoise | tuple[OutcomeDist, OutcomeDist] | None = None
    single_laws: LawProvider | Mapping[float, tuple[DiscreteDist, DiscreteDist]] | None = None

    def __post_init__(self):
        if self.n_qubits != int(self.n_qubits) or not 1 <= self.n_qubits <= MAX_QUBITS:
            raise DomainError(
                f"n_qubits must be an integer in 1..{MAX_QUBITS}, got {self.n_qubits}"
            )
        self.n_qubits = int(self.n_qubits)
        if not isinstance(self.model, Model):
            raise DomainError(f"unknown model {self.model!r}")
        if self.model is Model.GENERAL_INJECTED:
            if self.noise is None or isinstance(self.noise, GateNoise):
                raise DomainError("injected model needs an explicit (t0, t1) outcome pair")
            self.noise = general_t_pair(self.n_qubits, *self.noise)
            if self.single_laws is None:
                raise DomainError("injected model needs single-qubit laws per window length")
        else:
            if self.rates is None:
                raise DomainError(f"{self.model.value} model needs emission rates")
            if self.model is Model.IDEAL_POISSON and self.noise is not None:
                raise DomainError("ideal model admits no gate noise; use the noisy model")
            if self.model is Model.NOISY_DECAYING and not isinstance(self.noise, GateNoise):
                raise DomainError("noisy-decaying model needs GateNoise parameters")

    @classmethod
    def ideal(cls, n_qubits: int, rates: RateParams) -> "SchemeConfig":
        return cls(n_qubits, Model.IDEAL_POISSON, rates=rates)

    @classmethod
    def noisy(cls, n_qubits: int, rates: RateParams, noise: GateNoise) -> "SchemeConfig":
        return cls(n_qubits, Model.NOISY_DECAYING, rates=rates, noise=noise)

    @classmethod
    def injected(cls, n_qubits: int, t_pair, single_laws) -> "SchemeConfig":
        return cls(n_qubits, Model.GENERAL_INJECTED, noise=t_pair, single_laws=single_laws)


@dataclass
class CompositeStats:
    """Composite count laws for the two preparations with cached moments."""

    p0: DiscreteDist
    p1: DiscreteDist
    t: float
    mean0: float
    var0: float
    mean1: float
    var1: float

    @classmethod
    def from_dists(cls, p0: DiscreteDist, p1: DiscreteDist, t: float) -> "CompositeStats":
        m0, v0 = moments(p0)
        m1, v1 = moments(p1)
        return cls(p0, p1, t, m0, v0, m1, v1)


@dataclass(frozen=True)
class MeritPoint:
    """One row of a sweep: merit figures of a scheme at one window length."""

    n_qubits: int
    t: float
    snr: float | None = None
    mi: float | None = None
    eta_opt: float | None = None

    def __post_init__(self):
        if self.mi is not None and not 0.0 <= self.mi <= 0.5 + 1e-12:
            raise DomainError(f"mi must lie in [0, 0.5], got {self.mi}")
        if self.snr is not None and self.snr < 0.0:
            raise DomainError(f"snr must be non-negative, got {self.snr}")


@dataclass(frozen=True)
class ThresholdAnalysis:
    """Analytic threshold location and the exponents of the two error tails."""

    alpha: float
    beta: float
    gamma0: float
    gamma1: float
    eta_analytic: float


def _laws_at(config: SchemeConfig, t: float) -> tuple[DiscreteDist, DiscreteDist]:
    provider = config.single_laws
    if callable(provider):
        return provider(t)
    try:
        return provider[t]
    except KeyError:
        raise DomainError(
            f"no injected single-qubit laws tabulated at t={t}; "
            "interpolation between window lengths is not performed"
        ) from None


def compose(config: SchemeConfig, t: float) -> CompositeStats:
    """Exact composite count laws of the scheme at window length t.

    For each preparation the composite law is the T-weighted mixture over
    the bright count q of (bright law)^(*q) convolved with
    (dark law)^(*(n-q)). Perfect entangling collapses the mixture to plain
    Poisson laws with n times the single-qubit mean. Mixture terms whose
    weight falls below WEIGHT_FLOOR are dropped and accounted for in the
    truncation loss of the result.
    """
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"window length must be finite and non-negative, got {t}")
    n = config.n_qubits
    if config.model is Model.IDEAL_POISSON:
        p0 = poisson_pmf(n * config.rates.mu0 * t)
        p1 = poisson_pmf(n * config.rates.mu1 * t)
    elif config.model is Model.NOISY_DECAYING:
        p0 = poisson_pmf(n * config.rates.mu0 * t)
        t1 = compiled_dist(n, config.noise)
        bright = decaying_poisson(DecayModelParams(config.rates, t))
        p1 = _two_sided_mix(t1, bright, lambda q: poisson_pmf((n - q) * config.rates.mu0 * t))
    else:
        t0, t1 = config.noise
        law0, law1 = _laws_at(config, t)
        p0 = _two_sided_mix(t0, law0, lambda q: n_fold_convolve(law1, n - q))
        p1 = _two_sided_mix(t1, law1, lambda q: n_fold_convolve(law0, n - q))
    return CompositeStats.from_dists(p0, p1, t)


def _two_sided_mix(t_dist: OutcomeDist, own_law: DiscreteDist, other_for_q) -> DiscreteDist:
    terms = []
    weights = []
    for q, w in enumerate(t_dist.probs):
        if w < WEIGHT_FLOOR:
            continue
        terms.append(convolve(n_fold_convolve(own_law, q), other_for_q(q)))
        weights.append(float(w))
    return mixture(terms, weights)


def _snr_from_moments(mean0: float, var0: float, mean1: float, var1: float) -> float:
    num = 2.0 * abs(mean1 - mean0)
    if num == 0.0:
        return 0.0
    den = math.sqrt(var0) + math.sqrt(var1)
    if den == 0.0:
        return math.inf
    return num / den


def snr_direct(stats: CompositeStats) -> float:
    """Signal-to-noise ratio straight from the composite moments.

    Twice the mean separation over the summed standard deviations. Equal
    means give zero; distinct means with both variances zero return the
    +inf sentinel for a perfectly resolvable pair.
    """
    return _snr_from_moments(stats.mean0, stats.var0, stats.mean1, stats.var1)


def snr_general(
    t_pair: tuple[OutcomeDist, OutcomeDist],
    single0: tuple[float, float],
    single1: tuple[float, float],
    n: int,
) -> float:
    """Composite SNR from single-qubit moments alone.

    Uses the mixture moment identities: the composite mean gap is the
    single-qubit gap scaled by |E[Q0] + E[Q1] - n|, and each composite
    variance splits into the mean count of qubits carrying either law
    times that law's variance, plus the mean-gap squared times the
    entangling outcome variance. Never materialises a distribution, so it
    is the fast path for optimisation loops.
    """
    t0, t1 = t_pair
    if t0.n_qubits != n or t1.n_qubits != n:
        raise DomainError(f"outcome laws are not for {n} qubits")
    m0, v0 = (float(x) for x in single0)
    m1, v1 = (float(x) for x in single1)
    for value in (m0, v0, m1, v1):
        if not math.isfinite(value):
            raise DomainError("single-qubit moments must be finite")
    eq0, vq0 = outcome_moments(t0)
    eq1, vq1 = outcome_moments(t1)
    gap = m1 - m0
    var0n = eq0 * v0 + (n - eq0) * v1 + gap * gap * vq0
    var1n = eq1 * v1 + (n - eq1) * v0 + gap * gap * vq1
    num = 2.0 * abs(gap) * abs(eq0 + eq1 - n)
    if num == 0.0:
        return 0.0
    den = math.sqrt(var0n) + math.sqrt(var1n)
    if den == 0.0:
        return math.inf
    return num / den


def _single_moments_and_pair(config: SchemeConfig, t: float):
    n = config.n_qubits
    if config.model is Model.IDEAL_POISSON:
        perfect = point_outcome(n, n)
        m0 = config.rates.mu0 * t
        m1 = config.rates.mu1 * t
        return (m0, m0), (m1, m1), (perfect, perfect)
    if config.model is Model.NOISY_DECAYING:
        m0 = config.rates.mu0 * t
        bright = decaying_poisson_moments(DecayModelParams(config.rates, t))
        pair = (point_outcome(n, n), compiled_dist(n, config.noise))
        return (m0, m0), bright, pair
    law0, law1 = _laws_at(config, t)
    return moments(law0), moments(law1), config.noise


def scheme_snr(config: SchemeConfig, t: float) -> float:
    """SNR of the scheme at window length t, via the moment-only fast path."""
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"window length must be finite and non-negative, got {t}")
    single0, single1, pair = _single_moments_and_pair(config, t)
    return snr_general(pair, single0, single1, config.n_qubits)


def mi_optimal(stats: CompositeStats) -> tuple[float, float]:
    """Misclassification infidelity minimised over integer count thresholds.

    A threshold eta assigns outcome one to counts k >= eta. The scan
    covers every integer cut through the union support including the two
    degenerate cuts that classify everything one way, so the result never
    exceeds one half. Ties resolve to the smallest threshold.
    """
    lo = min(stats.p0.offset, stats.p1.offset)
    hi = max(stats.p0.k_max, stats.p1.k_max)
    e0 = _window(stats.p0, lo, hi)
    e1 = _window(stats.p1, lo, hi)
    tail0 = np.concatenate((np.cumsum(e0[::-1])[::-1], [0.0]))
    head1 = np.concatenate(([0.0], np.cumsum(e1)))
    mi = 0.5 * (tail0 + head1)
    j = int(np.argmin(mi))
    return float(mi[j]), float(lo + j)


def threshold_analytic(rates: RateParams, n: int, t: float) -> ThresholdAnalysis:
    """Ideal-model threshold where the two scaled Poisson laws cross.

    With alpha = mu0/mu1 and beta = (1/alpha - 1)/ln(1/alpha) the crossing
    sits at eta = mu0*n*t*beta, and the two error tails decay with the
    strictly positive exponents gamma0 and gamma1 per unit of mu0*n*t and
    mu1*n*t respectively.
    """
    if rates.mu0 <= 0.0 or rates.mu0 >= rates.mu1:
        raise DomainError("analytic threshold needs 0 < mu0 < mu1")
    if n != int(n) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"window length must be finite and non-negative, got {t}")
    alpha = rates.mu0 / rates.mu1
    beta = (1.0 / alpha - 1.0) / math.log(1.0 / alpha)
    gamma0 = beta * math.log(beta) + 1.0 - beta
    gamma1 = alpha * beta * math.log(alpha * beta) + 1.0 - alpha * beta
    eta = rates.mu0 * n * t * beta
    return ThresholdAnalysis(alpha, beta, gamma0, gamma1, eta)


def _is_effectively_ideal(config: SchemeConfig) -> bool:
    if config.model is Model.IDEAL_POISSON:
        return True
    return (
        config.model is Model.NOISY_DECAYING
        and config.noise.p == 0.0
        and config.rates.lam == 0.0
    )


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a: float, b: float, rel_tol: float) -> tuple[float, float]:
    best_t, best_v = a, f(a)
    vb = f(b)
    if vb > best_v:
        best_t, best_v = b, vb
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > rel_tol * b:
        if fc > best_v:
            best_t, best_v = c, fc
        if fd > best_v:
            best_t, best_v = d, fd
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
    return best_t, best_v


def peak_snr(
    config: SchemeConfig,
    *,
    bracket: tuple[float, float] = PEAK_BRACKET,
    grid_points: int = PEAK_GRID_POINTS,
) -> tuple[float, float]:
    """Largest attainable SNR and the window length attaining it.

    Scans a log-spaced grid over the bracket, then refines around the grid
    argmax by golden-section search to a relative window tolerance of
    1e-6. A scheme with perfect gates and no decay has no peak (SNR grows
    as sqrt(t) without bound) and returns the (inf, inf) sentinel.
    """
    if _is_effectively_ideal(config):
        return math.inf, math.inf
    ts = np.geomspace(bracket[0], bracket[1], grid_points)
    vals = np.array([scheme_snr(config, t) for t in ts])
    i = int(np.argmax(vals))
    a = ts[max(i - 1, 0)]
    b = ts[min(i + 1, ts.size - 1)]
    t_best, s_best = _golden_max(lambda t: scheme_snr(config, t), a, b, 1e-6)
    if vals[i] > s_best:
        return float(vals[i]), float(ts[i])
    return float(s_best), float(t_best)


def time_to_snr(
    config: SchemeConfig, target_s: float, *, rel_tol: float = 1e-12
) -> float | None:
    """Smallest window length whose SNR reaches target_s, or None.

    An effectively ideal scheme has SNR 2*sqrt(n*t)*(mu1-mu0)/(sqrt(mu0) +
    sqrt(mu1)); its closed-form crossing is stepped by ulps onto the
    smallest float reaching the target. Otherwise the crossing is
    bracketed on the rising branch and bisected down to the relative
    window tolerance (the default is far inside the 1e-9 contract, so
    downstream ratios of solve results keep nine digits). Peaked schemes
    whose maximum stays below the target return None.
    """
    if not target_s > 0.0:
        raise DomainError(f"target SNR must be positive, got {target_s}")

    def f(t: float) -> float:
        return scheme_snr(config, t)

    if _is_effectively_ideal(config):
        gap = config.rates.mu1 - config.rates.mu0
        spread = math.sqrt(config.rates.mu0) + math.sqrt(config.rates.mu1)
        root = target_s * spread / (2.0 * gap) if gap > 0.0 else math.inf
        t = root * root / config.n_qubits
        if not math.isfinite(t):
            return None
        while f(t) < target_s:
            t = math.nextafter(t, math.inf)
        while f(below := math.nextafter(t, 0.0)) >= target_s:
            t = below
        return t
    s_max, t_peak = peak_snr(config)
    if not s_max >= target_s:
        return None
    hi = t_peak
    lo = t_peak
    while lo > 0.0 and f(lo) >= target_s:
        lo *= 0.5
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) >= target_s:
            hi = mid
        else:
            lo = mid
    return hi


def gaussian_scheme_snr(drift_rate: float, n: int, t: float) -> float:
    """SNR of the entangled scheme for linear-drift Gaussian readout.

    The two preparations drift apart linearly at +-drift_rate per qubit
    while the spreads grow with the square root of the drift, so the
    composite SNR is 2*sqrt(n*drift_rate*t). Doubling time and doubling
    qubits are exactly interchangeable here.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    drift_rate = float(drift_rate)
    t = float(t)
    if not (math.isfinite(drift_rate) and drift_rate > 0.0):
        raise DomainError(f"drift rate must be positive and finite, got {drift_rate}")
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"window length must be positive and finite, got {t}")
    return 2.0 * math.sqrt(n * drift_rate * t)


def estimate_time_exponent(ts, snrs) -> float:
    """Exponent a in SNR ~ t**a over the given window, by log-log fit."""
    ts = np.asarray(ts, dtype=np.float64)
    snrs = np.asarray(snrs, dtype=np.float64)
    if ts.size < 2 or ts.shape != snrs.shape:
        raise DomainError("need at least two matching (t, snr) samples")
    if np.any(ts <= 0.0) or np.any(snrs <= 0.0):
        raise DomainError("log-log fit needs positive samples")
    return float(np.polyfit(np.log(ts), np.log(snrs), 1)[0])

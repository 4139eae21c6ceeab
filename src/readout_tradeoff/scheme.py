"""Composite readout statistics and the figures of merit built on them.

A scheme entangles n_qubits copies of the prepared state and counts all
emitted photons in one detector. The composite count laws for the two
preparations mix convolution powers of the single-qubit laws over the
entangling outcome, a polynomial in the prepared state's law that is
evaluated by Horner's rule. Every merit figure (signal-to-noise ratio,
misclassification infidelity, timing solutions) derives from those two
laws or, where only moments are needed, from the moment identities of
the same mixture.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dist as _dist
from .decay import DecayModelParams, _all, _scalar_window_length, _where, _window_length
from .decay import decaying_poisson, decaying_poisson_moments
from .dist import (
    DiscreteDist,
    DomainError,
    RateParams,
    _convolve_by_cost,
    _convolve_masses,
    _fold,
    _instance,
    _integer,
    _real,
    _real_array,
    _window,
    convolve,
    moments,
    n_fold_convolve,
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
    "SchemeConfig",
    "ThresholdAnalysis",
    "compose",
    "estimate_time_exponent",
    "gaussian_scheme_snr",
    "mi_optimal",
    "peak_snr",
    "scheme_snr",
    "snr_direct",
    "threshold_analytic",
    "time_to_snr",
]

MAX_QUBITS = 64
# Mixture terms below this weight are dropped; with at most MAX_QUBITS + 1
# terms the induced mass error stays under 1e-13.
WEIGHT_FLOOR = 1e-15

PEAK_BRACKET = (1e-3, 1e3)
PEAK_GRID_POINTS = 64
_PEAK_GRID = np.geomspace(*PEAK_BRACKET, PEAK_GRID_POINTS)
_PEAK_GRID.setflags(write=False)

_MIN_POSITIVE = math.ulp(0.0)  # _real's lo for an argument that must be positive
_N_QUBITS = f"n_qubits must be an integer in 1..{MAX_QUBITS}, got {{}}"
_POSITIVE_N = "n must be a positive integer, got {}"


@dataclass(frozen=True)
class SchemeConfig:
    """Everything needed to evaluate one readout scheme.

    The type of ``noise`` tells where the entangling outcomes and the
    single-qubit laws come from:

    - a ``GateNoise``: failing gates per ``noise`` plus single-decay
      emission statistics from ``rates``; ``ideal()`` is its p = 0,
      lam = 0 point.
    - an explicit (t0, t1) outcome pair: an injected scheme, whose
      single-qubit count laws come from ``single_laws``, a callable
      t -> (law0, law1) defined at every window length.
    """

    n_qubits: int
    rates: RateParams | None = None
    noise: GateNoise | tuple[OutcomeDist, OutcomeDist] | None = None
    single_laws: Callable[[float], tuple[DiscreteDist, DiscreteDist]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _integer(self.n_qubits, _N_QUBITS, 1, MAX_QUBITS))
        if isinstance(self.noise, GateNoise):
            _instance(self.rates, RateParams, "rates")
            return
        try:
            t0, t1 = self.noise
        except (TypeError, ValueError):
            raise DomainError("noise must be GateNoise or a (t0, t1) outcome pair") from None
        object.__setattr__(self, "noise", general_t_pair(self.n_qubits, t0, t1))
        if not callable(self.single_laws):
            # a table keyed by t would fail deep inside the timing solvers
            raise DomainError("an injected scheme needs single_laws as a callable t -> laws")

    @functools.cached_property
    def outcomes(self) -> tuple[OutcomeDist, OutcomeDist]:
        """Entangling outcome laws (T0, T1); t-independent, so built once."""
        if not isinstance(self.noise, GateNoise):
            return self.noise
        n = self.n_qubits
        return point_outcome(n, n), compiled_dist(n, self.noise)

    @functools.cached_property
    def q_moments(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """(E[Q], Var[Q]) of T0 and of T1, for the moment route."""
        return tuple(outcome_moments(t) for t in self.outcomes)

    @classmethod
    def ideal(cls, n_qubits: int, rates: RateParams) -> "SchemeConfig":
        """Perfect gates and no decay: the noisy model at p = 0, lam = 0."""
        clean = RateParams(rates.mu0, rates.mu1, 0.0) if isinstance(rates, RateParams) else rates
        return cls.noisy(n_qubits, clean, GateNoise(0.0))

    @classmethod
    def noisy(cls, n_qubits: int, rates: RateParams, noise: GateNoise) -> "SchemeConfig":
        return cls(n_qubits, rates=rates, noise=noise)

    @classmethod
    def injected(cls, n_qubits: int, t_pair, single_laws) -> "SchemeConfig":
        return cls(n_qubits, noise=t_pair, single_laws=single_laws)


@dataclass
class CompositeStats:
    """Composite count laws for the two preparations at window length t."""

    p0: DiscreteDist
    p1: DiscreteDist
    t: float


@dataclass(frozen=True)
class ThresholdAnalysis:
    """Analytic threshold location and the exponents of the two error tails."""

    alpha: float
    beta: float
    gamma0: float
    gamma1: float
    eta_analytic: float


def _single_moments(config: SchemeConfig, t):
    """(mean, variance) of the dark and of the bright single-qubit law at t (or each t)."""
    if not isinstance(config.noise, GateNoise):  # single_laws takes one t at a time
        rows = [moments(a) + moments(b) for a, b in map(config.single_laws, np.ravel(t).tolist())]
        return np.reshape(rows, (-1, 4)).T.reshape((2, 2) + np.shape(t))
    dark = config.rates.mu0 * t  # an overflow fails in _moment_snr
    # at lam = 0 this is exactly (mu1*t, mu1*t), the ideal bright moments
    return (dark, dark), decaying_poisson_moments(DecayModelParams._checked(config.rates, t))


def _single_folds(config: SchemeConfig, t: float):
    """The dark and the bright law's convolution powers, q -> law^(*q), at t.

    Poisson laws add: q qubits emitting at rate mu count one Pois(q*mu*t).
    That covers the dark law and, in a scheme without decay (_no_decay),
    the bright law. Any other law is folded by convolution; the decayed law
    is built on its first fold, so a scheme that never folds it never
    builds it.
    """
    if not isinstance(config.noise, GateNoise):
        law0, law1 = config.single_laws(t)
        return _powers(lambda: law0), _powers(lambda: law1)

    def poisson(mu: float):
        return lambda q: poisson_pmf(q * mu * t)

    rates = config.rates
    if _no_decay(config):
        return poisson(rates.mu0), poisson(rates.mu1)
    return poisson(rates.mu0), _powers(lambda: decaying_poisson(DecayModelParams(rates, t)))


def _powers(build):
    """q -> law^(*q) for the law build() returns, built on the first call.

    The last power is kept: asked for one more fold, as compose's Horner
    loop asks for the other side's law, it is extended by one convolution,
    a running product. Any other request goes through n_fold_convolve.
    """
    law = last = None

    def fold(q: int) -> DiscreteDist:
        nonlocal law, last
        if law is None:
            law = build()
        if last is not None and q == last[0] + 1:
            power = convolve(last[1], law)
        else:
            power = n_fold_convolve(law, q)
        last = (q, power)
        return power

    return fold


def compose(config: SchemeConfig, t: float) -> CompositeStats:
    """Exact composite count laws of the scheme at window length t.

    For each preparation the composite law is the T-weighted mixture over
    the count q of qubits carrying the prepared state's law of (that
    law)^(*q) convolved with (the other law)^(*(n-q)), evaluated by
    Horner's rule in powers of the prepared state's law, in blocks of about
    sqrt(n) outcomes with one transform each once a law outgrows the direct
    path. Mixture terms whose weight falls below WEIGHT_FLOOR are dropped
    and accounted for in the truncation loss of the result.
    """
    _instance(config, SchemeConfig, "config")
    t = _scalar_window_length(t)
    dark, bright = _single_folds(config, t)
    t0, t1 = config.outcomes
    return CompositeStats(_two_sided_mix(t0, dark, bright), _two_sided_mix(t1, bright, dark), t)


def _two_sided_mix(t_dist: OutcomeDist, own_fold, other_fold) -> DiscreteDist:
    """sum_q w_q own^(*q) * other^(*(n-q)) over the kept outcomes q.

    Horner's rule in blocks of consecutive q. A block steps from its largest
    q down to its base, G <- G * own + w_q other^(*(n-q)), adding a term only
    where q is kept: one convolution with the single-qubit law per step, for
    a sum relative to own^(*base). If own^(*q_top) fits in DIRECT_CONV_LIMIT
    points, one block is the whole sum, and each step takes the kernel
    _convolve_masses picks by the larger size. A longer law takes blocks of
    isqrt(q_top + 1), joined by _spectral_horner. Its bins come out of an
    inverse FFT, accurate only in absolute terms, so its steps take the
    kernel _convolve_by_cost prices lower. The other side's powers are
    asked for in increasing n - q, so a law without additivity builds them as
    a running product (see _powers). Partial sums do not sum to one, so they
    stay raw mass arrays, and FFT rounding noise is clipped once at the end.
    """
    n = t_dist.n_qubits
    kept = [(q, float(w)) for q, w in enumerate(t_dist.probs) if w >= WEIGHT_FLOOR]
    if kept == [(n, 1.0)]:
        # every qubit carries its own law: no mixture, nothing to convolve
        return own_fold(n)
    weights = dict(kept)
    q_top = kept[-1][0]
    own = own_fold(1) if q_top else None
    blocked = q_top and q_top * (own.masses.size - 1) >= _dist.DIRECT_CONV_LIMIT
    size = math.isqrt(q_top + 1) if blocked else q_top + 1
    conv = _convolve_by_cost if blocked else _convolve_masses
    blocks = []  # (base, lo, acc) from the top block down; acc None where nothing is kept
    for base in range(q_top - q_top % size, -1, -size):
        lo = acc = None
        for q in range(min(base + size - 1, q_top), base - 1, -1):
            if acc is not None:
                lo, acc = lo + own.offset, conv(acc, own.masses)
            if q in weights:
                term = other_fold(n - q)
                if acc is None:
                    lo, acc = term.offset, weights[q] * term.masses
                    continue
                start, stop = min(lo, term.offset), max(lo + acc.size, term.k_max + 1)
                acc = np.concatenate((np.zeros(lo - start), acc, np.zeros(stop - lo - acc.size)))
                lo = start
                acc[term.offset - lo : term.k_max + 1 - lo] += weights[q] * term.masses
        blocks.append((base, lo, acc))
    lo, acc = blocks[0][1:] if size > q_top else _spectral_horner(blocks, own, size)
    np.maximum(acc, 0.0, out=acc)
    return DiscreteDist(lo, acc)


def _spectral_horner(blocks, own: DiscreteDist, size: int):
    """(lo, masses) of the sum of own^(*base) * acc over the blocks, bases size apart.

    Horner's rule at the finished law's FFT length, G <- G * FFT(own^(*size)) +
    FFT(acc): one transform per block, one of own^(*size) and one inverse. The
    power is built in the time domain, by squaring with the kernel
    _convolve_by_cost prices lower; FFT(own)**size rounds once per factor.
    """
    import scipy.fft as fft  # loaded by the first blocked law, not by the package

    lo = min(s + b * own.offset for b, s, a in blocks if a is not None)
    hi = max(s + a.size - 1 + b * own.k_max for b, s, a in blocks if a is not None)
    length = fft.next_fast_len(hi - lo + 1, True)
    step = fft.rfft(_fold(own.masses, size, _convolve_by_cost), length)
    g = 0.0
    for base, start, acc in blocks:
        x = np.zeros(length)
        if acc is not None:
            x[start + base * own.offset - lo :][: acc.size] = acc
        g = g * step + fft.rfft(x)
    return lo, fft.irfft(g, length)[: hi - lo + 1]


def _snr_from_moments(mean_gap, var0, var1):
    # 0 for equal means, +inf for distinct ones without spread (numpy errors ignored)
    num = 2.0 * abs(mean_gap)
    return _where(num == 0.0, 0.0, num / (np.sqrt(var0) + np.sqrt(var1)))


def snr_direct(stats: CompositeStats) -> float:
    """Signal-to-noise ratio straight from the composite moments.

    Twice the mean separation over the summed standard deviations. Equal
    means give zero; distinct means with both variances zero return the
    +inf sentinel for a perfectly resolvable pair.
    """
    _instance(stats, CompositeStats, "stats")
    (mean0, var0), (mean1, var1) = moments(stats.p0), moments(stats.p1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(_snr_from_moments(mean1 - mean0, var0, var1))


def _moment_snr(q_moments, single0, single1, n: int, t):
    # Composite SNR from (E[Q], Var[Q]) of T0 and T1 and the single-qubit
    # (mean, variance) pairs at t, over floats or arrays, by the mixture moment
    # identities: the mean gap is the single-qubit gap times |E[Q0] + E[Q1] - n|,
    # summed as (E[Q0] - n) + E[Q1], exactly E[Q1] where T0 keeps all n dark,
    # and each variance is the mean count of qubits carrying either law times
    # that law's variance, plus the gap squared times the outcome variance.
    # A NaN or overflowed moment (the gap squared can overflow where the single
    # moments do not) spoils both variances, reading as SNR nan or 0: it raises.
    (m0, v0), (m1, v1) = single0, single1
    (eq0, vq0), (eq1, vq1) = q_moments
    gap = m1 - m0
    var0n = eq0 * v0 + (n - eq0) * v1 + gap * gap * vq0
    var1n = eq1 * v1 + (n - eq1) * v0 + gap * gap * vq1
    ok = (abs(var0n) < math.inf) & (abs(var1n) < math.inf)
    if not _all(ok):
        bad = np.min(np.where(ok, np.inf, t))
        raise DomainError(f"count moments are not finite at window length t={bad} ms")
    return _snr_from_moments(gap * ((eq0 - n) + eq1), var0n, var1n)


def scheme_snr(config: SchemeConfig, t):
    """SNR of the scheme at window length t, via the moment-only fast path.

    t is a float, or an ndarray of t giving the array of the float calls'
    results in one pass. A window so long that a count moment overflows
    raises the float call's DomainError at the smallest such t.
    """
    _instance(config, SchemeConfig, "config")
    t = _window_length(t)
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # _moment_snr raises
            snr = _moment_snr(config.q_moments, *_single_moments(config, t), config.n_qubits, t)
    except DomainError:  # the first moment to fail depends on t
        for x in np.sort(t, axis=None) if isinstance(t, np.ndarray) else ():
            scheme_snr(config, float(x))
        raise
    return snr if isinstance(t, np.ndarray) else float(snr)


def mi_optimal(stats: CompositeStats) -> tuple[float, float]:
    """Misclassification infidelity minimised over integer count thresholds.

    A threshold eta assigns outcome one to counts k >= eta. The scan
    covers every integer cut through the union support including the two
    degenerate cuts that classify everything one way, so the result never
    exceeds one half. Ties resolve to the smallest threshold.

    The mass the laws dropped can lie on either side of a cut, so the true
    minimum is between the result and the result plus (p0.truncation_loss +
    p1.truncation_loss)/2: a result below about that is not resolved.
    """
    _instance(stats, CompositeStats, "stats")
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
    n = _integer(n, _POSITIVE_N, 1)
    t = _scalar_window_length(t)
    alpha = rates.mu0 / rates.mu1
    beta = (1.0 / alpha - 1.0) / math.log(1.0 / alpha)
    gamma0 = beta * math.log(beta) + 1.0 - beta
    gamma1 = alpha * beta * math.log(alpha * beta) + 1.0 - alpha * beta
    eta = rates.mu0 * n * t * beta
    return ThresholdAnalysis(alpha, beta, gamma0, gamma1, eta)


def _no_decay(config: SchemeConfig) -> bool:
    # Both single-qubit laws are Poisson: the closed-form case of compose's
    # folds, of peak_snr and of time_to_snr, whatever the gates do.
    return isinstance(config.noise, GateNoise) and config.rates.lam == 0.0


def _no_decay_supremum(config: SchemeConfig) -> float:
    # SNR's limit as t -> inf without decay (see peak_snr), inf for perfect gates:
    # the gap term outgrows the spread of Poisson counts, as if the single-qubit
    # laws were the point masses 0 and 1.
    with np.errstate(divide="ignore"):
        return float(_moment_snr(config.q_moments, (0.0, 0.0), (1.0, 0.0), config.n_qubits, 0.0))


def peak_snr(config: SchemeConfig) -> tuple[float, float]:
    """Largest attainable SNR and the window length attaining it.

    Scans a log-spaced grid of PEAK_GRID_POINTS over PEAK_BRACKET (one
    array scheme_snr call), then refines between the grid argmax's
    neighbours with Brent's bounded maximiser to a window tolerance of 1e-6
    of the upper neighbour; the grid point is kept if the refined value
    falls short of it.

    A scheme with no signal anywhere on the grid (every gate failing, or
    equal emission rates) has no peak and returns (0.0, nan). A scheme
    without decay has none either: with T0 keeping all n qubits dark, its
    SNR 2*gap*E[Q1]*sqrt(t)/(sqrt(n*mu0) + sqrt(B + gap**2*Var[Q1]*t)), where
    gap = mu1 - mu0 and B = E[Q1]*mu1 + (n - E[Q1])*mu0, rises monotonically
    towards its supremum 2*E[Q1]/sqrt(Var[Q1]). It returns (sup, inf), and
    sup is inf for perfect gates, as for any single qubit.
    """
    ts = _PEAK_GRID
    vals = scheme_snr(config, ts)
    if not vals.any():
        return 0.0, math.nan
    if _no_decay(config):
        return _no_decay_supremum(config), math.inf
    from scipy import optimize  # only the two solvers need it: a third of the import time

    i = int(np.argmax(vals))
    a = ts[max(i - 1, 0)]
    b = ts[min(i + 1, ts.size - 1)]
    best = optimize.minimize_scalar(
        lambda t: -scheme_snr(config, t),
        bounds=(a, b),
        method="bounded",
        options={"xatol": 1e-6 * b},
    )
    if vals[i] > -best.fun:
        return float(vals[i]), float(ts[i])
    return float(-best.fun), float(best.x)


def time_to_snr(config: SchemeConfig, target_s: float) -> float | None:
    """Smallest window length whose SNR reaches target_s, or None.

    The result t is the smallest float with scheme_snr(config, t) >=
    target_s: the float just below it falls short of the target.

    A scheme without decay starts from its closed-form crossing (its SNR
    is in peak_snr): with k = 2*gap*E[Q1], c = (target_s*gap)**2 * Var[Q1]
    and a = n*mu0, SNR = target_s is a quadratic in u = sqrt(t) whose one
    positive root, for a target below the supremum (k*k > c), is
    u = target_s*(k*sqrt(a) + sqrt(k*k*a + (k*k - c)*(B - a)))/(k*k - c).
    B - a = E[Q1]*gap, so no term cancels; at Var[Q1] = 0 this is the ideal
    t = target_s**2*(sqrt(mu0) + sqrt(mu1))**2/(4*n*gap**2). Any other
    scheme rises from SNR 0 at t = 0 to its peak, so Brent's root finder on
    [0, t_peak] starts from a valid bracket. Either estimate is then
    snapped onto the crossing by bisection over floats.

    None means no window reaches the target: it lies above the peak, or,
    without decay, at or above the supremum, or so close below it that
    k*k - c rounds to zero or less, or the crossing is past the largest float.
    """
    _instance(config, SchemeConfig, "config")
    target_s = _real(target_s, "target SNR must be positive, got {}", _MIN_POSITIVE, math.inf)

    f = functools.partial(scheme_snr, config)
    if _no_decay(config):
        (eq1, vq1), gap = config.q_moments[1], config.rates.mu1 - config.rates.mu0
        k = 2.0 * gap * eq1
        ka = k * math.sqrt(config.n_qubits * config.rates.mu0)
        d = k * k - (target_s * gap) * (target_s * gap) * vq1  # k*k - c; products overflow to inf
        u = target_s * (ka + math.sqrt(ka * ka + d * eq1 * gap)) / d if d > 0.0 else math.inf
        t = u * u if target_s < _no_decay_supremum(config) else math.inf
    else:
        s_max, t_peak = peak_snr(config)
        if not s_max >= target_s:
            return None
        from scipy import optimize

        t = optimize.brentq(lambda x: f(x) - target_s, 0.0, t_peak, xtol=1e-300)
    if not math.isfinite(t):
        return None
    # Snap onto the crossing in floats: widen [lo, hi] around t by doubling
    # steps until f(lo) < target <= f(hi), then halve it to adjacent floats.
    # Near its peak the SNR is flat over ~1e8 floats, so stepping one float
    # at a time from a root that meets a near-peak target could run for hours.
    lo = hi = t
    step = math.ulp(t)
    while f(hi) < target_s:
        lo, hi, step = hi, hi + step, 2.0 * step
    while lo == hi or f(lo) >= target_s:
        hi, lo, step = lo, max(lo - step, 0.0), 2.0 * step
    while (mid := lo + 0.5 * (hi - lo)) not in (lo, hi):
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
    n = _integer(n, _POSITIVE_N, 1)
    drift_rate = _real(drift_rate, "drift rate must be positive and finite, got {}", _MIN_POSITIVE)
    t = _real(t, "window length must be positive and finite, got {}", _MIN_POSITIVE)
    return 2.0 * math.sqrt(n * drift_rate * t)


def estimate_time_exponent(ts, snrs) -> float:
    """Exponent a in SNR ~ t**a over the given window, by log-log fit."""
    ts = _real_array(ts, "log-log fit needs real samples")
    snrs = _real_array(snrs, "log-log fit needs real samples")
    if ts.ndim != 1 or ts.size < 2 or ts.shape != snrs.shape:
        raise DomainError("need at least two matching (t, snr) samples")
    if not (np.isfinite(ts).all() and np.isfinite(snrs).all()):
        raise DomainError("log-log fit needs finite samples")
    if np.any(ts <= 0.0) or np.any(snrs <= 0.0):
        raise DomainError("log-log fit needs positive samples")
    return float(np.polyfit(np.log(ts), np.log(snrs), 1)[0])

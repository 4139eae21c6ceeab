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
from .decay import DecayModelParams, _moments_at, _window_length, decaying_poisson
from .dist import (
    DiscreteDist,
    DomainError,
    RateParams,
    _check_span,
    _convolve_masses,
    _convolve_rows_by_cost,
    _fold,
    _instance,
    _integer,
    _laid_out,
    _next_fast_len,
    _real,
    _real_array,
    _union,
    convolve,
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
_PEAK_GRID = tuple(np.geomspace(*PEAK_BRACKET, PEAK_GRID_POINTS).tolist())  # checked window lengths

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

    The field the tier does not read, ``single_laws`` or ``rates``, must
    be left as None.
    """

    n_qubits: int
    rates: RateParams | None = None
    noise: GateNoise | tuple[OutcomeDist, OutcomeDist] | None = None
    single_laws: Callable[[float], tuple[DiscreteDist, DiscreteDist]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _integer(self.n_qubits, _N_QUBITS, 1, MAX_QUBITS))
        if isinstance(self.noise, GateNoise):
            _instance(self.rates, RateParams, "rates")
            if self.single_laws is not None:
                raise DomainError("a GateNoise scheme reads no single_laws: its laws come from rates")
            return
        try:
            t0, t1 = self.noise
        except (TypeError, ValueError):
            raise DomainError("noise must be GateNoise or a (t0, t1) outcome pair") from None
        object.__setattr__(self, "noise", general_t_pair(self.n_qubits, t0, t1))
        if self.rates is not None:
            raise DomainError("an injected scheme reads no rates: its laws come from single_laws")
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

    @functools.cached_property
    def _snr(self) -> Callable[[float], float]:
        """The moment route's kernel, t -> SNR at a checked window length t."""
        if isinstance(self.noise, GateNoise):
            return _snr_kernel(self.q_moments, self.n_qubits, _moments_at(self.rates))

        def singles(t: float) -> tuple[float, ...]:  # an injected scheme's (m0, v0, m1, v1)
            return sum(map(moments, _single_laws(self, t)), ())

        return _snr_kernel(self.q_moments, self.n_qubits, singles)

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

    def __post_init__(self):
        _instance(self.p0, DiscreteDist, "p0")
        _instance(self.p1, DiscreteDist, "p1")


@dataclass(frozen=True)
class ThresholdAnalysis:
    """Analytic threshold location and the exponents of the two error tails."""

    alpha: float
    beta: float
    gamma0: float
    gamma1: float
    eta_analytic: float


def _single_folds(config: SchemeConfig, t: float):
    """The dark and the bright side at t, each a pair: a callable returning the
    single-qubit law, built on its first call, and q -> law^(*q) in closed
    form, or None.

    Poisson laws add: q qubits emitting at rate mu count one Pois(q*mu*t).
    That covers the dark law and, in a scheme without decay (_no_decay),
    the bright law. Any other law has no closed-form power: compose folds it
    by convolution, so a scheme that never folds the decayed law never builds it.
    """
    if not isinstance(config.noise, GateNoise):
        law0, law1 = _single_laws(config, t)
        return (lambda: law0, None), (lambda: law1, None)

    def poisson(mu: float):
        return lambda: poisson_pmf(mu * t), lambda q: poisson_pmf(q * mu * t)

    rates = config.rates
    if _no_decay(config):
        return poisson(rates.mu0), poisson(rates.mu1)
    decayed = functools.cache(lambda: decaying_poisson(DecayModelParams(rates, t)))
    return poisson(rates.mu0), (decayed, None)


def _single_laws(config: SchemeConfig, t: float):
    """The (law0, law1) pair an injected scheme's single_laws returns at t."""
    laws = config.single_laws(t)
    try:
        law0, law1 = laws
    except (TypeError, ValueError):
        message = f"single_laws must return a (law0, law1) pair, got {laws!r} at t={t} ms"
        raise DomainError(message) from None
    return law0, law1


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
    t = _window_length(t)
    dark, bright = _single_folds(config, t)
    t0, t1 = config.outcomes
    return CompositeStats(_two_sided_mix(t0, dark, bright), _two_sided_mix(t1, bright, dark), t)


def _two_sided_mix(t_dist: OutcomeDist, own_side, other_side) -> DiscreteDist:
    """sum_q w_q own^(*q) * other^(*(n-q)) over the kept outcomes q.

    Horner's rule in blocks of consecutive q. A block steps from its top q down
    to its base, G <- G * own + w_q term_q, one convolution with the single-qubit
    law per step. If own^(*q_top) fits in DIRECT_CONV_LIMIT points, one block,
    its top at n, stepped by _convolve_masses, is the sum. A longer law takes
    blocks of isqrt(q_top + 1), the top one ending at q_top, joined by
    _spectral_horner, whose bins are accurate only in absolute terms: step j of
    every block is one batched _convolve_rows_by_cost call. A closed-form other
    side gives term_q = other^(*(n-q)), for a sum relative to own^(*base). Any
    other has term_q = other^(*j) at step j, one running product shared by every
    block, for a sum relative to own^(*base) * other^(*(n - top)). A term inside
    its sum's span is added in place; FFT noise is clipped at the end.
    """
    (own_law, own_closed), (other_law, closed) = own_side, other_side
    n = t_dist.n_qubits
    kept = [(q, float(w)) for q, w in enumerate(t_dist.probs) if w >= WEIGHT_FLOOR]
    if kept == [(n, 1.0)]:
        # every qubit carries its own law: no mixture, nothing to convolve
        return own_closed(n) if own_closed else n_fold_convolve(own_law(), n)
    weights = dict(kept)
    q_top = kept[-1][0]
    own = own_law() if q_top else point_mass(0)
    # the sum holds own^(*q_top), so it spans no fewer counts
    _check_span(q_top * own.offset, q_top * own.k_max, f"{q_top}-fold law")
    blocked = q_top * (own.masses.size - 1) >= _dist.DIRECT_CONV_LIMIT
    size, top = (math.isqrt(q_top + 1), q_top) if blocked else (n + 1, n)
    # [base, depth, lo, acc] from the top block down, whose top % size + 1 steps
    # end first; depth is the power of other that the block's sum leaves out
    bases = range(top - top % size, -1, -size)
    blocks = [[base, 0 if closed else n - min(base + size - 1, top), None, None] for base in bases]
    if not closed:
        other = other_law()
        # the last step at which a block keeps a term
        reach = max(min(q - q % size + size - 1, top) - q for q in weights)
    for j in range(size):
        steps = blocks[1:] if j > top % size else blocks
        if blocked:  # the sums are popped, so a batch frees its old rows as it ends
            live = [b for b in steps if b[3] is not None]
            for b, acc in zip(live, _convolve_rows_by_cost([b.pop() for b in live], own.masses)):
                b[2:] = b[2] + own.offset, acc
        elif blocks[0][3] is not None:  # the one block
            blocks[0][2:] = blocks[0][2] + own.offset, _convolve_masses(blocks[0][3], own.masses)
        if not closed and j <= reach:
            power = point_mass(0) if j == 0 else other if j == 1 else convolve(power, other)
        for b in steps:
            q = min(b[0] + size - 1, top) - j
            if q not in weights:
                continue
            term = closed(n - q) if closed else power
            part = weights[q] * term.masses
            if b[3] is None:
                b[2:] = term.offset, part
            elif b[2] <= term.offset and term.k_max < b[2] + b[3].size:
                b[3][term.offset - b[2] :][: part.size] += part
            else:
                b[2:] = _laid_out(((b[2], b[3]), (term.offset, part)), "composite law")
    lo, acc = blocks[0][2:]
    if blocked:  # a closed side's depths are all 0: it joins no power of other
        lo, acc = _spectral_horner(blocks, own, size, point_mass(0) if closed else other)
    np.maximum(acc, 0.0, out=acc)
    return DiscreteDist(lo, acc)


def _spectral_horner(blocks, own: DiscreteDist, size: int, other: DiscreteDist):
    """(lo, masses) of the sum of own^(*base) * other^(*depth) * acc over the
    blocks, bases size apart.

    Horner's rule at the finished law's FFT length, G <- G * FFT(own^(*size)) +
    F * FFT(acc) in place: one transform per block through one zero buffer (a
    batch would hold every block's spectrum at once), one of own^(*size), built
    in the time domain by squaring (FFT(own)**size rounds per factor), one
    inverse. F = FFT(other^(*depth)) grows by FFT(other^(*gap)) from block to
    block; the depths n - q_top, then q_top % size + 1 and size apart, need at
    most three powers, each built once by n_fold_convolve and transformed once.
    """
    live = [b for b in blocks if b[3] is not None]
    lo = min(s + b * own.offset + d * other.offset for b, d, s, a in live)
    hi = max(s + a.size - 1 + b * own.k_max + d * other.k_max for b, d, s, a in live)
    _check_span(lo, hi, "composite law")
    length = _next_fast_len(hi - lo + 1)
    step = np.fft.rfft(_fold(own.masses, size, lambda a, b: _convolve_rows_by_cost([a], b)[0]), length)
    jump = functools.cache(lambda k: np.fft.rfft(n_fold_convolve(other, k).masses, length))
    x = np.zeros(length)
    g, f, depth = 0.0, 1.0, 0
    for base, d, start, acc in blocks:
        g *= step
        if d > depth:  # F * FFT(other^(*gap)), each gap's power built and transformed once
            f, depth = f * jump(d - depth), d
        if acc is not None:
            at = start + base * own.offset + d * other.offset - lo
            x[at : at + acc.size] = acc
            g += np.fft.rfft(x) * f if depth else np.fft.rfft(x)
            x[at : at + acc.size] = 0.0
    return lo, np.fft.irfft(g, length)[: hi - lo + 1]


def _snr_kernel(q_moments, n: int, singles) -> Callable[[float], float]:
    """t -> composite SNR, from singles(t) = (m0, v0, m1, v1), the single-qubit
    laws' moments at t, and q_moments, (E[Q], Var[Q]) of T0 and of T1.

    By the mixture moment identities the mean gap is the single-qubit gap
    times |E[Q0] + E[Q1] - n|, summed as (E[Q0] - n) + E[Q1], exactly E[Q1]
    where T0 keeps all n dark, and each variance is the mean count of qubits
    carrying either law times that law's variance, plus the gap squared times
    the outcome variance. The SNR is twice the mean gap over the summed
    standard deviations: 0 for equal means, +inf for distinct ones without
    spread. The t-independent terms are bound once; no SNR value is kept.
    """
    (eq0, vq0), (eq1, vq1) = q_moments
    rest0, rest1, q_gap = n - eq0, n - eq1, (eq0 - n) + eq1

    def snr(t: float) -> float:
        m0, v0, m1, v1 = singles(t)
        gap = m1 - m0
        var0 = eq0 * v0 + rest0 * v1 + gap * gap * vq0
        var1 = eq1 * v1 + rest1 * v0 + gap * gap * vq1
        # A NaN or overflowed moment (the gap squared can overflow where the
        # single moments do not) spoils both variances, reading as SNR nan or 0.
        if not (abs(var0) < math.inf and abs(var1) < math.inf):
            raise DomainError(f"count moments are not finite at window length t={t} ms")
        num = 2.0 * abs(gap * q_gap)
        if num == 0.0:
            return 0.0
        # An outcome law may sum to just over 1 (OutcomeDist allows 1e-12): then
        # E[Q] can pass n, and a variance that is 0 for the exact law rounds below 0.
        spread = math.sqrt(max(var0, 0.0)) + math.sqrt(max(var1, 0.0))
        return num / spread if spread else math.inf

    return snr


def _snr_on_grid(q_moments, n: int, table: np.ndarray) -> list[float] | None:
    """_snr_kernel's SNR at every window of table, whose rows are (m0, v0, m1, v1)
    at those windows: the kernel's arithmetic on arrays, in its order, so each
    value is the kernel's to the bit. None where a variance is not finite, for the
    kernel's scan to raise at the first such window.
    """
    (eq0, vq0), (eq1, vq1) = q_moments
    rest0, rest1, q_gap = n - eq0, n - eq1, (eq0 - n) + eq1
    m0, v0, m1, v1 = table
    with np.errstate(all="ignore"):  # an overflowed gap squared; x/0 where spread is 0
        gap = m1 - m0
        gap2 = gap * gap
        var0 = eq0 * v0 + rest0 * v1 + gap2 * vq0
        var1 = eq1 * v1 + rest1 * v0 + gap2 * vq1
        if not (np.isfinite(var0).all() and np.isfinite(var1).all()):
            return None
        num = 2.0 * np.abs(gap * q_gap)
        spread = np.sqrt(np.maximum(var0, 0.0)) + np.sqrt(np.maximum(var1, 0.0))
        # a zero spread is +0.0 (each variance adds gap2 * Var[Q] >= +0.0 last),
        # so num / spread is the kernel's inf there
        snr = num / spread
    snr[num == 0.0] = 0.0
    return snr.tolist()


def _moment_table(rates: RateParams, ts) -> np.ndarray | None:
    """(m0, v0, m1, v1) at each checked window of ts, the rows of a (4, len(ts))
    array, or None where a window's moments overflow (the kernel's scan names it)."""
    try:
        return np.array(list(zip(*map(_moments_at(rates), ts))))
    except DomainError:
        return None


def _grid_snrs(config: SchemeConfig, ts, table: np.ndarray | None) -> list[float]:
    """The scheme's SNR at each checked window of ts, whose moment table is table:
    one _snr_on_grid pass, or, with no table or a variance that is not finite,
    the kernel's scan, which raises at the first window where either overflows."""
    snrs = None if table is None else _snr_on_grid(config.q_moments, config.n_qubits, table)
    return list(map(config._snr, ts)) if snrs is None else snrs


def snr_direct(stats: CompositeStats) -> float:
    """Signal-to-noise ratio straight from the composite moments.

    Twice the mean separation over the summed standard deviations. Equal
    means give zero; distinct means with both variances zero return the
    +inf sentinel for a perfectly resolvable pair.
    """
    _instance(stats, CompositeStats, "stats")
    singles = (*moments(stats.p0), *moments(stats.p1))
    # one qubit with perfect gates, whose two preparations count p0 and p1
    return _snr_kernel(((1.0, 0.0), (1.0, 0.0)), 1, lambda t: singles)(stats.t)


def scheme_snr(config: SchemeConfig, t: float) -> float:
    """SNR of the scheme at window length t, via the moment-only fast path.

    A window so long that a count moment overflows raises DomainError naming it.
    """
    return _instance(config, SchemeConfig, "config")._snr(_window_length(t))


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
    lo, skip, e0, e1 = _union(stats.p0, stats.p1)
    tail0 = np.concatenate((np.cumsum(e0[::-1])[::-1], [0.0]))
    head1 = np.concatenate(([0.0], np.cumsum(e1)))
    mi = 0.5 * (tail0 + head1)
    j = int(np.argmin(mi))
    # every cut in a gap between the laws ties with the one after the lower
    # law, the smallest; a cut past the gap's one zero bin lies skip higher
    eta = lo + j
    if skip and eta > min(stats.p0.k_max, stats.p1.k_max) + 1:
        eta += skip
    return float(mi[j]), float(eta)


def threshold_analytic(rates: RateParams, n: int, t: float) -> ThresholdAnalysis:
    """Ideal-model threshold where the two scaled Poisson laws cross.

    With alpha = mu0/mu1 and beta = (1/alpha - 1)/ln(1/alpha) the crossing
    sits at eta = mu0*n*t*beta, and the two error tails decay with the
    strictly positive exponents gamma0 and gamma1 per unit of mu0*n*t and
    mu1*n*t respectively. Where a field would not be finite (mu1/mu0 past
    about 1e308, or eta past the largest float) it is a DomainError.
    """
    if _instance(rates, RateParams, "rates").mu0 <= 0.0 or rates.mu0 >= rates.mu1:
        raise DomainError("analytic threshold needs 0 < mu0 < mu1")
    n = _integer(n, _POSITIVE_N, 1)
    t = _window_length(t)
    alpha = rates.mu0 / rates.mu1
    # alpha underflows to 0 for mu1/mu0 past the largest float: no beta then
    beta = (1.0 / alpha - 1.0) / math.log(1.0 / alpha) if alpha else math.nan
    gamma0 = beta * math.log(beta) + 1.0 - beta
    gamma1 = alpha * beta * math.log(alpha * beta) + 1.0 - alpha * beta
    fields = (alpha, beta, gamma0, gamma1, rates.mu0 * n * t * beta)
    if not all(map(math.isfinite, fields)):
        raise DomainError(
            f"analytic threshold is not finite at mu0={rates.mu0}, mu1={rates.mu1}, n={n}, t={t}"
        )
    return ThresholdAnalysis(*fields)


def _no_decay(config: SchemeConfig) -> bool:
    # Both single-qubit laws are Poisson: the closed-form case of compose's
    # folds, of peak_snr and of time_to_snr, whatever the gates do.
    return isinstance(config.noise, GateNoise) and config.rates.lam == 0.0


def _no_decay_supremum(config: SchemeConfig) -> float:
    # SNR's limit as t -> inf without decay (see peak_snr), inf for perfect gates:
    # the gap term outgrows the spread of Poisson counts, as if the single-qubit
    # laws were the point masses 0 and 1. 0 where every gate fails: no signal.
    return _snr_kernel(config.q_moments, config.n_qubits, lambda t: (0.0, 0.0, 1.0, 0.0))(0.0)


# Ports of scipy.optimize's minimize_scalar(method="bounded") and brentq that
# take scipy's floating-point steps in scipy's order, so that their results
# equal scipy's to the bit (tests/test_scheme.py checks both against scipy).
# Over Python floats they need no scipy module and no numpy scalar arithmetic.
_SQRT_EPS = math.sqrt(2.2e-16)  # scipy's constant, not the root of math.ulp(1.0)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_EVALS = 500
_ROOT_RTOL = 4.0 * math.ulp(1.0)  # scipy's default rtol, 4*eps
_ROOT_ITERATIONS = 100


def _bounded_minimum(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """(x, f(x)) at the least f that Brent's bounded method finds on [a, b].

    Golden-section steps, or parabolic ones where a parabola through the three
    best points is trusted, until x is known to xatol + sqrt(eps)*|x| (R. P.
    Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5). Like
    scipy's, it returns its best point after _MAX_EVALS evaluations.
    """
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = f(xf)
    evals = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (max(abs(rat), tol1) if rat >= 0.0 else -max(abs(rat), tol1))
        fu = f(x)
        evals += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if evals >= _MAX_EVALS:
            break
    return xf, fx


def _brent_root(f, a: float, b: float, xtol: float) -> float:
    """A root of f on [a, b], where f(a) and f(b) differ in sign, by Brent's zeroin.

    Secant and inverse quadratic steps, or bisection where they would not
    shrink the bracket fast enough, until it is narrower than xtol +
    4*eps*|x| (Brent 1973, ch. 4; scipy's brentq.c at its default rtol).
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise DomainError(f"no sign change of f between {a} and {b}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _ROOT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # where it underflows, brentq.c's step is inf or nan and it bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        if short:
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise DomainError(f"root search on [{a}, {b}] did not converge in {_ROOT_ITERATIONS} steps")


@functools.lru_cache(maxsize=16)  # a sweep over n solves one set of rates; bounded for long runs
def _peak_moments(rates: RateParams) -> np.ndarray | None:
    """The read-only (4, PEAK_GRID_POINTS) moment table of the peak grid, or None
    where a grid window's moments overflow. It depends on the rates alone, so
    every scheme with equal rates reads one table."""
    table = _moment_table(rates, _PEAK_GRID)
    if table is not None:
        table.flags.writeable = False
    return table


def _peak_scan(config: SchemeConfig) -> list[float]:
    """_grid_snrs over _PEAK_GRID, from the rates' cached moment table for a GateNoise scheme."""
    table = _peak_moments(config.rates) if isinstance(config.noise, GateNoise) else None
    return _grid_snrs(config, _PEAK_GRID, table)


def _refined_peak(config: SchemeConfig, vals: list[float]) -> tuple[float, float]:
    """peak_snr's result refined from vals, the scheme's _peak_scan, with no second scan."""
    if not any(vals):
        return 0.0, math.nan
    if _no_decay(config):
        return _no_decay_supremum(config), math.inf
    ts = _PEAK_GRID
    i = vals.index(max(vals))
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    x, fx = _bounded_minimum(lambda t: -scheme_snr(config, t), a, b, 1e-6 * b)
    if vals[i] > -fx:
        return vals[i], ts[i]
    return -fx, x


def peak_snr(config: SchemeConfig) -> tuple[float, float]:
    """Largest attainable SNR and the window length attaining it.

    Scans a log-spaced grid of PEAK_GRID_POINTS over PEAK_BRACKET (_peak_scan),
    then refines between the grid argmax's neighbours with Brent's bounded
    maximiser to a window tolerance of 1e-6 of the upper neighbour; the grid
    point is kept if the refined value falls short of it (_refined_peak).

    A scheme with no signal anywhere on the grid (every gate failing, or
    equal emission rates) has no peak and returns (0.0, nan). A scheme
    without decay has none either: with T0 keeping all n qubits dark, its
    SNR 2*gap*E[Q1]*sqrt(t)/(sqrt(n*mu0) + sqrt(B + gap**2*Var[Q1]*t)), where
    gap = mu1 - mu0 and B = E[Q1]*mu1 + (n - E[Q1])*mu0, rises monotonically
    towards its supremum 2*E[Q1]/sqrt(Var[Q1]). It returns (sup, inf), and
    sup is inf for perfect gates, as for any single qubit.
    """
    _instance(config, SchemeConfig, "config")
    return _refined_peak(config, _peak_scan(config))


def time_to_snr(config: SchemeConfig, target_s: float) -> float | None:
    """A window length at which the SNR reaches target_s, or None.

    At the crossing it brackets, the result t has scheme_snr(config, t) >=
    target_s > scheme_snr(config, nextafter(t, 0)). The SNR is not monotone
    at the scale of one ulp, so a lower float can reach the target too: for
    the flat scheme with n = 5, p = 0, lam = 0.0041 and target 4 the result
    is 0.2288181715083147, and the float 3 ulp lower also reaches 4.

    A scheme without decay starts from its closed-form crossing (its SNR
    is in peak_snr): with k = 2*gap*E[Q1], c = (target_s*gap)**2 * Var[Q1]
    and a = n*mu0, SNR = target_s is a quadratic in u = sqrt(t) whose one
    positive root, for a target below the supremum (k*k > c), is
    u = target_s*(k*sqrt(a) + sqrt(k*k*a + (k*k - c)*(B - a)))/(k*k - c).
    B - a = E[Q1]*gap, so no term cancels; at Var[Q1] = 0 this is the ideal
    t = target_s**2*(sqrt(mu0) + sqrt(mu1))**2/(4*n*gap**2). gap and mu0 are
    scaled by 2**m, m even, to put gap near 1, so no product over- or
    underflows; that scales t by 2**-m exactly. Any other scheme rises from
    SNR 0 at t = 0: Brent's root finder brackets the peak grid's first window
    ts[i] that reaches the target on [ts[i-1], ts[i]] (or [0, ts[0]]), whose
    ends the grid pass, the kernel's to the bit, signs; with none, it refines
    the peak from that scan and brackets [0, t_peak]. Either estimate is then
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
        m = -2 * (math.frexp(gap)[1] // 2)
        gap, mu0 = math.ldexp(gap, m), math.ldexp(config.rates.mu0, m)
        k = 2.0 * gap * eq1
        ka = k * math.sqrt(config.n_qubits * mu0)
        d = k * k - (target_s * gap) * (target_s * gap) * vq1  # k*k - c
        u = target_s * (ka + math.sqrt(ka * ka + d * eq1 * gap)) / d if d > 0.0 else math.inf
        u *= 2.0 ** (m // 2)  # exact, as is its square, short of the float range's ends
        t = u * u if target_s < _no_decay_supremum(config) else math.inf
    else:
        vals = _peak_scan(config)
        i = next((j for j, s in enumerate(vals) if s >= target_s), None)
        s_max, b = _refined_peak(config, vals) if i is None else (vals[i], _PEAK_GRID[i])
        a = _PEAK_GRID[i - 1] if i else 0.0
        t = _brent_root(lambda x: f(x) - target_s, a, b, 1e-300) if s_max >= target_s else math.inf
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
    """Exponent a in SNR ~ t**a over the given window, by log-log fit.

    The samples need at least two window lengths whose logarithms differ.
    """
    ts = _real_array(ts, "log-log fit needs real samples")
    snrs = _real_array(snrs, "log-log fit needs real samples")
    if ts.ndim != 1 or ts.size < 2 or ts.shape != snrs.shape:
        raise DomainError("need at least two matching (t, snr) samples")
    if not (np.isfinite(ts).all() and np.isfinite(snrs).all()):
        raise DomainError("log-log fit needs finite samples")
    if np.any(ts <= 0.0) or np.any(snrs <= 0.0):
        raise DomainError("log-log fit needs positive samples")
    if np.ptp(np.log(ts)) == 0.0:  # a single log window length leaves no slope to fit
        raise DomainError("log-log fit needs at least two distinct window lengths")
    return float(np.polyfit(np.log(ts), np.log(snrs), 1)[0])

"""Photon-count statistics for a bright emitter that can fall dark mid-window.

A qubit that starts bright emits photons at rate mu1 until an exponential
decay event of rate lam, after which it emits at the dark rate mu0 for the
rest of the counting window. Conditioned on the decay time the count is
Poisson, so the overall law is a Poisson mixture: a weight exp(-lam*t) on
a pure Poisson with mean mu1*t, plus an integral over decay times of
Poisson laws whose mean interpolates from mu0*t up to mu1*t.

Both the law and its moments have closed forms. The decay-time integral
is a difference of regularized incomplete gamma functions (DLMF 8.2,
https://dlmf.nist.gov/8.2) and the moments are elementary functions of
x = lam*t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dist import DiscreteDist, DomainError, RateParams, point_mass
from .dist import _check_span, _instance, _poisson_tails, _poisson_terms, _poisson_window, _real

__all__ = ["DecayModelParams", "decaying_poisson", "decaying_poisson_moments"]


@dataclass(frozen=True)
class DecayModelParams:
    """Rates plus the counting window length t in ms."""

    rates: RateParams
    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", _window_length(self.t))
        _instance(self.rates, RateParams, "rates")


def _window_length(t) -> float:
    """t as a float, finite and non-negative: the one rule for a window length."""
    return _real(t, "window length must be finite and non-negative, got {}", 0.0)


def _poisson_over(omega: float, chain: tuple[int, np.ndarray], lo: int, hi: int) -> np.ndarray:
    """Pois(omega) at the counts lo..hi, where chain = (first, terms) holds them
    from first on: its overlap is reused and only the counts beyond it are built."""
    first, terms = chain
    last = first + terms.size - 1
    parts = [terms[max(lo, first) - first : max(min(hi, last) + 1 - first, 0)]]
    if lo < first:
        parts.insert(0, _poisson_terms(omega, lo, min(hi, first - 1)))
    if hi > last:
        parts.append(_poisson_terms(omega, max(lo, last + 1), hi))
    return np.concatenate(parts)


def _one_pole(x: np.ndarray, gain: float, pole: float) -> np.ndarray:
    """y_k = gain*x_k + pole*y_{k-1} from y_{-1} = 0, stepped over Python floats.

    It rounds the same products and sums as scipy.signal.lfilter([gain], [1, -pole], x).
    """
    filtered = itertools.accumulate((gain * x).tolist(), lambda y, gx: gx + pole * y)
    return np.fromiter(filtered, np.float64, x.size)


def decaying_poisson(params: DecayModelParams) -> DiscreteDist:
    """Exact count law for one initially bright qubit over a window t.

    The support is the union of the windows that hold all but ~1e-12 of
    the mass of the two extreme Poisson laws (means mu0*t and mu1*t),
    which covers every mixture component. With c = lam/(mu1-mu0),
    a = (1+c)*mu0*t and b = (1+c)*mu1*t the decay-time integral at count k
    is I_k = c*exp(c*mu0*t)*(1+c)**-(k+1)*[Q(k+1, a) - Q(k+1, b)], Q and P
    being the regularized incomplete gamma functions (DLMF 8.2.4). Up to
    k = b it runs as the recurrence I_k = (I_{k-1} + c*[Pois(k; mu0*t) -
    exp(-lam*t)*Pois(k; mu1*t)])/(1+c), which never forms exp(c*mu0*t),
    from max(0, mu0*t - 12*sqrt(mu0*t)): Pois(mu0*t) holds under e^-72
    below that count (Chernoff bound). The recurrence is the one-pole
    filter _one_pole. Above b the bracket is P(k+1, b) - P(k+1, a), a
    difference of two small tails, and P(k+1, x) = Pr[Pois(x) > k] is
    summed from the top down (dist._poisson_tails). Each Poisson law's
    terms come from the ratio chain its support window was found on,
    extended where the recurrence needs more counts.
    """
    rates, t = _instance(params, DecayModelParams, "params").rates, params.t
    mu0, mu1, lam = rates.mu0, rates.mu1, rates.lam
    m0, m1 = mu0 * t, mu1 * t
    if m1 == 0.0:
        return point_mass(0)
    lo, _, *dark = _poisson_window(m0)
    _, hi, *bright = _poisson_window(m1)
    _check_span(lo, hi, "decayed law")
    start = min(lo, max(0, math.floor(m0 - 12.0 * math.sqrt(m0))))
    stay = math.exp(-lam * t) * _poisson_over(m1, bright, start, hi)
    masses = stay.copy()
    if lam > 0.0:
        delta = mu1 - mu0
        c = lam / delta if delta > 0.0 else math.inf
        b = (1.0 + c) * m1
        split = (hi + 1 if b >= hi else math.floor(b) + 1) - start  # counts up to b
        drive = _poisson_over(m0, dark, start, start + split - 1) - stay[:split]
        # pole 1/(1+c) and gain c/(1+c), finite even for equal rates
        gain, pole = lam / (delta + lam), delta / (delta + lam)
        masses[:split] += _one_pole(drive, gain, pole)
        if split < masses.size:
            above = start + split
            kt = np.arange(above + 1, hi + 2, dtype=np.float64)
            gap = _poisson_tails(b, above, hi) - _poisson_tails((1.0 + c) * m0, above, hi)
            masses[split:] += c * np.exp(c * m0 - kt * math.log1p(c)) * gap
    return DiscreteDist(lo, masses[lo - start :])


_SERIES = tuple(1.0 / math.factorial(2 * m + 1) for m in range(8, 0, -1))


def _moments_at(rates: RateParams):
    """t -> (mu0*t, mu0*t, mean, var): the dark and the bright law's moments at a
    checked window length t, the rates unpacked once for every window.

    Below x = lam*t = 1/2 the decay-time variance's shape (1 - 2x e^-x -
    e^-2x)/x^2 is 2 e^-x (sinh x - x)/x^2, summed as a positive series by
    Horner's rule, which neither cancels nor divides by a possibly subnormal
    x^2. The dark mean is no larger than the bright one, whose overflow raises."""
    mu0, mu1, lam = rates.mu0, rates.mu1, rates.lam
    c0, c1, c2, c3, c4, c5, c6, c7 = _SERIES

    def at(t: float) -> tuple[float, float, float, float]:
        dark, x = mu0 * t, lam * t
        if x == 0.0:
            mean = var = mu1 * t
        else:
            delta_t = (mu1 - mu0) * t
            mean = dark + delta_t * (-math.expm1(-x) / x)
            if x >= 0.5:
                shape = (-math.expm1(-2.0 * x) - 2.0 * x * math.exp(-x)) / (x * x)
            else:
                s2 = x * x
                series = (((((c0 * s2 + c1) * s2 + c2) * s2 + c3) * s2 + c4) * s2 + c5) * s2 + c6
                series = series * s2 + c7
                shape = 2.0 * math.exp(-x) * (series * x)
            var = mean + delta_t * delta_t * shape
        if not (abs(mean) < math.inf and abs(var) < math.inf):
            raise DomainError(
                f"count moments overflow at window length t={t} ms (mu0={mu0}, mu1={mu1} per ms)"
            )
        return dark, dark, mean, var

    return at


def decaying_poisson_moments(params: DecayModelParams) -> tuple[float, float]:
    """Mean and variance of the count law without building the pmf.

    The decay time acts as a mixing variable over Poisson means M, so
    mean = E[M] and var = E[M] + Var[M]. With x = lam*t the decay time
    capped at t has mean t*(1 - e^-x)/x and variance
    t^2*(1 - 2x e^-x - e^-2x)/x^2: closed forms in Python floats. A window
    so long that either moment overflows raises DomainError naming t."""
    return _moments_at(_instance(params, DecayModelParams, "params").rates)(params.t)[2:]

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

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter
from scipy.special import gammainc, gammaln, xlogy

from .dist import DiscreteDist, DomainError, RateParams, point_mass, _poisson_window

__all__ = ["DecayModelParams", "decaying_poisson", "decaying_poisson_moments"]


@dataclass(frozen=True)
class DecayModelParams:
    """Rates plus the counting window length t in ms."""

    rates: RateParams
    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        if not isinstance(self.rates, RateParams):
            raise DomainError("rates must be a RateParams instance")
        if not math.isfinite(self.t) or self.t < 0.0:
            raise DomainError(f"window length must be finite and non-negative, got {self.t}")


def _poisson_terms(k: np.ndarray, m: float) -> np.ndarray:
    return np.exp(xlogy(k, m) - m - gammaln(k + 1.0))


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
    below that count (Chernoff bound). Above b the bracket is
    P(k+1, b) - P(k+1, a), a difference of two small tails.
    """
    rates, t = params.rates, params.t
    mu0, mu1, lam = rates.mu0, rates.mu1, rates.lam
    m0, m1 = mu0 * t, mu1 * t
    if m1 == 0.0:
        return point_mass(0)
    lo = 0 if m0 == 0.0 else _poisson_window(m0)[0]
    hi = _poisson_window(m1)[1]
    start = min(lo, max(0, math.floor(m0 - 12.0 * math.sqrt(m0))))
    k = np.arange(start, hi + 1, dtype=np.float64)
    stay = math.exp(-lam * t) * _poisson_terms(k, m1)
    masses = stay.copy()
    if lam > 0.0:
        delta = mu1 - mu0
        c = lam / delta if delta > 0.0 else math.inf
        b = (1.0 + c) * m1
        split = (hi + 1 if b >= hi else math.floor(b) + 1) - start  # counts up to b
        drive = _poisson_terms(k[:split], m0) - stay[:split]
        # pole 1/(1+c) and gain c/(1+c), finite even for equal rates
        masses[:split] += lfilter([lam / (delta + lam)], [1.0, -delta / (delta + lam)], drive)
        if split < k.size:
            kt = k[split:] + 1.0
            gap = gammainc(kt, b) - gammainc(kt, (1.0 + c) * m0)
            masses[split:] += c * np.exp(c * m0 - kt * math.log1p(c)) * gap
    return DiscreteDist(lo, masses[lo - start :])


def _var_shape(x: float) -> float:
    """(1 - 2x e^-x - e^-2x)/x^2, the decay-time variance over (mu1-mu0)^2 t^2.

    Below x = 1/2 it is 2 e^-x (sinh x - x)/x^2 summed as a positive series,
    which neither cancels nor divides by a possibly subnormal x^2.
    """
    if x >= 0.5:
        return (-math.expm1(-2.0 * x) - 2.0 * x * math.exp(-x)) / (x * x)
    series = sum(x ** (2 * m - 1) / math.factorial(2 * m + 1) for m in range(1, 9))
    return 2.0 * math.exp(-x) * series


def decaying_poisson_moments(params: DecayModelParams) -> tuple[float, float]:
    """Mean and variance of the count law without building the pmf.

    The decay time acts as a mixing variable over Poisson means M, so
    mean = E[M] and var = E[M] + Var[M]. With x = lam*t the decay time
    capped at t has mean t*(1 - e^-x)/x and variance
    t^2*(1 - 2x e^-x - e^-2x)/x^2, so both moments are closed forms.
    """
    rates, t = params.rates, params.t
    mu0, mu1, lam = rates.mu0, rates.mu1, rates.lam
    x = lam * t
    if x == 0.0:
        return mu1 * t, mu1 * t
    delta_t = (mu1 - mu0) * t
    mean = mu0 * t + delta_t * (-math.expm1(-x) / x)
    return mean, mean + delta_t * delta_t * _var_shape(x)

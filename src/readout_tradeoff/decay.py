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
from .dist import _instance, _poisson_terms, _poisson_window, _real, _real_array

__all__ = ["DecayModelParams", "decaying_poisson", "decaying_poisson_moments"]


@dataclass(frozen=True)
class DecayModelParams:
    """Rates plus the counting window length t in ms (an ndarray of t for the moments)."""

    rates: RateParams
    t: float | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", _window_length(self.t))
        _instance(self.rates, RateParams, "rates")

    @classmethod
    def _checked(cls, rates: RateParams, t) -> "DecayModelParams":
        """The params of rates and a t that _window_length returned, not checked again."""
        params = object.__new__(cls)
        object.__setattr__(params, "rates", rates)
        object.__setattr__(params, "t", t)
        return params


def _window_length(t) -> float | np.ndarray:
    """t as a float or a float64 ndarray, each entry finite and non-negative."""
    # np.ndim would dominate a float call, and raises ValueError for a ragged list
    if isinstance(t, float) or (not isinstance(t, (list, tuple)) and np.ndim(t) == 0):
        return _scalar_window_length(t)
    t = _real_array(t, "window lengths must be real numbers")
    u = _where(t == t, t, -1.0)  # NaN reaches no ordered comparison, which can warn
    ok = (u >= 0.0) & (u < math.inf)
    if not _all(ok):
        _scalar_window_length(np.extract(np.logical_not(ok), t)[0])  # raises
    return t


def _scalar_window_length(t) -> float:
    return _real(t, "window length must be finite and non-negative, got {}", 0.0)


# _where, _all and _libm keep a float t in Python floats, where numpy's calls are slow
def _where(cond, a, b):
    """np.where(cond, a, b), or a if cond else b for a single flag."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _all(ok) -> bool:
    """ok.all() for an array of flags, bool(ok) for a single one."""
    return bool(ok.all()) if isinstance(ok, np.ndarray) else bool(ok)


def _libm(f, x):
    """math.exp or .expm1 at x or at each entry of an array x (numpy's SIMD exp
    rounds differently on some CPUs, and _var_shape's closed form cancels)."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(f, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)
    return f(x)


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
    filter y_k = g*x_k + r*y_{k-1}, stepped over Python floats; it rounds
    the same products and sums as scipy.signal.lfilter([g], [1, -r], x).
    Above b the bracket is P(k+1, b) - P(k+1, a), a difference of two
    small tails.
    """
    rates, t = _instance(params, DecayModelParams, "params").rates, params.t
    if isinstance(t, np.ndarray):
        raise DomainError("decaying_poisson builds the law at one window length")
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
        gain, pole = lam / (delta + lam), delta / (delta + lam)
        filtered = itertools.accumulate((gain * drive).tolist(), lambda y, gx: gx + pole * y)
        masses[:split] += np.fromiter(filtered, np.float64, split)
        if split < k.size:
            import scipy.special as special  # imported where called, as in dist

            kt = k[split:] + 1.0
            gap = special.gammainc(kt, b) - special.gammainc(kt, (1.0 + c) * m0)
            masses[split:] += c * np.exp(c * m0 - kt * math.log1p(c)) * gap
    return DiscreteDist(lo, masses[lo - start :])


_SERIES = tuple(1.0 / math.factorial(2 * m + 1) for m in range(8, 0, -1))


def _var_shape(x):
    """(1 - 2x e^-x - e^-2x)/x^2, the decay-time variance over (mu1-mu0)^2 t^2.

    Below x = 1/2 it is 2 e^-x (sinh x - x)/x^2 summed as a positive series,
    which neither cancels nor divides by a possibly subnormal x^2. Each
    branch sees x clamped to its own side of 1/2."""
    above = x >= 0.5
    big, small = _where(above, x, 0.5), _where(above, 0.5, x)
    closed = (-_libm(math.expm1, -2.0 * big) - 2.0 * big * _libm(math.exp, -big)) / (big * big)
    s2, series = small * small, 0.0
    for c in _SERIES:
        series = series * s2 + c
    return _where(above, closed, 2.0 * _libm(math.exp, -small) * (series * small))


@np.errstate(over="ignore", invalid="ignore")
def decaying_poisson_moments(params: DecayModelParams):
    """Mean and variance of the count law without building the pmf.

    The decay time acts as a mixing variable over Poisson means M, so
    mean = E[M] and var = E[M] + Var[M]. With x = lam*t the decay time
    capped at t has mean t*(1 - e^-x)/x and variance
    t^2*(1 - 2x e^-x - e^-2x)/x^2: closed forms, floats for a float t and
    arrays for an ndarray of t. A window so long that either moment
    overflows raises DomainError naming the smallest such t."""
    rates, t = _instance(params, DecayModelParams, "params").rates, params.t
    mu0, mu1, lam = rates.mu0, rates.mu1, rates.lam
    x = lam * t
    plain = x == 0.0
    x = x + plain  # 1 where x = 0: those take the plain moments, and nothing divides by 0
    delta_t = (mu1 - mu0) * t
    mean = _where(plain, mu1 * t, mu0 * t + delta_t * (-_libm(math.expm1, -x) / x))
    var = _where(plain, mean, mean + delta_t * delta_t * _var_shape(x))
    ok = (abs(mean) < math.inf) & (abs(var) < math.inf)
    if not _all(ok):
        bad = float(np.min(np.where(ok, np.inf, t)))
        raise DomainError(
            f"count moments overflow at window length t={bad} ms (mu0={mu0}, mu1={mu1} per ms)"
        )
    return mean, var

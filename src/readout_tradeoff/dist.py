"""Finite discrete distributions over non-negative integer counts.

Distributions are stored as dense probability vectors on a contiguous
window of integers. Every constructor accounts explicitly for the mass it
drops when truncating a support, so normalisation stays checkable through
long convolution pipelines instead of silently eroding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteDist",
    "DomainError",
    "RateParams",
    "convolve",
    "mixture",
    "moments",
    "n_fold_convolve",
    "point_mass",
    "poisson_pmf",
    "tail_ge",
    "tv_distance",
]

# Constructors keep at least 1 - TRUNCATION_EPS of the mass they truncate.
TRUNCATION_EPS = 1e-12
# Hard ceiling on stored support points; beyond it the window is clipped
# around the bulk and the clipped mass lands in truncation_loss.
MAX_SUPPORT = 10**6
# Largest support length that stays on the direct O(n*m) convolution path.
DIRECT_CONV_LIMIT = 4096
# Cost model of the two kernels (_convolve_by_cost), fitted on a 2-core
# x86-64 machine: seconds per multiply-add of np.convolve, and the FFT
# path's fixed seconds plus seconds per L*log2(L) at transform length L.
_DIRECT_S = 0.12e-9
_FFT_S = 23e-6
_FFT_POINT_S = 1.5e-9

_NORM_TOL = 1e-9
_MAX_FLOAT = sys.float_info.max
# the dtype kinds of real numbers (bool, int, uint, float): the one test
# _real and _real_array apply to numpy arrays and scalars
_REAL_KINDS = ("b", "i", "u", "f")
_NUMPY_VALUES = (np.ndarray, np.generic)


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


def _numeric(x) -> bool:
    """False for what int() and float() would parse as text: str, bytes, and
    numpy scalars and arrays whose dtype kind is not in _REAL_KINDS. (_integer
    and _real test the type first, sparing a plain int or float the call.)"""
    if isinstance(x, _NUMPY_VALUES):
        return x.dtype.kind in _REAL_KINDS  # float() would parse np.array('0.5')
    return not isinstance(x, (str, bytes))


def _refused(x, message: str) -> DomainError:
    # a rejected float shows as itself, anything else by its repr: '2', not 2
    return DomainError(message.format(x if isinstance(x, float) else repr(x)))


def _integer(x, message: str, lo: int = 0, hi: float = math.inf) -> int:
    """int(x) for an integral number x in lo..hi, else DomainError(message.format(x)).

    True and 3.0 pass; 2.5, inf, nan, what _numeric refuses and values int()
    rejects do not.
    """
    try:
        if (type(x) is int or _numeric(x)) and x == int(x) and lo <= x <= hi:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise _refused(x, message)


def _real(x, message: str, lo: float = -_MAX_FLOAT, hi: float = _MAX_FLOAT) -> float:
    """float(x) for a real number x in [lo, hi], else DomainError(message.format(x)).

    [lo, hi] defaults to the finite floats; a site that takes inf says so.
    True, ints, and numpy scalars and one-element arrays whose dtype kind is
    in _REAL_KINDS pass; str, bytes, None, sequences, other arrays, nan and
    ints past the largest float do not. A string shows by its repr, '0.5'.
    """
    try:
        if (type(x) is float or _numeric(x)) and lo <= (x := float(x)) <= hi:
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    raise _refused(x, message)


def _instance(x, cls: type, name: str):
    """x if it is a cls, else DomainError("<name> must be a <cls> instance")."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{name} must be {article} {cls.__name__} instance")
    return x


def _real_array(x, message: str) -> np.ndarray:
    """np.asarray(x, dtype=np.float64) if x holds only bools, ints and floats.

    Anything else raises DomainError(message): strings, which a float64
    conversion would parse ('0.5' -> 0.5) where _real refuses them, objects,
    complex numbers and ragged nestings. The array's dtype tells them apart.
    """
    try:
        arr = np.asarray(x)
    except ValueError:  # a ragged nesting
        raise DomainError(message) from None
    if arr.dtype.kind not in _REAL_KINDS:
        raise DomainError(message)
    return arr.astype(np.float64, copy=False)


@dataclass(frozen=True)
class RateParams:
    """Emission and decay rates, all in 1/ms.

    mu0 is the dark emission rate, mu1 >= mu0 the bright emission rate and
    lam the bright-to-dark decay rate.
    """

    mu0: float
    mu1: float
    lam: float = 0.0

    def __post_init__(self):
        for name in ("mu0", "mu1", "lam"):
            message = f"{name} must be a finite number, got {{}}"
            object.__setattr__(self, name, _real(getattr(self, name), message))
        if not 0.0 <= self.mu0 <= self.mu1:
            raise DomainError(
                f"rates must satisfy 0 <= mu0 <= mu1, got mu0={self.mu0}, mu1={self.mu1}"
            )
        if self.lam < 0.0:
            raise DomainError(f"decay rate must be non-negative, got {self.lam}")


@dataclass
class DiscreteDist:
    """Probability law on a contiguous window of non-negative integers.

    ``masses[i]`` is the probability of the count ``offset + i``. Mass
    dropped when a support was truncated is recorded in
    ``truncation_loss``, so ``sum(masses) + truncation_loss`` stays equal
    to one up to float rounding. Leave ``truncation_loss`` as None to have
    it inferred from the mass actually stored.

    Instances are immutable after construction; the mass array is marked
    read-only.
    """

    offset: int
    masses: np.ndarray
    truncation_loss: float | None = None

    def __post_init__(self):
        self.offset = _integer(self.offset, "offset must be a non-negative integer, got {}")
        arr = np.array(_real_array(self.masses, "masses must be real numbers"))  # frozen below
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("masses must be a non-empty 1-d array")
        # A NaN or negative mass fails the minimum, which also keeps -inf out of
        # the sum, and +inf fails the sum; only a failure pays the scans that
        # tell the faults apart, in their order of precedence.
        if not (arr.min() >= 0.0 and math.isfinite(total := float(arr.sum()))):
            if not np.all(np.isfinite(arr)):
                raise DomainError("masses must be finite")
            if np.any(arr < 0.0):
                raise DomainError("masses must be non-negative")
        loss = max(0.0, 1.0 - total) if self.truncation_loss is None else self.truncation_loss
        self.truncation_loss = _real(loss, "truncation_loss must be non-negative", 0.0, math.inf)
        if abs(total + self.truncation_loss - 1.0) > _NORM_TOL:
            raise DomainError(
                f"masses plus truncation_loss must sum to one, got {total + self.truncation_loss}"
            )
        arr.setflags(write=False)
        self.masses = arr

    @property
    def k_max(self) -> int:
        return self.offset + self.masses.size - 1

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.masses.size)

    def pmf(self, k: float) -> float:
        """Probability of the exact count k (zero outside the window and for a non-integral k)."""
        k = _real(k, "count must be a number, got {}", -math.inf, math.inf)
        if k.is_integer() and self.offset <= k <= self.k_max:
            return float(self.masses[int(k) - self.offset])
        return 0.0


def point_mass(k: int) -> DiscreteDist:
    """Deterministic count k."""
    return DiscreteDist(k, np.ones(1), 0.0)


def _poisson_quantiles(q: np.ndarray, omega: float) -> np.ndarray:
    # The kernel of scipy.stats.poisson.ppf at each q: the continuous inverse
    # of the cdf rounded up, or one count less where the cdf already reaches
    # q. NaN where pdtrik gives up.
    import scipy.special as special  # loaded by the first law, not by the package

    k = np.ceil(special.pdtrik(q, omega))
    below = np.maximum(k - 1.0, 0.0)
    return np.where(special.pdtr(below, omega) >= q, below, k)


# the tails a support window drops, TRUNCATION_EPS/4 each
_WINDOW_Q = np.array([TRUNCATION_EPS / 4.0, 1.0 - TRUNCATION_EPS / 4.0])
_WINDOW_Q.setflags(write=False)


def _poisson_window(omega: float) -> tuple[int, int]:
    """Smallest integer window holding all but ~TRUNCATION_EPS of a Poisson law.

    Its edges are the _WINDOW_Q quantiles that scipy.stats.poisson's ppf
    and isf return, computed by the same scipy.special kernels without
    the wrappers' argument handling, which costs several times the kernel.
    """
    lo_q, hi_q = _poisson_quantiles(_WINDOW_Q, omega).tolist()
    if math.isnan(lo_q) or math.isnan(hi_q):
        # the quantile kernel gives up for means from about 1e11 on
        raise DomainError(f"poisson mean {omega} is too large for a support window")
    lo = max(0, int(lo_q) - 2)
    hi = int(hi_q) + 2
    if hi - lo + 1 > MAX_SUPPORT:
        lo = max(0, int(omega) - MAX_SUPPORT // 2)
        hi = lo + MAX_SUPPORT - 1
    return lo, hi


def poisson_pmf(omega: float) -> DiscreteDist:
    """Poisson law with mean omega.

    The support window is chosen so the two discarded tails together hold
    no more than about 1e-12 of the mass. Values are evaluated in log
    space and exponentiated, which keeps far-tail bins accurate.
    """
    omega = _real(omega, "poisson mean must be finite and non-negative, got {}", 0.0)
    if omega == 0.0:
        return point_mass(0)
    lo, hi = _poisson_window(omega)
    return DiscreteDist(lo, _poisson_terms(np.arange(lo, hi + 1, dtype=np.float64), omega))


def _poisson_terms(k: np.ndarray, omega: float) -> np.ndarray:
    import scipy.special as special

    return np.exp(special.xlogy(k, omega) - omega - special.gammaln(k + 1.0))


def _convolve_masses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of two mass arrays, unclipped.

    Small supports use the direct O(n*m) product sum; large ones switch to
    the FFT, whose rounding noise can leave bins slightly below zero.
    """
    if max(a.size, b.size) <= DIRECT_CONV_LIMIT:
        return np.convolve(a, b)
    return _fft_convolve(a, b)


def _convolve_by_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of two mass arrays by the kernel priced lower, unclipped.

    Direct iff _DIRECT_S * n * m <= _FFT_S + _FFT_POINT_S * L * log2(L), with
    L the real FFT length of the product. An FFT bin is accurate only in
    absolute terms, so this is for laws that already pass through one.
    """
    import scipy.fft as fft  # loaded by the first blocked law, not by the package

    length = fft.next_fast_len(a.size + b.size - 1, True)
    if _DIRECT_S * a.size * b.size <= _FFT_S + _FFT_POINT_S * length * math.log2(length):
        return np.convolve(a, b)
    return _fft_convolve(a, b)


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The steps scipy.signal.fftconvolve takes for real 1-d input, so its
    # bins are that function's: a one-point operand is a plain product, and
    # any other pair is multiplied in the frequency domain.
    if min(a.size, b.size) == 1:
        return a * b
    import scipy.fft as fft

    size = a.size + b.size - 1
    n = fft.next_fast_len(size, True)
    return fft.irfft(fft.rfft(a, n) * fft.rfft(b, n), n)[:size]


def convolve(a: DiscreteDist, b: DiscreteDist) -> DiscreteDist:
    """Distribution of the sum of independent draws from a and b.

    FFT rounding noise is clipped at zero; the direct and FFT paths agree
    to better than 1e-12 per bin.
    """
    a, b = _instance(a, DiscreteDist, "law"), _instance(b, DiscreteDist, "law")
    out = _convolve_masses(a.masses, b.masses)
    np.maximum(out, 0.0, out=out)
    return DiscreteDist(a.offset + b.offset, out)


def n_fold_convolve(d: DiscreteDist, n: int) -> DiscreteDist:
    """d convolved with itself n times, by exponentiation by squaring.

    n = 0 yields the empty convolution, a point mass at zero.
    """
    _instance(d, DiscreteDist, "law")
    n = _integer(n, "fold count must be a non-negative integer, got {}")
    if n == 0:
        return point_mass(0)
    return _fold(d, n, convolve)


def _fold(base, n: int, conv):
    """base convolved with itself n >= 1 times by squaring, each product by conv."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else conv(result, base)
        n >>= 1
        if n:
            base = conv(base, base)
    return result


def moments(d: DiscreteDist) -> tuple[float, float]:
    """Mean and variance as exact weighted sums over the stored support."""
    # einsum, unlike @, never hands the sums to a threaded BLAS, whose
    # partial sums would move the last bits with the thread count
    k = _instance(d, DiscreteDist, "law").support.astype(np.float64)
    mean = float(np.einsum("i,i", k, d.masses))
    var = float(np.einsum("i,i", (k - mean) ** 2, d.masses))
    return mean, var


def tail_ge(d: DiscreteDist, eta: float) -> float:
    """Probability of a count at or above the threshold eta.

    A non-integer threshold rounds up, so the sum runs over k >= ceil(eta);
    an integer threshold keeps k >= eta itself. A threshold of -inf keeps
    all the stored mass, +inf none of it.
    """
    _instance(d, DiscreteDist, "law")
    eta = _real(eta, "threshold must be a number, got {}", -math.inf, math.inf)
    if eta <= d.offset:
        return float(d.masses.sum())
    if eta > d.k_max:
        return 0.0
    return float(d.masses[math.ceil(eta) - d.offset :].sum())


def _window(d: DiscreteDist, lo: int, hi: int) -> np.ndarray:
    """Masses of d laid out on the window [lo, hi], zero-padded."""
    out = np.zeros(hi - lo + 1)
    out[d.offset - lo : d.offset - lo + d.masses.size] = d.masses
    return out


def tv_distance(a: DiscreteDist, b: DiscreteDist) -> float:
    """Total variation distance, half the L1 gap on the union support."""
    a, b = _instance(a, DiscreteDist, "law"), _instance(b, DiscreteDist, "law")
    lo = min(a.offset, b.offset)
    hi = max(a.k_max, b.k_max)
    diff = _window(a, lo, hi) - _window(b, lo, hi)
    return min(1.0, 0.5 * float(np.abs(diff).sum()))


def mixture(dists: list[DiscreteDist] | tuple[DiscreteDist, ...], weights) -> DiscreteDist:
    """Weighted mixture on the union support.

    Weights must be non-negative; any shortfall from one (dropped mixture
    terms, component truncation) shows up in the truncation_loss of the
    result.
    """
    dists = [_instance(d, DiscreteDist, "law") for d in dists]
    weights = _real_array(weights, "mixture weights must be real numbers")
    if len(dists) == 0 or weights.shape != (len(dists),):
        raise DomainError("mixture needs one weight per component")
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
        raise DomainError("mixture weights must be finite and non-negative")
    lo = min(d.offset for d in dists)
    hi = max(d.k_max for d in dists)
    acc = np.zeros(hi - lo + 1)
    for d, w in zip(dists, weights):
        acc[d.offset - lo : d.offset - lo + d.masses.size] += w * d.masses
    return DiscreteDist(lo, acc)

"""Finite discrete distributions over non-negative integer counts.

Distributions are stored as dense probability vectors on a contiguous
window of integers. Every constructor accounts explicitly for the mass it
drops when truncating a support, so normalisation stays checkable through
long convolution pipelines instead of silently eroding.
"""

from __future__ import annotations

import bisect
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
# Hard ceiling on stored support points: a law past it is refused with a
# DomainError naming its span (_check_span), before it is allocated.
MAX_SUPPORT = 10**6
# Largest support length that stays on the direct O(n*m) convolution path.
DIRECT_CONV_LIMIT = 4096
# Cost model of the two kernels (_convolve_rows_by_cost), fitted on a 2-core
# x86-64 machine: seconds per multiply-add of np.convolve, and the FFT
# path's fixed seconds plus seconds per L*log2(L) at transform length L.
_DIRECT_S = 0.12e-9
_FFT_S = 23e-6
_FFT_POINT_S = 1.5e-9
# Most points one batched transform stacks (512 KiB): a bound on its memory
_BATCH_POINTS = 2**16

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


def _check_span(lo: int, hi: int, what: str) -> None:
    """DomainError naming lo..hi where a law on those counts would pass MAX_SUPPORT."""
    if hi - lo >= MAX_SUPPORT:
        raise DomainError(f"{what} support {lo}..{hi} spans more than {MAX_SUPPORT} counts")


def _laid_out(parts, what: str) -> tuple[int, np.ndarray]:
    """(lo, total): the (offset, array) parts added in order on their union span, from lo.

    The total takes the first part's dtype.
    """
    lo = min(offset for offset, _ in parts)
    hi = max(offset + a.size - 1 for offset, a in parts)
    _check_span(lo, hi, what)
    total = np.zeros(hi - lo + 1, dtype=parts[0][1].dtype)
    for offset, a in parts:
        total[offset - lo : offset - lo + a.size] += a
    return lo, total


def point_mass(k: int) -> DiscreteDist:
    """Deterministic count k."""
    return DiscreteDist(k, np.ones(1), 0.0)


# stirlerr(n) below 16, where Loader's series is not yet accurate, as the
# logarithm of a ratio near one: within 2e-15 of the exact value, where
# lgamma's difference of two terms of up to 42 was off by up to 7e-15
_STIRLERR = tuple(
    math.log(math.factorial(n) / (math.sqrt(2.0 * math.pi * n) * (n / math.e) ** n))
    for n in range(1, 16)
)


def _stirlerr(n: int) -> float:
    """ln(n!) - ln(sqrt(2 pi n) (n/e)^n), Stirling's error, for n >= 1 (Loader 2000)."""
    if n < 16:
        return _STIRLERR[n - 1]
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / nn) / nn) / nn) / nn) / n


def _bd0(k: int, omega: float) -> float:
    """k ln(k/omega) + omega - k without its cancellation near k = omega (Loader 2000)."""
    if abs(k - omega) >= 0.1 * (k + omega):
        return k * math.log(k / omega) + omega - k
    v = (k - omega) / (k + omega)
    s, ej, v2, j = (k - omega) * v, 2.0 * k * v, v * v, 3
    while True:
        ej *= v2
        s1 = s + ej / j
        if s1 == s:
            return s
        s, j = s1, j + 2


def _poisson_at(k: int, omega: float) -> float:
    """Pois(k; omega) as exp(-stirlerr(k) - bd0(k, omega))/sqrt(2 pi k) (Loader 2000).

    This saddle-point form rounds to a few ulps at any k and omega, where
    exp(k ln omega - omega - ln k!) loses about k ln k ulps to its terms.
    """
    if omega == 0.0 or k == 0:
        return math.exp(-omega) if k == 0 else 0.0
    return math.exp(-_stirlerr(k) - _bd0(k, omega)) / math.sqrt(2.0 * math.pi * k)


def _poisson_terms(omega: float, lo: int, hi: int) -> np.ndarray:
    """Pois(k; omega) at the counts k = lo..hi, by ratio products out from one anchor.

    The anchor is the count of lo..hi nearest the mode floor(omega), in
    _poisson_at's form. Up from it each term is the one before times
    omega/k, down from it times (k+1)/omega: ratios below one, so no
    product overflows, and their rounding grows like the square root of
    the steps taken (1.4e-14 relative at 16,000 steps from the mode of 5e6).
    """
    m = min(max(math.floor(omega), lo), hi)
    i = m - lo
    k = np.arange(lo, hi + 1, dtype=np.float64)
    out = np.empty(k.size)
    out[i] = 1.0
    up = out[i + 1 :]
    np.multiply.accumulate(np.divide(omega, k[i + 1 :], out=up), out=up)
    if i:
        down = out[i - 1 :: -1]
        np.multiply.accumulate(np.divide(k[i:0:-1], omega, out=down), out=down)
    out *= _poisson_at(m, omega)
    return out


def _poisson_tails(omega: float, lo: int, hi: int) -> np.ndarray:
    """Pr[Pois(omega) > k] at the counts k = lo..hi, summed from the top down.

    The sum runs from lo + 1 to max(hi, omega) + 11 sqrt(omega) + 60, past
    which every term is below about e^-60 of the term at max(hi, omega).
    """
    top = max(hi, math.floor(omega)) + math.ceil(11.0 * math.sqrt(omega)) + 60
    terms = _poisson_terms(omega, lo + 1, top)
    return np.add.accumulate(terms[::-1])[::-1][: hi - lo + 1]


# each tail a support window drops
_WINDOW_Q = TRUNCATION_EPS / 4.0


def _check_mean(omega: float) -> None:
    """DomainError for a Poisson mean whose window must pass MAX_SUPPORT counts.

    A window's edges sit 7.2 standard deviations out, so a mean with
    14.4 sqrt(omega) > MAX_SUPPORT, from about 4.8e9 on, is refused.
    """
    if 14.4 * math.sqrt(omega) > MAX_SUPPORT:
        raise DomainError(f"poisson mean {omega} support spans more than {MAX_SUPPORT} counts")


def _poisson_window(omega: float) -> tuple[int, int, int, np.ndarray]:
    """(lo, hi, first, terms): the smallest integer window lo..hi holding all
    but ~TRUNCATION_EPS of Pois(omega), and the terms at the counts first..
    from which it was found, which hold it.

    The edges are the exact _WINDOW_Q quantiles, the smallest k with
    Pr[K <= k] >= q and the smallest with Pr[K > k] <= q, widened by two
    counts each. Both are read off the running sums, from below and from
    above, of the terms over omega +- (11 sqrt(omega) + 60). A window wider
    than MAX_SUPPORT is refused, never clipped; _check_mean refuses the
    widest means before any term is built.
    """
    _check_mean(omega)
    half = 11.0 * math.sqrt(omega) + 60.0
    first, last = max(0, math.floor(omega - half)), math.ceil(omega + half)
    terms = _poisson_terms(omega, first, last)
    lo = max(0, first + int(np.add.accumulate(terms).searchsorted(_WINDOW_Q)) - 2)
    hi = last - int(np.add.accumulate(terms[::-1]).searchsorted(_WINDOW_Q, "right")) + 2
    _check_span(lo, hi, "poisson law")
    return lo, hi, first, terms


def poisson_pmf(omega: float) -> DiscreteDist:
    """Poisson law with mean omega.

    The support window is chosen so the two discarded tails together hold
    no more than about 1e-12 of the mass (_poisson_window). Every bin is a
    ratio product out from the mode, anchored in Loader's saddle-point form
    (_poisson_terms): within 1.4e-14 relative of the exact pmf for means up
    to 5e6, far tails included. A mean whose window would pass MAX_SUPPORT,
    from about 4.8e9 on, is a DomainError; no law is clipped.
    """
    omega = _real(omega, "poisson mean must be finite and non-negative, got {}", 0.0)
    if omega == 0.0:
        return point_mass(0)
    lo, hi, first, terms = _poisson_window(omega)
    return DiscreteDist(lo, terms[lo - first : hi - first + 1])


def _convolve_masses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of two mass arrays, unclipped.

    Supports up to DIRECT_CONV_LIMIT points take the direct O(n*m) product sum,
    which keeps paper-scale tails exact; a longer pair, the kernel that
    _convolve_rows_by_cost prices cheaper, whose FFT bins can fall below zero.
    """
    if max(a.size, b.size) <= DIRECT_CONV_LIMIT:
        return np.convolve(a, b)
    return _convolve_rows_by_cost([a], b)[0]


def _smooth_lengths(limit: int) -> tuple[int, ...]:
    """Every 2**a * 3**b * 5**c <= limit, ascending."""
    lengths = [1]
    for p in (2, 3, 5):  # each length so far times each power of p that keeps it within limit
        lengths = [x * p**k for x in lengths for k in range((limit // x).bit_length()) if x * p**k <= limit]
    return tuple(sorted(lengths))


# the real FFT lengths: a product of two laws within MAX_SUPPORT has fewer points
_FAST_LENS = _smooth_lengths(2 * MAX_SUPPORT)


def _next_fast_len(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n, as scipy.fft.next_fast_len(n, True)
    gives it, for 1 <= n <= 2 * MAX_SUPPORT: one bisection of _FAST_LENS."""
    return _FAST_LENS[bisect.bisect_left(_FAST_LENS, n)]


def _convolve_rows_by_cost(rows: list[np.ndarray], b: np.ndarray) -> list[np.ndarray]:
    """rows, each array replaced by its convolution with b, unclipped, widest first.

    A batch stacks up to _BATCH_POINTS. It is direct, np.convolve per row, iff
    _DIRECT_S * n * m <= _FFT_S + _FFT_POINT_S * L * log2(L) for n, its widest
    row's size, m = b.size and L their product's real FFT length; else one real
    FFT of its rows and b stacked at L, one product, one inverse. A row's bins,
    a lone row's too, are fftconvolve's at L, accurate only in absolute terms.
    Rows held nowhere else are freed.
    """
    order = sorted(range(len(rows)), key=lambda i: rows[i].size, reverse=True)
    while order:
        widest = rows[order[0]].size
        length = _next_fast_len(widest + b.size - 1)
        fit = max(_BATCH_POINTS // length - 1, 1)  # the rows stacked beside b
        batch, order = order[:fit], order[fit:]
        if _DIRECT_S * widest * b.size <= _FFT_S + _FFT_POINT_S * length * math.log2(length):
            for i in batch:
                rows[i] = np.convolve(rows[i], b)
            continue
        stack = np.zeros((len(batch) + 1, length))
        for row, a in zip(stack, (b, *(rows[i] for i in batch))):
            row[: a.size] = a
        spectra = np.fft.rfft(stack)
        del stack, a  # the inverse needs neither the stack nor its last row
        spectra[1:] *= spectra[0]
        for i, o in zip(batch, np.fft.irfft(spectra[1:], length)):
            rows[i] = o[: rows[i].size + b.size - 1]
    return rows


def convolve(a: DiscreteDist, b: DiscreteDist) -> DiscreteDist:
    """Distribution of the sum of independent draws from a and b.

    A pair past DIRECT_CONV_LIMIT points takes the kernel its cost model picks
    (_convolve_masses); FFT noise, within 1e-12 per bin, is clipped at zero. A
    product past MAX_SUPPORT counts is refused before it is laid out.
    """
    a, b = _instance(a, DiscreteDist, "law"), _instance(b, DiscreteDist, "law")
    _check_span(a.offset + b.offset, a.k_max + b.k_max, "convolved law")
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
    _check_span(n * d.offset, n * d.k_max, f"{n}-fold law")
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


def _window(d: DiscreteDist, lo: int, size: int) -> np.ndarray:
    """Masses of d laid out on the size counts from lo, zero-padded."""
    out = np.zeros(size)
    out[d.offset - lo : d.offset - lo + d.masses.size] = d.masses
    return out


def _union(a: DiscreteDist, b: DiscreteDist) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(lo, skip, ma, mb): the masses of a and b laid out together from lo, the lower offset.

    The counts between two supports more than one count apart hold no mass,
    so they are laid out as one zero bin, and the upper law's masses sit
    skip counts below their own. skip is 0 where the supports overlap,
    touch or have one count between them.
    """
    lo, hi = min(a.offset, b.offset), max(a.k_max, b.k_max)
    skip = max(max(a.offset, b.offset) - min(a.k_max, b.k_max) - 2, 0)
    size = hi - lo + 1 - skip
    # only the upper law, the one that starts above lo, moves
    ma = _window(a, lo + skip * (a.offset > lo), size)
    mb = _window(b, lo + skip * (b.offset > lo), size)
    return lo, skip, ma, mb


def tv_distance(a: DiscreteDist, b: DiscreteDist) -> float:
    """Total variation distance, half the L1 gap on the union support."""
    a, b = _instance(a, DiscreteDist, "law"), _instance(b, DiscreteDist, "law")
    _, _, ma, mb = _union(a, b)
    return min(1.0, 0.5 * float(np.abs(ma - mb).sum()))


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
    lo, acc = _laid_out([(d.offset, w * d.masses) for d, w in zip(dists, weights)], "mixture")
    return DiscreteDist(lo, acc)

"""Independent oracles the tests compare the library against.

Everything here is deliberately written by a different route than the
package: exact Fraction arithmetic for the gate outcome laws, a walk
through every gate success/failure pattern of a wiring, closed-form
integrals for the decayed-count moments, the moment route in Python
floats with one function per step, which the per-scheme SNR kernel must
match to the bit, high-precision Poisson and decayed-count
probabilities from mpmath, dense-array helpers that do not
share code with the DiscreteDist machinery, the term-by-term mixture
that composite laws were evaluated with before Horner's rule, the
golden-section peak search that peak_snr refined with before Brent's
bounded maximiser, the Poisson window's two edge searches over every term,
as they ran before each stopped at the mode, peak_snr's peak-grid scan as
one scheme_snr call per window, as it was before the per-rates moment
table, the scipy.optimize calls that the package's two solvers port, and
one-batch-after-another replays of the trajectory samplers that follow
their documented per-batch draw order.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from mpmath import mp
from scipy import optimize

from readout_tradeoff import dist
from readout_tradeoff.dist import DomainError, convolve, mixture, n_fold_convolve
from readout_tradeoff.gates import OutcomeDist, validate_wiring
from readout_tradeoff import scheme
from readout_tradeoff.scheme import PEAK_BRACKET, PEAK_GRID_POINTS, scheme_snr

__all__ = [
    "cascade_conv_ref",
    "cascade_explicit",
    "decay_mean_var",
    "decayed_pmf_exact",
    "dense",
    "enumerate_gate_patterns",
    "flat_ref",
    "float_decay_moments",
    "full_search_window",
    "golden_max",
    "golden_peak_snr",
    "grid_peak_snr",
    "max_abs_diff",
    "moment_snr",
    "poisson_pmf_exact",
    "poisson_tails_exact",
    "power_fold",
    "replay_full_scheme",
    "replay_gate_outcomes",
    "replay_photon_counts",
    "term_by_term_mix",
]


def flat_ref(n: int, p: Fraction) -> list[Fraction]:
    """Chain wiring: probability that q qubits end in the nominal state.

    One failure anywhere severs the rest of the chain, so exactly q
    successes means q leading successes followed by one failure, except
    that the all-but-one count is unreachable.
    """
    if n == 1:
        return [Fraction(0), Fraction(1)]
    probs = [Fraction(0)] * (n + 1)
    for q in range(n - 1):
        probs[q] = (1 - p) ** q * p
    probs[n] = (1 - p) ** (n - 1)
    return probs


# Split wiring laws for small sizes, expanded to explicit polynomials by
# hand and kept as an oracle that shares no structure with the code.
def cascade_explicit(n: int, p: Fraction) -> list[Fraction]:
    q = 1 - p
    if n == 2:
        return [p, 0 * p, q]
    if n == 3:
        return [p, q * p, 0 * p, q**2]
    if n == 4:
        return [p + q * p**2, 0 * p, 2 * p * q**2, 0 * p, q**3]
    if n == 5:
        return [p + q * p**2, p**2 * q**2, p * q**2, 2 * p * q**3, 0 * p, q**4]
    if n == 6:
        return [
            p + q * p**2,
            2 * p**2 * q**2,
            p**2 * q**3,
            2 * p * q**3,
            2 * p * q**4,
            0 * p,
            q**5,
        ]
    raise ValueError(f"no explicit form for n={n}")


def cascade_conv_ref(n: int, p: Fraction) -> list[Fraction]:
    """Split wiring for any size: root gate, then two independent chains."""
    if n == 1:
        return [Fraction(0), Fraction(1)]
    a = flat_ref((n + 1) // 2, p)
    b = flat_ref(n // 2, p)
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    out = [(1 - p) * c for c in conv]
    out[0] += p
    return out


def enumerate_gate_patterns(n: int, wiring, p: float) -> OutcomeDist:
    """Exact outcome law by exhausting all success/failure patterns.

    Walks every one of the 2**len(wiring) patterns through the wiring and
    accumulates the pattern probabilities per bright count, in a fixed
    pattern order so the reduction is deterministic. Exponential in the
    gate count by construction; it is the ground truth the closed forms
    are checked against.
    """
    validate_wiring(n, wiring)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"gate failure probability must lie in [0, 1], got {p}")
    wiring = list(wiring)
    probs = np.zeros(n + 1)
    for pattern in range(1 << len(wiring)):
        state = [False] * n
        state[0] = True
        weight = 1.0
        for g, (c, t) in enumerate(wiring):
            if (pattern >> g) & 1:
                weight *= p
                state[c] = False
            else:
                weight *= 1.0 - p
                if state[c]:
                    state[t] = True
        probs[sum(state)] += weight
    return OutcomeDist(probs)


def decay_mean_var(mu0: float, mu1: float, lam: float, t: float) -> tuple[float, float]:
    """Closed-form mean and variance of the decayed bright-state count.

    Conditioned on decay at time t', the count is Poisson with mean
    m(t') = mu0*t + (mu1-mu0)*t'; no decay within the window keeps the
    full mean mu1*t. The exponential-weight integrals are exact but badly
    cancelling for small lam*t: the i2 numerator loses about
    3*log10(1/(lam*t)) digits. They are evaluated with that many digits
    on top of 45 and only rounded at the end.
    """
    if lam == 0.0 or t == 0.0:
        return mu1 * t, mu1 * t
    with mp.workdps(45 + 3 * max(0, math.ceil(-math.log10(lam * t)))):
        mu0, mu1, lam, t = mp.mpf(mu0), mp.mpf(mu1), mp.mpf(lam), mp.mpf(t)
        dm = mu1 - mu0
        e = mp.e ** (-lam * t)
        i0 = 1 - e
        i1 = (1 - e * (1 + lam * t)) / lam
        i2 = (2 - e * (lam * lam * t * t + 2 * lam * t + 2)) / (lam * lam)
        mean = e * mu1 * t + mu0 * t * i0 + dm * i1
        m1 = mu1 * t
        second = e * (m1 + m1 * m1) + mean - e * m1
        second += mu0 * mu0 * t * t * i0 + 2 * mu0 * t * dm * i1 + dm * dm * i2
        return float(mean), float(second - mean * mean)


_SERIES = tuple(1.0 / math.factorial(2 * m + 1) for m in range(8, 0, -1))


def _var_shape(x: float) -> float:
    """(1 - 2x e^-x - e^-2x)/x^2, the decay-time variance over (mu1-mu0)^2 t^2.

    Below x = 1/2 it is 2 e^-x (sinh x - x)/x^2 summed as a positive series."""
    if x >= 0.5:
        return (-math.expm1(-2.0 * x) - 2.0 * x * math.exp(-x)) / (x * x)
    s2, series = x * x, 0.0
    for c in _SERIES:
        series = series * s2 + c
    return 2.0 * math.exp(-x) * (series * x)


def float_decay_moments(rates, t: float) -> tuple[float, float]:
    """decaying_poisson_moments in Python floats, one function per step."""
    mu0, mu1, lam = rates.mu0, rates.mu1, rates.lam
    x = lam * t
    if x == 0.0:
        mean = var = mu1 * t
    else:
        delta_t = (mu1 - mu0) * t
        mean = mu0 * t + delta_t * (-math.expm1(-x) / x)
        var = mean + delta_t * delta_t * _var_shape(x)
    if not (abs(mean) < math.inf and abs(var) < math.inf):
        raise DomainError(
            f"count moments overflow at window length t={t} ms (mu0={mu0}, mu1={mu1} per ms)"
        )
    return mean, var


def _snr_from_moments(mean_gap: float, var0: float, var1: float) -> float:
    num = 2.0 * abs(mean_gap)
    if num == 0.0:
        return 0.0
    spread = math.sqrt(var0) + math.sqrt(var1)
    return num / spread if spread else math.inf


def moment_snr(q_moments, single0, single1, n: int, t: float) -> float:
    """Composite SNR from (E[Q], Var[Q]) of T0 and T1 and the single-qubit
    (mean, variance) pairs at t, by the mixture moment identities."""
    (m0, v0), (m1, v1) = single0, single1
    (eq0, vq0), (eq1, vq1) = q_moments
    gap = m1 - m0
    var0n = eq0 * v0 + (n - eq0) * v1 + gap * gap * vq0
    var1n = eq1 * v1 + (n - eq1) * v0 + gap * gap * vq1
    if not (abs(var0n) < math.inf and abs(var1n) < math.inf):
        raise DomainError(f"count moments are not finite at window length t={t} ms")
    return _snr_from_moments(gap * ((eq0 - n) + eq1), max(var0n, 0.0), max(var1n, 0.0))


def poisson_pmf_exact(k: int, omega: float) -> float:
    """Pois(k; omega) as exp(k ln omega - omega - ln k!) in 50-digit arithmetic."""
    with mp.workdps(50):
        w = mp.mpf(omega)
        return float(mp.exp(k * mp.log(w) - w - mp.loggamma(k + 1)) if k else mp.exp(-w))


def poisson_tails_exact(k: int, omega: float):
    """(Pr[K <= k], Pr[K > k]) for K ~ Pois(omega) as mpf numbers: the regularized
    upper incomplete gamma Q(k+1, omega) and 1 - Q, at 60 digits, so that the
    upper tail keeps over 40 where it is near 1e-13."""
    with mp.workdps(60):
        below = mp.gammainc(k + 1, mp.mpf(omega), regularized=True)
        return below, 1 - below


def full_search_window(omega: float):
    """(lo, hi, first, terms) of dist._poisson_window(omega) with each edge read
    off a running sum over every term of first..last: from below to last, and
    from above down to first."""
    dist._check_mean(omega)
    half = 11.0 * math.sqrt(omega) + 60.0
    first, last = max(0, math.floor(omega - half)), math.ceil(omega + half)
    terms = dist._poisson_terms(omega, first, last)
    q = dist.TRUNCATION_EPS / 4.0
    lo = max(0, first + int(np.add.accumulate(terms).searchsorted(q)) - 2)
    hi = last - int(np.add.accumulate(terms[::-1]).searchsorted(q, "right")) + 2
    dist._check_span(lo, hi, "poisson law")
    return lo, hi, first, terms


def decayed_pmf_exact(mu0: float, mu1: float, lam: float, t: float, k: int) -> float:
    """P(K = k) of the decayed bright count from its incomplete-gamma form at 80 digits.

    With c = lam/(mu1-mu0), a = (1+c) mu0 t and b = (1+c) mu1 t it is
    e^(-lam t) Pois(k; mu1 t) + c e^(c mu0 t) (1+c)^-(k+1) [Q(k+1, a) - Q(k+1, b)]
    (DLMF 8.2.4), the regularized upper gammas taken apart with 80 digits so
    that their difference keeps full precision on either side of b.
    """
    with mp.workdps(80):
        mu0, mu1, lam, t = mp.mpf(mu0), mp.mpf(mu1), mp.mpf(lam), mp.mpf(t)
        c = lam / (mu1 - mu0)
        m1 = mu1 * t
        stay = mp.exp(-lam * t + k * mp.log(m1) - m1 - mp.loggamma(k + 1))
        gap = mp.gammainc(k + 1, (1 + c) * mu0 * t, regularized=True)
        gap -= mp.gammainc(k + 1, (1 + c) * m1, regularized=True)
        return float(stay + c * mp.exp(c * mu0 * t) * (1 + c) ** -(k + 1) * gap)


def dense(dist, size: int) -> np.ndarray:
    """Embed a DiscreteDist into a flat array over counts 0..size-1."""
    out = np.zeros(size)
    hi = dist.offset + dist.masses.size
    if hi > size:
        raise ValueError(f"support extends to {hi}, beyond size {size}")
    out[dist.offset : hi] = dist.masses
    return out


def max_abs_diff(a, b) -> float:
    size = max(a.offset + a.masses.size, b.offset + b.masses.size)
    return float(np.max(np.abs(dense(a, size) - dense(b, size))))


def term_by_term_mix(probs, own_fold, other_fold, floor: float):
    """Composite law sum_q w_q own^(*q) * other^(*(n-q)), one term per q.

    Each kept outcome q (weight at least floor) gets its own convolution
    power own_fold(q), convolved with other_fold(n - q), and the terms are
    mixed on their union support. When all the weight sits on q = n the
    law is own_fold(n) itself.
    """
    n = len(probs) - 1
    kept = [(q, float(w)) for q, w in enumerate(probs) if w >= floor]
    if kept == [(n, 1.0)]:
        return own_fold(n)
    terms = [convolve(own_fold(q), other_fold(n - q)) for q, _ in kept]
    return mixture(terms, [w for _, w in kept])


def power_fold(law):
    """q -> law^(*q) by the package's repeated squaring."""
    return lambda q: n_fold_convolve(law, q)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a: float, b: float, rel_tol: float) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal f on [a, b].

    Returns the best (t, f(t)) seen, endpoints included, once the bracket
    is narrower than rel_tol * b.
    """
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


def golden_peak_snr(config) -> tuple[float, float]:
    """Peak SNR of a signal-carrying, peaked scheme: the log grid over
    PEAK_BRACKET, then golden-section search between the grid argmax's
    neighbours to a relative window tolerance of 1e-6."""
    ts = np.geomspace(*PEAK_BRACKET, PEAK_GRID_POINTS)
    vals = [scheme_snr(config, t) for t in ts]
    i = int(np.argmax(vals))
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
    t_best, s_best = golden_max(lambda t: scheme_snr(config, t), a, b, 1e-6)
    if vals[i] > s_best:
        return float(vals[i]), float(ts[i])
    return float(s_best), float(t_best)


def grid_peak_snr(config) -> tuple[float, float]:
    """peak_snr with its grid scanned by one scheme_snr call per window, as it
    was before the per-rates moment table, and its refinement unchanged."""
    ts = np.geomspace(*PEAK_BRACKET, PEAK_GRID_POINTS)
    vals = np.array([scheme_snr(config, t) for t in ts.tolist()])
    if not vals.any():
        return 0.0, math.nan
    if scheme._no_decay(config):
        return scheme._no_decay_supremum(config), math.inf
    i = int(np.argmax(vals))
    a = float(ts[max(i - 1, 0)])
    b = float(ts[min(i + 1, ts.size - 1)])
    x, fx = scheme._bounded_minimum(lambda t: -scheme_snr(config, t), a, b, 1e-6 * b)
    if vals[i] > -fx:
        return float(vals[i]), float(ts[i])
    return -fx, x


def scipy_bounded_minimum(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """(x, f(x)) from scipy.optimize.minimize_scalar(method="bounded"), the call
    that scheme._bounded_minimum ports."""
    best = optimize.minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": xatol})
    return float(best.x), float(best.fun)


def scipy_brent_root(f, a: float, b: float, xtol: float) -> float:
    """The root from scipy.optimize.brentq, the call that scheme._brent_root ports."""
    return optimize.brentq(f, a, b, xtol=xtol)


def _sequential_batches(seed: int, shots: int, batch_shots: int):
    """(generator, size) per shot batch in order: Philox keyed by the words
    (seed mod 2**64, batch), its counter starting at the words (0, and the
    seed's bits 64..255 in 256-bit two's complement)."""
    words = [(int(seed) >> shift) % (1 << 64) for shift in (0, 64, 128, 192)]
    counter = np.array([0] + words[1:], dtype=np.uint64)
    done = 0
    batch = 0
    while done < shots:
        size = min(batch_shots, shots - done)
        key = np.array([words[0], batch], dtype=np.uint64)
        yield np.random.Generator(np.random.Philox(key=key, counter=counter)), size
        done += size
        batch += 1


def _grow_add(hist: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """hist plus the counts binned densely from count zero, grown to fit:
    the route the samplers' histograms, binned from each batch's lowest
    count and added at their offsets, must equal bit for bit."""
    bc = np.bincount(counts)
    if bc.size > hist.size:
        hist = np.concatenate((hist, np.zeros(bc.size - hist.size, dtype=np.int64)))
    hist[: bc.size] += bc
    return hist


def _replay_gates(rng, wiring, n: int, p: float, size: int) -> np.ndarray:
    fails = rng.random((size, len(wiring))) < p
    state = np.zeros((size, n), dtype=bool)
    state[:, 0] = True
    for g, (c, t) in enumerate(wiring):
        f = fails[:, g]
        state[f, c] = False
        state[:, t] = ~f & state[:, c]
    return state


def replay_gate_outcomes(wiring, n: int, p: float, shots: int, seed: int, batch_shots: int):
    """Bright-count histogram of sample_gate_outcomes, batch after batch:
    per batch the (shots, gates) uniform block, row per shot."""
    hist = np.zeros(n + 1, dtype=np.int64)
    for rng, size in _sequential_batches(seed, shots, batch_shots):
        hist += np.bincount(_replay_gates(rng, wiring, n, p, size).sum(axis=1), minlength=n + 1)
    return hist


def replay_photon_counts(rates, initial_state: int, t: float, shots: int, seed: int,
                         batch_shots: int):
    """Count histogram of sample_photon_counts, batch after batch: per
    batch the decay times (bright only), then the counts."""
    hist = np.zeros(1, dtype=np.int64)
    for rng, size in _sequential_batches(seed, shots, batch_shots):
        if initial_state == 1:
            if rates.lam > 0.0:
                tau = rng.exponential(1.0 / rates.lam, size)
            else:
                tau = np.full(size, np.inf)
            bright = np.minimum(tau, t)
            mean = rates.mu1 * bright + rates.mu0 * (t - bright)
        else:
            mean = np.full(size, rates.mu0 * t)
        hist = _grow_add(hist, rng.poisson(mean))
    return hist


def replay_full_scheme(wiring, n: int, rates, p: float, t: float, shots: int, seed: int,
                       batch_shots: int):
    """Dark and bright histograms of sample_full_scheme, batch after batch:
    per batch the dark-preparation counts, then gate uniforms, decay times
    and counts for the bright preparation."""
    hist0 = np.zeros(1, dtype=np.int64)
    hist1 = np.zeros(1, dtype=np.int64)
    for rng, size in _sequential_batches(seed, shots, batch_shots):
        hist0 = _grow_add(hist0, rng.poisson(rates.mu0 * t, (size, n)).sum(axis=1))
        state = _replay_gates(rng, wiring, n, p, size)
        if rates.lam > 0.0:
            tau = rng.exponential(1.0 / rates.lam, (size, n))
        else:
            tau = np.full((size, n), np.inf)
        bright = np.where(state, np.minimum(tau, t), 0.0)
        mean = rates.mu1 * bright + rates.mu0 * (t - bright)
        hist1 = _grow_add(hist1, rng.poisson(mean).sum(axis=1))
    return hist0, hist1

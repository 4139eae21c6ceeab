import math
import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, strategies as st
from mpmath import mp
from scipy import signal, special, stats as ss

from readout_tradeoff import dist
from readout_tradeoff.dist import (
    DIRECT_CONV_LIMIT,
    DiscreteDist,
    DomainError,
    RateParams,
    convolve,
    mixture,
    moments,
    n_fold_convolve,
    point_mass,
    poisson_pmf,
    tail_ge,
    tv_distance,
)
from readout_tradeoff.decay import DecayModelParams
from readout_tradeoff.gates import (
    Compilation,
    GateNoise,
    OutcomeDist,
    point_outcome,
    validate_wiring,
)
from readout_tradeoff.montecarlo import McConfig, sample_gate_outcomes, sample_photon_counts
from readout_tradeoff.scheme import (
    SchemeConfig,
    compose,
    estimate_time_exponent,
    gaussian_scheme_snr,
    scheme_snr,
    threshold_analytic,
    time_to_snr,
)
from tests._reference import max_abs_diff, poisson_pmf_exact, poisson_tails_exact
from tests.test_cli import run_python


def small_dists(max_offset=6, max_len=8):
    """Strategy producing normalized distributions on small supports."""

    def build(offset, weights):
        w = np.asarray(weights, dtype=float)
        return DiscreteDist(offset, w / w.sum(), 0.0)

    weights = st.lists(
        st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=max_len
    )
    return st.builds(build, st.integers(0, max_offset), weights)


class TestRateParams:
    def test_accepts_typical_lab_values(self):
        r = RateParams(3.5, 14.0, 0.0041)
        assert r.mu0 == 3.5 and r.mu1 == 14.0 and r.lam == 0.0041

    def test_equal_rates_allowed(self):
        RateParams(7.0, 7.0)

    @pytest.mark.parametrize(
        "args",
        [(14.0, 3.5, 0.0), (-1.0, 2.0, 0.0), (1.0, 2.0, -0.1), (float("nan"), 2.0, 0.0)],
    )
    def test_rejects_bad_rates(self, args):
        with pytest.raises(DomainError):
            RateParams(*args)


class TestDiscreteDist:
    def test_auto_truncation_loss(self):
        d = DiscreteDist(0, np.array([0.25, 0.25, 0.25]))
        assert d.truncation_loss == pytest.approx(0.25, abs=1e-15)

    def test_masses_read_only(self):
        d = point_mass(3)
        with pytest.raises(ValueError):
            d.masses[0] = 0.5

    def test_support_and_pmf(self):
        d = DiscreteDist(2, np.array([0.5, 0.5]), 0.0)
        assert d.k_max == 3
        assert list(d.support) == [2, 3]
        assert d.pmf(2) == 0.5
        assert d.pmf(1) == 0.0 and d.pmf(4) == 0.0

    def test_pmf_of_a_count_that_cannot_occur_is_zero(self):
        d = DiscreteDist(2, np.array([0.5, 0.5]), 0.0)
        assert d.pmf(3.0) == d.pmf(np.int64(3)) == d.pmf(True + 2) == 0.5
        for k in (2.5, 3.0000000000000004, math.inf, -math.inf, 1e300):
            assert d.pmf(k) == 0.0

    @pytest.mark.parametrize("k", ["3", math.nan, None])
    def test_pmf_rejects_what_is_no_number(self, k):
        with pytest.raises(DomainError, match="^count must be a number, got "):
            DiscreteDist(2, np.array([0.5, 0.5]), 0.0).pmf(k)

    def test_rejects_negative_mass(self):
        with pytest.raises(DomainError):
            DiscreteDist(0, np.array([0.5, -0.1, 0.6]), 0.0)

    @pytest.mark.parametrize(
        "masses, message",
        [
            ([0.5, math.nan, 0.5], "masses must be finite"),
            ([0.5, math.inf, 0.5], "masses must be finite"),
            ([-math.inf, math.inf, 1.0], "masses must be finite"),
            ([0.5, -0.1, 0.6], "masses must be non-negative"),
            # a non-finite mass is reported before a negative one
            ([-0.5, math.nan, 1.5], "masses must be finite"),
            ([math.nan, -0.5, 1.5], "masses must be finite"),
        ],
    )
    def test_bad_masses_name_their_fault(self, masses, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            DiscreteDist(0, np.array(masses))

    def test_rejects_negative_offset(self):
        with pytest.raises(DomainError):
            DiscreteDist(-1, np.array([1.0]), 0.0)

    def test_rejects_inconsistent_loss(self):
        with pytest.raises(DomainError):
            DiscreteDist(0, np.array([0.5, 0.5]), 0.2)

    def test_rejects_negative_loss(self):
        with pytest.raises(DomainError, match="^truncation_loss must be non-negative$"):
            DiscreteDist(0, np.array([0.5, 0.5]), -1e-3)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            DiscreteDist(0, np.array([]), 0.0)


class TestPoissonPmf:
    @pytest.mark.parametrize("omega", [0.3, 1.0, 7.0, 42.0, 300.0])
    def test_matches_scipy_on_window(self, omega):
        # every bin against the exact pmf: scipy.stats.poisson.pmf, which
        # exponentiates a log-space sum, is itself 1e-14 off at omega = 300
        d = poisson_pmf(omega)
        ref = [poisson_pmf_exact(k, omega) for k in d.support.tolist()]
        assert np.max(np.abs(d.masses - ref)) < 1e-15

    @pytest.mark.parametrize("omega", [3.5, 16.5, 1e2, 1e4, 6.8e5, 1e6, 5e6])
    def test_bins_against_mpmath(self, omega):
        # relative error at up to 1,001 bins spread over the window, tails
        # included; log-space terms lost 2e-8 of it at 5e6. At 16.5 the
        # anchor is the first count past the stirlerr table
        d = poisson_pmf(omega)
        idx = np.unique(np.linspace(0, d.masses.size - 1, 1001).astype(int))
        exact = np.array([poisson_pmf_exact(d.offset + i, omega) for i in idx.tolist()])
        assert np.max(np.abs(d.masses[idx] / exact - 1.0)) <= 1e-13

    @pytest.mark.parametrize("omega", [0.3, 7.0, 300.0, 1e5])
    def test_keeps_nearly_all_mass(self, omega):
        d = poisson_pmf(omega)
        assert d.masses.sum() >= 1.0 - 1e-12
        assert d.truncation_loss <= 1e-12

    def test_law_past_a_million(self):
        # log-space terms pushed the mass of such a law past DiscreteDist's check
        d = poisson_pmf(1.4e6)
        assert d.truncation_loss <= 1e-12
        assert abs(d.masses.sum() + d.truncation_loss - 1.0) <= 1e-12

    def test_zero_rate_is_point_mass(self):
        d = poisson_pmf(0.0)
        assert d.offset == 0 and d.masses.size == 1 and d.masses[0] == 1.0

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            poisson_pmf(-1.0)

    @pytest.mark.parametrize("omega", [1e12, 3.5e300])
    def test_rejects_mean_beyond_quantile_range(self, omega):
        # scipy's Poisson quantiles come back NaN here
        with pytest.raises(DomainError, match=f"^poisson mean {re.escape(str(omega))} support spans more than"):
            poisson_pmf(omega)


class TestScipyKernels:
    """The windows equal their exact definitions, and the FFT convolutions scipy's wrapper."""

    @staticmethod
    def defined_edges(omegas):
        # the smallest k with pdtr(k) >= q and the smallest with pdtrc(k) <= q,
        # bisected over the counts for every mean at once
        q = dist.TRUNCATION_EPS / 4.0
        top = np.ceil(omegas + 20.0 * np.sqrt(omegas) + 100.0)
        edges = []
        for kernel, done in ((special.pdtr, lambda p: p >= q), (special.pdtrc, lambda p: p <= q)):
            lo, hi = np.zeros_like(omegas), top
            while np.any(lo < hi):
                mid = np.floor(0.5 * (lo + hi))
                found = done(kernel(mid, omegas))
                lo, hi = np.where(found, lo, mid + 1.0), np.where(found, mid, hi)
            edges.append(lo.astype(np.int64).tolist())
        return edges

    @staticmethod
    def window(lo_q, hi_q):
        # None where the window is refused, wider than MAX_SUPPORT
        lo, hi = max(0, lo_q - 2), hi_q + 2
        return (lo, hi) if hi - lo + 1 <= dist.MAX_SUPPORT else None

    @staticmethod
    def check_exact(got, lo_q, omega):
        # scipy's tail kernels lose digits at large means (pdtrc thousands of
        # counts at 1e9): where they disagree with the window, its edges must
        # be the exact quantiles, by mpmath, and a refused window (got None)
        # must be wider than MAX_SUPPORT
        q = mp.mpf(dist.TRUNCATION_EPS / 4.0)

        def cdf(k):
            return poisson_tails_exact(k, omega)[0]

        def sf(k):
            return poisson_tails_exact(k, omega)[1]

        if got is None:
            # refused: pdtr's lower edge is exact, and the upper edge lies
            # more than MAX_SUPPORT - 3 counts above the window's lower end
            assert cdf(lo_q - 1) < q <= cdf(lo_q)
            assert sf(max(0, lo_q - 2) + dist.MAX_SUPPORT - 3) > q
            return
        lo, hi = got
        assert cdf(lo + 1) < q <= cdf(lo + 2) if lo > 0 else cdf(2) >= q
        assert sf(hi - 2) <= q < sf(hi - 3)

    def test_window_equals_scipy_quantiles(self):
        # a decade apart from 1e-300, densely over the envelope's largest
        # means, and just past the mean from which windows are refused at once
        omegas = np.concatenate(
            (np.geomspace(1e-300, 1e11, 311), np.geomspace(1e5, 5e6, 101), [4.85e9])
        )
        lo_q, hi_q = self.defined_edges(omegas)
        for omega, lo_k, hi_k in zip(omegas.tolist(), lo_q, hi_q):
            try:
                got = dist._poisson_window(omega)[:2]
            except DomainError as exc:
                assert str(exc).endswith("spans more than 1000000 counts")
                got = None
            if got != self.window(lo_k, hi_k):
                self.check_exact(got, lo_k, omega)
        for omega in (1e12, 2.0**53, 3.5e300):
            with pytest.raises(DomainError, match="spans more than 1000000 counts$"):
                dist._poisson_window(omega)

    @pytest.mark.parametrize("omega", [4.85e9, 1e10, 1e11, 1e12, 2.0**53, 3.5e300])
    def test_wide_window_refused_before_building(self, omega, monkeypatch):
        def unexpected(*args):
            raise AssertionError("a refused window built its terms")

        monkeypatch.setattr(dist, "_poisson_terms", unexpected)
        message = f"^poisson mean {re.escape(str(omega))} support spans more than 1000000 counts$"
        with pytest.raises(DomainError, match=message):
            poisson_pmf(omega)

    def test_window_just_past_the_limit_is_refused(self):
        # below 14.4 sqrt(omega) = MAX_SUPPORT, the exact window is checked:
        # it fits at 4.78e9 and is one count too wide from about 4.7888e9
        lo, hi, _, _ = dist._poisson_window(4.78e9)
        assert hi - lo + 1 == 999_084
        span = "poisson law support 4799499423..4800500594"
        with pytest.raises(DomainError, match=f"^{re.escape(span)} spans more than 1000000 counts$"):
            dist._poisson_window(4.8e9)

    # past DIRECT_CONV_LIMIT the cost model prices a pair with a short side,
    # (4097, 60) and (20000, 60), direct; a one-point pair's product is
    # fftconvolve's too
    @pytest.mark.parametrize(
        "n, m",
        [(4097, 1), (4097, 60), (4097, 4097), (5000, 4099), (20000, 60), (93001, 4500)],
    )
    def test_fft_side_equals_fftconvolve(self, n, m):
        rng = np.random.default_rng(n + m)
        a, b = rng.random(n), rng.random(m)
        reference = np.convolve if m == 60 else signal.fftconvolve
        for x, y in ((a, b), (b, a)):
            assert np.array_equal(dist._convolve_masses(x, y), reference(x, y))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kernel_rows_equal_fftconvolve(self, k, monkeypatch):
        # k rows, a lone row too, and b in one stack at the widest product's
        # FFT length, 5000 here for each: each row's bins are fftconvolve's
        rng = np.random.default_rng(k)
        rows, b = [rng.random(n) for n in (3000, 2990, 2980)[:k]], rng.random(2000)
        assert {scipy.fft.next_fast_len(row.size + b.size - 1, True) for row in rows} == {5000}
        shapes, rfft = [], np.fft.rfft

        def recorded(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return rfft(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        got = dist._convolve_rows_by_cost(list(rows), b)
        assert shapes == [(k + 1, 5000)]
        for row, out in zip(rows, got):
            assert np.array_equal(out, signal.fftconvolve(row, b))

    def test_next_fast_len_equals_scipy(self):
        # every length up to 20,000, and near MAX_SUPPORT and the table's end
        lengths = [*range(1, 20001), *range(10**6 - 2000, 10**6 + 2001), *range(2 * 10**6 - 4000, 2 * 10**6 + 1)]
        got = [dist._next_fast_len(n) for n in lengths]
        assert got == [scipy.fft.next_fast_len(n, True) for n in lengths]


class TestConvolve:
    def test_two_coins(self):
        c = DiscreteDist(0, np.array([0.5, 0.5]), 0.0)
        out = convolve(c, c)
        assert out.offset == 0
        np.testing.assert_allclose(out.masses, [0.25, 0.5, 0.25], atol=1e-15)

    def test_offsets_add(self):
        out = convolve(point_mass(3), point_mass(5))
        assert out.offset == 8 and out.masses[0] == 1.0

    @given(small_dists(), small_dists())
    def test_matches_quadratic_reference(self, a, b):
        out = convolve(a, b)
        size = a.k_max + b.k_max + 1
        ref = np.zeros(size)
        for i, pa in enumerate(a.masses):
            for j, pb in enumerate(b.masses):
                ref[a.offset + i + b.offset + j] += pa * pb
        got = np.zeros(size)
        got[out.offset : out.offset + out.masses.size] = out.masses
        assert np.max(np.abs(got - ref)) < 1e-14

    def test_fft_path_matches_direct(self):
        # both operands wider than the direct-path cutoff
        a = poisson_pmf(1.0e5)
        b = poisson_pmf(1.2e5)
        assert a.masses.size > DIRECT_CONV_LIMIT and b.masses.size > DIRECT_CONV_LIMIT
        out = convolve(a, b)
        ref = np.convolve(a.masses, b.masses)
        assert np.max(np.abs(out.masses - ref)) < 1e-12
        # a sum of independent counts with those rates
        assert abs(moments(out)[0] - 2.2e5) < 1e-3

    def test_long_lopsided_pair_is_exact(self):
        # one side past DIRECT_CONV_LIMIT (4,574 points), the other 27: the
        # cost model prices it direct, so every bin, tails too, is np.convolve's
        a, b = poisson_pmf(1e5), poisson_pmf(3.5)
        assert a.masses.size > DIRECT_CONV_LIMIT
        assert np.array_equal(convolve(a, b).masses, np.convolve(a.masses, b.masses))


class TestNFoldConvolve:
    def test_zero_copies_is_identity_element(self):
        out = n_fold_convolve(poisson_pmf(3.0), 0)
        assert out.offset == 0 and out.masses.size == 1 and out.masses[0] == 1.0

    def test_one_copy_unchanged(self):
        d = poisson_pmf(3.0)
        assert tv_distance(n_fold_convolve(d, 1), d) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_poisson_additivity(self, n):
        # n independent Poisson counts sum to a Poisson count
        assert tv_distance(n_fold_convolve(poisson_pmf(2.5), n), poisson_pmf(2.5 * n)) < 1e-12

    @given(st.integers(0, 7), st.integers(0, 4))
    def test_point_mass_scales(self, k, n):
        out = n_fold_convolve(point_mass(k), n)
        assert out.offset == k * n and out.masses[0] == 1.0

    def test_rejects_negative_count(self):
        with pytest.raises(DomainError):
            n_fold_convolve(point_mass(1), -1)


class TestMoments:
    @pytest.mark.parametrize("omega", [0.5, 7.0, 120.0])
    def test_poisson_mean_equals_variance(self, omega):
        mean, var = moments(poisson_pmf(omega))
        assert mean == pytest.approx(omega, rel=1e-12)
        assert var == pytest.approx(omega, rel=1e-9)

    def test_point_mass(self):
        mean, var = moments(point_mass(4))
        assert mean == 4.0 and var == 0.0

    def test_independent_of_blas_threads(self):
        # 93k points: large enough for a BLAS dot product to split across threads
        code = (
            "from readout_tradeoff import *; "
            "cfg = SchemeConfig.noisy(64, RateParams(3.5, 14.0, 0.0041), GateNoise(0.01)); "
            "s = compose(cfg, 100.0); "
            "print(s.p1.masses.size, *(x.hex() for x in moments(s.p0) + moments(s.p1)))"
        )
        outs = {
            threads: run_python("-c", code, env={"OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")
        }
        assert outs["1"].split()[0] == "93377"
        assert outs["1"] == outs["2"]


class TestTailGe:
    def test_hand_case(self):
        d = DiscreteDist(2, np.array([0.1, 0.2, 0.3, 0.4]), 0.0)
        assert tail_ge(d, 4.0) == pytest.approx(0.7)
        assert tail_ge(d, 3.5) == pytest.approx(0.7)  # ceil lands on 4
        assert tail_ge(d, 0.0) == 1.0
        assert tail_ge(d, 5.0) == pytest.approx(0.4)
        assert tail_ge(d, 6.0) == 0.0

    def test_infinite_thresholds(self):
        d = DiscreteDist(2, np.array([0.1, 0.2, 0.3]))
        assert tail_ge(d, math.inf) == 0.0
        assert tail_ge(d, -math.inf) == float(d.masses.sum())

    def test_rejects_nan_threshold(self):
        with pytest.raises(DomainError, match="^threshold must be a number, got nan$"):
            tail_ge(point_mass(2), math.nan)

    @pytest.mark.parametrize("omega,eta", [(7.0, 10.0), (42.0, 30.0)])
    def test_matches_scipy_survival(self, omega, eta):
        got = tail_ge(poisson_pmf(omega), eta)
        assert got == pytest.approx(ss.poisson.sf(eta - 1, omega), rel=1e-10)


_RATES = RateParams(3.5, 14.0, 0.0041)
# every argument that counts something, as a call on the bad value x
_COUNT_ARGUMENTS = {
    "DiscreteDist.offset": lambda x: DiscreteDist(x, np.ones(1)),
    "point_mass": point_mass,
    "n_fold_convolve": lambda x: n_fold_convolve(point_mass(1), x),
    "Compilation.wiring": Compilation.FLAT.wiring,
    "OutcomeDist.n_qubits": lambda x: OutcomeDist(x, [0.0, 1.0]),
    "validate_wiring": lambda x: validate_wiring(x, []),
    "point_outcome.n": lambda x: point_outcome(x, 0),
    "point_outcome.q": lambda x: point_outcome(3, x),
    "SchemeConfig.n_qubits": lambda x: SchemeConfig.ideal(x, _RATES),
    "threshold_analytic": lambda x: threshold_analytic(_RATES, x, 1.0),
    "gaussian_scheme_snr": lambda x: gaussian_scheme_snr(1.0, x, 1.0),
    "McConfig.shots": lambda x: McConfig(x, 1, SchemeConfig.ideal(1, _RATES), 1.0),
    "sample_gate_outcomes": lambda x: sample_gate_outcomes([(0, 1)], 0.1, x, 1),
    "sample_photon_counts": lambda x: sample_photon_counts(_RATES, 1, 1.0, x, 1),
}


class TestCountArguments:
    # a 0-d string or object array is no count, though int() converts both
    @pytest.mark.parametrize(
        "x", [math.inf, -math.inf, math.nan, 1.5, "2", None, np.array("2"), np.array(2, dtype=object)]
    )
    @pytest.mark.parametrize("call", _COUNT_ARGUMENTS.values(), ids=_COUNT_ARGUMENTS)
    def test_non_integers_raise_domain_error(self, call, x):
        with pytest.raises(DomainError):
            call(x)

    @pytest.mark.parametrize("x", [True, 1.0, np.int64(1), np.float64(1.0)])
    @pytest.mark.parametrize("call", _COUNT_ARGUMENTS.values(), ids=_COUNT_ARGUMENTS)
    def test_integral_values_are_accepted(self, call, x):
        call(x)

    @pytest.mark.parametrize(
        "x, shown",
        [("2", "'2'"), (np.array(2, dtype=object), "array(2, dtype=object)"), (2.5, "2.5"), (-1, "-1")],
    )
    def test_a_refused_value_shows_by_its_repr(self, x, shown):
        # a float shows as itself and anything else by its repr, so '2' cannot read as a count
        message = f"^offset must be a non-negative integer, got {re.escape(shown)}$"
        with pytest.raises(DomainError, match=message):
            point_mass(x)

    def test_point_outcome_keeps_its_range_message(self):
        with pytest.raises(DomainError, match=r"^outcome 1\.5 outside 0\.\.3$"):
            point_outcome(3, 1.5)


# What scalar real arguments refuse: a string, 0-d string and object arrays
# (all of which float() converts), nan and a list always, None where it is no
# default, inf and an int past the largest float where the value must be finite.
_NON_NUMERIC = ["0.5", np.array("0.5"), np.array(0.5, dtype=object)]
_FINITE = [*_NON_NUMERIC, None, math.nan, [1.0, 2.0], math.inf, 10**400]
_EXTENDED = [*_NON_NUMERIC, None, math.nan, [1.0, 2.0]]
_OPTIONAL = [*_NON_NUMERIC, math.nan, [1.0, 2.0], math.inf, 10**400]
_ONES = [1, True, np.int64(1)]
_HALVES = [np.float32(0.5), np.float64(0.5)]
_IDEAL = SchemeConfig.ideal(1, _RATES)
# every scalar real argument, as (call on x, the values it refuses, the values it takes)
_REAL_ARGUMENTS = {
    "RateParams.mu0": (lambda x: RateParams(x, 14.0), _FINITE, _ONES + _HALVES),
    "RateParams.mu1": (lambda x: RateParams(0.0, x), _FINITE, _ONES + _HALVES),
    "RateParams.lam": (lambda x: RateParams(3.5, 14.0, x), _FINITE, _ONES + _HALVES),
    "DiscreteDist.truncation_loss": (
        lambda x: DiscreteDist(0, np.full(2, 0.25), x), _OPTIONAL, _HALVES
    ),
    "DiscreteDist.pmf": (point_mass(1).pmf, _EXTENDED, _ONES + _HALVES),
    "poisson_pmf": (poisson_pmf, _FINITE, _ONES + _HALVES),
    "tail_ge": (lambda x: tail_ge(point_mass(1), x), _EXTENDED, _ONES + _HALVES),
    "GateNoise.p": (GateNoise, _FINITE, _ONES + _HALVES),
    "sample_gate_outcomes": (
        lambda x: sample_gate_outcomes([(0, 1)], x, 10, 1), _FINITE, _ONES + _HALVES
    ),
    "time_to_snr": (lambda x: time_to_snr(_IDEAL, x), _EXTENDED, _ONES + _HALVES),
    "gaussian_scheme_snr.drift_rate": (
        lambda x: gaussian_scheme_snr(x, 1, 1.0), _FINITE, _ONES + _HALVES
    ),
    "gaussian_scheme_snr.t": (lambda x: gaussian_scheme_snr(1.0, 1, x), _FINITE, _ONES + _HALVES),
    "compose": (lambda x: compose(_IDEAL, x), _FINITE, _ONES + _HALVES),
    "threshold_analytic": (lambda x: threshold_analytic(_RATES, 1, x), _FINITE, _ONES + _HALVES),
    "McConfig.t": (lambda x: McConfig(1, 1, _IDEAL, x), _FINITE, _ONES + _HALVES),
    "sample_photon_counts": (
        lambda x: sample_photon_counts(_RATES, 1, x, 1, 1), _FINITE, _ONES + _HALVES
    ),
    "scheme_snr": (lambda x: scheme_snr(_IDEAL, x), _FINITE, _ONES + _HALVES),
    "DecayModelParams.t": (lambda x: DecayModelParams(_RATES, x), _FINITE, _ONES + _HALVES),
}


def _real_cases(column: int):
    return [
        pytest.param(row[0], x, id=f"{name}-{x!r:.16}")
        for name, row in _REAL_ARGUMENTS.items()
        for x in row[column]
    ]


class TestRealArguments:
    @pytest.mark.parametrize("call, x", _real_cases(1))
    def test_non_reals_raise_domain_error(self, call, x):
        with pytest.raises(DomainError):
            call(x)

    @pytest.mark.parametrize("call, x", _real_cases(2))
    def test_reals_in_range_are_accepted(self, call, x):
        call(x)

    def test_infinities_keep_their_meaning(self):
        assert time_to_snr(_IDEAL, math.inf) is None
        assert tail_ge(point_mass(1), -math.inf) == 1.0 and tail_ge(point_mass(1), math.inf) == 0.0

    def test_a_rejected_string_reads_as_a_string(self):
        with pytest.raises(DomainError, match=r"^gate failure probability .*, got '0\.1'$"):
            GateNoise("0.1")


# every array argument, as (call on a sequence x, lists of floats, of ints and
# with bools that it takes); a float64 conversion would parse the strings
# that _real refuses
_ARRAY_ARGUMENTS = {
    "DiscreteDist.masses": (lambda x: DiscreteDist(0, x), [0.5, 0.5], [0, 1], [True, False]),
    "OutcomeDist.probs": (lambda x: OutcomeDist(1, x), [0.5, 0.5], [0, 1], [True, False]),
    "mixture": (
        lambda x: mixture([point_mass(0), point_mass(1)], x), [0.5, 0.5], [0, 1], [True, False]
    ),
    "estimate_time_exponent.ts": (
        lambda x: estimate_time_exponent(x, [1.0, 2.0]), [1.0, 4.0], [1, 4], [True, 4]
    ),
    "estimate_time_exponent.snrs": (
        lambda x: estimate_time_exponent([1.0, 4.0], x), [1.0, 2.0], [1, 2], [True, 2]
    ),
}


def _array_cases(make):
    return [
        pytest.param(row[0], x, id=f"{name}-{x!r:.24}")
        for name, row in _ARRAY_ARGUMENTS.items()
        for x in make(*row[1:])
    ]


def _non_reals(floats, ints, bools):
    # strings numpy parses, a string it does not, objects, complex numbers, a ragged nesting
    return [
        [str(v) for v in floats],
        [floats[0], "x"],
        np.array(floats, dtype=object),
        np.array(floats) + 0j,
        [[floats[0]], floats],
    ]


def _reals(floats, ints, bools):
    return [floats, ints, bools, np.array(floats, np.float32), np.array(ints, np.uint8)]


class TestRealArrays:
    @pytest.mark.parametrize("call, x", _array_cases(_non_reals))
    def test_non_reals_raise_domain_error(self, call, x):
        with pytest.raises(DomainError, match="real"):
            call(x)

    @pytest.mark.parametrize("call, x", _array_cases(_reals))
    def test_reals_are_accepted(self, call, x):
        call(x)


class TestTvDistance:
    def test_identical_is_zero(self):
        d = poisson_pmf(5.0)
        assert tv_distance(d, d) == 0.0

    def test_disjoint_is_one(self):
        assert tv_distance(point_mass(0), point_mass(9)) == pytest.approx(1.0)

    def test_far_apart_is_one(self):
        # laid out densely, the 1e12 empty counts between the laws would take 8 TB
        near, far = DiscreteDist(0, np.full(2, 0.5)), DiscreteDist(10**12, np.full(4, 0.25))
        assert tv_distance(near, far) == tv_distance(far, near) == 1.0

    @given(small_dists(), small_dists())
    def test_symmetric_and_bounded(self, a, b):
        ab = tv_distance(a, b)
        assert 0.0 <= ab <= 1.0
        assert ab == pytest.approx(tv_distance(b, a), abs=1e-15)


class TestMixture:
    def test_two_point_mixture(self):
        out = mixture([point_mass(1), point_mass(3)], [0.25, 0.75])
        assert out.offset == 1
        np.testing.assert_allclose(out.masses, [0.25, 0.0, 0.75], atol=1e-15)

    def test_offset_alignment(self):
        a = DiscreteDist(0, np.array([0.5, 0.5]), 0.0)
        b = DiscreteDist(2, np.array([1.0]), 0.0)
        out = mixture([a, b], [0.5, 0.5])
        cmp = DiscreteDist(0, np.array([0.25, 0.25, 0.5]), 0.0)
        assert max_abs_diff(out, cmp) < 1e-15

    def test_rejects_weight_mismatch(self):
        with pytest.raises(DomainError):
            mixture([point_mass(0)], [0.5, 0.5])

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(DomainError):
            mixture([point_mass(0), point_mass(1)], [0.5, 0.6])

    def test_rejects_negative_weight(self):
        with pytest.raises(DomainError, match="^mixture weights must be finite and non-negative$"):
            mixture([point_mass(0), point_mass(1)], [1.5, -0.5])

    def test_rejects_a_union_support_past_max_support(self):
        # laid out densely, the 1e12 counts between the laws would take 8 TB
        with pytest.raises(DomainError, match=r"^mixture support 0\.\.1000000000000 spans more than"):
            mixture([point_mass(0), point_mass(10**12)], [0.5, 0.5])
        with pytest.raises(DomainError, match=r"^mixture support 0\.\.1000000 spans more than 1000000 counts$"):
            mixture([point_mass(0), point_mass(dist.MAX_SUPPORT)], [0.5, 0.5])
        widest = mixture([point_mass(0), point_mass(dist.MAX_SUPPORT - 1)], [0.5, 0.5])
        assert widest.masses.size == dist.MAX_SUPPORT

    @pytest.mark.parametrize("component", [None, 1.0, np.array([1.0])])
    def test_rejects_a_component_of_the_wrong_type(self, component):
        with pytest.raises(DomainError, match="^law must be a DiscreteDist instance$"):
            mixture([point_mass(0), component], [0.5, 0.5])
        with pytest.raises(DomainError, match="^law must be a DiscreteDist instance$"):
            mixture([component], [1.0])

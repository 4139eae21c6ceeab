import contextlib
import math
import signal

import numpy as np
import pytest

from readout_tradeoff.dist import DomainError
from readout_tradeoff.quadrature import integrate_family


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError in the block once it has run for seconds: a call
    that would refine forever fails instead of hanging the suite."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_monomial_exact():
    out = integrate_family(lambda x: x**2, 0.0, 1.0)
    assert out.shape == ()
    assert float(out) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_high_degree_polynomial_single_panel():
    # degree 20 is inside the exactness range of the coarse rule already
    out = integrate_family(lambda x: x**20, 0.0, 1.0)
    assert float(out) == pytest.approx(1.0 / 21.0, rel=1e-13)


def test_family_rows_integrated_together():
    f = lambda x: np.stack([x, x**3])
    out = integrate_family(f, 0.0, 2.0)
    assert out.shape == (2,)
    np.testing.assert_allclose(out, [2.0, 4.0], rtol=1e-12)


def test_smooth_oscillatory():
    out = integrate_family(lambda x: np.sin(x) ** 2, 0.0, 2.0 * math.pi)
    assert float(out) == pytest.approx(math.pi, rel=1e-12)


def test_moderate_interior_peak_found_by_refinement():
    # wide enough for the coarse rules to disagree and drive splitting
    sigma = 0.01
    f = lambda x: np.exp(-0.5 * ((x - 0.5) / sigma) ** 2)
    out = integrate_family(f, 0.0, 1.0, rel_tol=1e-10)
    assert float(out) == pytest.approx(sigma * math.sqrt(2.0 * math.pi), rel=1e-8)


def test_needle_peak_needs_a_seed_point():
    # far below the node spacing both rules agree on zero: the documented
    # contract is that known narrow scales must be seeded
    sigma = 1e-4
    f = lambda x: np.exp(-0.5 * ((x - 0.5) / sigma) ** 2)
    blind = integrate_family(f, 0.0, 1.0, rel_tol=1e-10)
    assert float(blind) == 0.0
    seeded = integrate_family(
        f, 0.0, 1.0, rel_tol=1e-10, seed_points=(0.5 - 10 * sigma, 0.5 + 10 * sigma)
    )
    assert float(seeded) == pytest.approx(sigma * math.sqrt(2.0 * math.pi), rel=1e-8)


def test_fast_exponential_with_seed_points():
    # scale-aware seeds keep uniform refinement from converging on zero
    lam = 1e6
    seeds = tuple(2.0**-k for k in range(40, 0, -1))
    out = integrate_family(
        lambda x: lam * np.exp(-lam * x), 0.0, 10.0, rel_tol=1e-10, seed_points=seeds
    )
    assert float(out) == pytest.approx(1.0, rel=1e-9)


def test_seed_points_outside_interval_ignored():
    out = integrate_family(lambda x: x, 0.0, 1.0, seed_points=(-5.0, 0.5, 77.0))
    assert float(out) == pytest.approx(0.5, rel=1e-12)


def test_zero_width_interval():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.ones((3, x.size))

    out = integrate_family(f, 2.0, 2.0)
    assert out.shape == (3,)
    assert np.all(out == 0.0)


def test_panel_budget_warns():
    rng = np.random.default_rng(0)

    def noisy(x):
        return 1.0 + 0.5 * rng.standard_normal(x.size)

    with pytest.warns(RuntimeWarning):
        integrate_family(noisy, 0.0, 1.0, rel_tol=1e-14, max_panels=64)


def test_rejects_inverted_interval():
    with pytest.raises(DomainError, match=r"^inverted interval \[1\.0, 0\.0\]$"):
        integrate_family(lambda x: x, 1.0, 0.0)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
def test_rejects_bounds_that_are_not_finite(a, b):
    with _deadline(5.0), pytest.raises(DomainError, match="^integration bounds must be finite"):
        integrate_family(lambda x: x, a, b)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1e-10])
def test_rejects_tolerance_outside_zero_to_inf(rel_tol):
    with _deadline(5.0), pytest.raises(DomainError, match="^rel_tol must be positive and finite"):
        integrate_family(lambda x: x, 0.0, 1.0, rel_tol=rel_tol)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_rejects_an_estimate_that_is_not_finite(value):
    # the second member alone is not finite; with nan no panel would split
    def f(x):
        return np.stack([x, np.full(x.size, value)])

    with _deadline(5.0), pytest.raises(DomainError, match=r"^integrand estimate on \[0\.0, 1\.0\] is not finite$"):
        integrate_family(f, 0.0, 1.0)

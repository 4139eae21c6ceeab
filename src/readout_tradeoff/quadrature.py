"""Adaptive composite Gauss-Legendre quadrature for families of integrands.

Integrates a whole family of smooth functions over one interval while
keeping a single shared panel subdivision. Each panel carries a 16-node
and a 32-node estimate; their disagreement is the error proxy that decides
which panels get bisected. Refinement stops once every family member is
converged to the requested relative tolerance, so sharply peaked members
(narrow likelihood bumps, fast exponential decays) drive the subdivision
for everyone and no member is left under-resolved.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .dist import DomainError, _real

__all__ = ["integrate_family"]

_LO_X, _LO_W = np.polynomial.legendre.leggauss(16)
_HI_X, _HI_W = np.polynomial.legendre.leggauss(32)
_TINY = 1e-300


class _Panel:
    __slots__ = ("a", "b", "est_lo", "est_hi", "err")

    def __init__(self, f, a: float, b: float):
        self.a = a
        self.b = b
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        x = np.concatenate((c + h * _LO_X, c + h * _HI_X))
        vals = np.asarray(f(x), dtype=np.float64)
        self.est_lo = vals[..., :16] @ (_LO_W * h)
        self.est_hi = vals[..., 16:] @ (_HI_W * h)
        # a nan estimate would split no panel and refine forever
        if not (np.all(np.isfinite(self.est_lo)) and np.all(np.isfinite(self.est_hi))):
            raise DomainError(f"integrand estimate on [{a}, {b}] is not finite")
        self.err = np.abs(self.est_hi - self.est_lo)


def integrate_family(
    f,
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    seed_points=(),
    max_panels: int = 4096,
) -> np.ndarray:
    """Integrate the family f over [a, b] with a shared panel subdivision.

    f maps an array of abscissae with shape (m,) to values with shape
    (..., m); the leading axes index the family members. Returns the
    per-member integrals with shape (...,), each accurate to roughly
    rel_tol in relative terms. seed_points pre-splits the interval, which
    matters for integrands whose natural scale (for instance a fast
    exponential decay near a) would otherwise be invisible to a coarse
    first pass. Bounds that are not finite, a rel_tol outside (0, inf) and an
    integrand whose panel estimate is not finite are a DomainError.
    """
    a = _real(a, "integration bounds must be finite numbers, got {}")
    b = _real(b, "integration bounds must be finite numbers, got {}")
    # the least positive float: a rel_tol of 0 is refused like inf and nan
    rel_tol = _real(rel_tol, "rel_tol must be positive and finite, got {}", math.ulp(0.0))
    if b < a:
        raise DomainError(f"inverted interval [{a}, {b}]")
    if b == a:
        probe = np.asarray(f(np.array([a])), dtype=np.float64)
        return np.zeros(probe.shape[:-1])
    edges = sorted({a, b, *(float(p) for p in seed_points if a < float(p) < b)})
    panels = [_Panel(f, lo, hi) for lo, hi in zip(edges, edges[1:])]
    while True:
        total = np.sum([p.est_hi for p in panels], axis=0)
        err = np.sum([p.err for p in panels], axis=0)
        tol = rel_tol * np.abs(total) + _TINY
        if np.all(err <= tol):
            return total
        badness = np.array([np.max(p.err / tol) for p in panels])
        cut = max(0.5 / len(panels), 0.1 * badness.max())
        to_split = [i for i, v in enumerate(badness) if v >= cut]
        if len(panels) + len(to_split) > max_panels:
            warnings.warn(
                "quadrature panel budget exhausted before reaching the "
                f"requested tolerance (err {float(np.max(err / tol)):.2e}x target)",
                RuntimeWarning,
                stacklevel=2,
            )
            return total
        for i in reversed(to_split):
            p = panels[i]
            mid = 0.5 * (p.a + p.b)
            panels[i : i + 1] = [_Panel(f, p.a, mid), _Panel(f, mid, p.b)]

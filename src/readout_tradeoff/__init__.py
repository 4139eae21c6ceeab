"""Exact outcome statistics for multi-qubit repeated-readout schemes.

The package computes photon-count distributions, signal-to-noise ratios
and misidentification probabilities for fluorescence readout of a single
qubit spread over N ancillas by entangling gates, under ideal conditions
and under gate failure plus mid-readout state decay. Analytic results
are cross-checked by direct Monte Carlo sampling of the same model.

The package exports the union of its modules' ``__all__`` lists.
"""

from . import decay, dist, gates, montecarlo, quadrature, scheme
from .decay import *  # noqa: F403
from .dist import *  # noqa: F403
from .gates import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .scheme import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (decay, dist, gates, montecarlo, quadrature, scheme)
        for name in module.__all__
    }
)

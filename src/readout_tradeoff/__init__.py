"""Exact outcome statistics for multi-qubit repeated-readout schemes.

The package computes photon-count distributions, signal-to-noise ratios
and misidentification probabilities for fluorescence readout of a single
qubit spread over N ancillas by entangling gates, under ideal conditions
and under gate failure plus mid-readout state decay. Analytic results
are cross-checked by direct Monte Carlo sampling of the same model.
"""

from .decay import DecayModelParams, decaying_poisson, decaying_poisson_moments
from .dist import (
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
from .gates import (
    Compilation,
    GateNoise,
    OutcomeDist,
    cascade_dist,
    cascade_wiring,
    compiled_dist,
    flat_dist,
    flat_wiring,
    general_t_pair,
    outcome_moments,
    point_outcome,
    validate_wiring,
)
from .montecarlo import (
    McConfig,
    sample_full_scheme,
    sample_gate_outcomes,
    sample_photon_counts,
)
from .quadrature import integrate_family
from .scheme import (
    CompositeStats,
    MeritPoint,
    SchemeConfig,
    ThresholdAnalysis,
    compose,
    estimate_time_exponent,
    gaussian_scheme_snr,
    mi_optimal,
    peak_snr,
    scheme_snr,
    snr_direct,
    threshold_analytic,
    time_to_snr,
)

__version__ = "0.1.0"

__all__ = [
    "Compilation",
    "CompositeStats",
    "DecayModelParams",
    "DiscreteDist",
    "DomainError",
    "GateNoise",
    "McConfig",
    "MeritPoint",
    "OutcomeDist",
    "RateParams",
    "SchemeConfig",
    "ThresholdAnalysis",
    "cascade_dist",
    "cascade_wiring",
    "compiled_dist",
    "compose",
    "convolve",
    "decaying_poisson",
    "decaying_poisson_moments",
    "estimate_time_exponent",
    "flat_dist",
    "flat_wiring",
    "gaussian_scheme_snr",
    "general_t_pair",
    "integrate_family",
    "mi_optimal",
    "mixture",
    "moments",
    "n_fold_convolve",
    "outcome_moments",
    "peak_snr",
    "point_mass",
    "point_outcome",
    "poisson_pmf",
    "sample_full_scheme",
    "sample_gate_outcomes",
    "sample_photon_counts",
    "scheme_snr",
    "snr_direct",
    "tail_ge",
    "threshold_analytic",
    "time_to_snr",
    "tv_distance",
    "validate_wiring",
]

import importlib

import readout_tradeoff

# The package's public names; a change here is a change of the public API.
PUBLIC = [
    "Compilation",
    "CompositeStats",
    "DecayModelParams",
    "DiscreteDist",
    "DomainError",
    "GateNoise",
    "McConfig",
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
MODULES = ["decay", "dist", "gates", "montecarlo", "quadrature", "scheme"]


def test_all_is_the_public_list():
    assert readout_tradeoff.__all__ == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from readout_tradeoff import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(readout_tradeoff, name) for name in PUBLIC)


def test_each_name_has_one_home_module():
    homes = {}
    for module in MODULES:
        for name in importlib.import_module(f"readout_tradeoff.{module}").__all__:
            assert name not in homes, f"{name} is exported by {homes[name]} and {module}"
            homes[name] = module
    assert sorted(homes) == PUBLIC

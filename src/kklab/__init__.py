"""Exact subgraph counting, expectation thresholds, q-sparse graphs,
machine-checked structure propositions, Monte Carlo threshold estimates,
and extremal search over small hosts.

Everything numeric that feeds a verdict is exact: rationals stay
Fractions and irrational thresholds are carried as root records with
certified decimal enclosures.

``import kklab`` loads no submodule.  Each public name below is imported
from its home module on first access (PEP 562), so a program, or a CLI
command, pays only for the layers it touches.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it exports through the package
_EXPORTS = {
    "catalog": ("graphs_on", "graphs_up_to", "trees_on", "trees_up_to"),
    "counting": (
        "ResourceGuardError",
        "copies_as_edge_masks",
        "count_cliques",
        "count_copies",
        "count_cycles",
        "count_labeled",
        "count_xy_paths",
        "frontier_estimate",
        "iter_labeled",
        "max_xy_paths",
        "packing_number",
    ),
    "exact": (
        "Root",
        "cmp_with_e_power",
        "decimal_enclosure",
        "format_fraction",
        "make_value",
        "parse_exact",
        "parse_rational",
        "value_cmp",
        "value_div",
        "value_float",
        "value_mul",
        "value_pow",
        "value_root",
        "value_to_json",
    ),
    "expectation": (
        "RequiredL",
        "SparseCheck",
        "SparsityReport",
        "ThresholdClass",
        "expectation_threshold",
        "expected_copies",
        "falling_factorial_bound_check",
        "is_q_sparse",
        "peel_threshold_a",
        "q_min",
        "required_L",
        "safe_edge_bound",
        "violation_scan",
    ),
    "graphs": (
        "DensityValue",
        "Graph",
        "GraphParseError",
        "automorphism_count",
        "bowtie_graph",
        "canonical_form",
        "canonical_key",
        "complete_graph",
        "cycle_graph",
        "density",
        "disjoint_union",
        "empty_graph",
        "max_density",
        "max_density_bruteforce",
        "parse_edge_list",
        "parse_graph",
        "parse_graph6",
        "path_graph",
        "path_power_graph",
        "petersen_graph",
        "spider_graph",
        "star_graph",
        "theta_graph",
        "to_edge_list",
        "to_graph6",
    ),
    "montecarlo": (
        "EstimateResult",
        "Probe",
        "TrialPlan",
        "bernoulli",
        "derive_rng",
        "estimate_pc",
        "generate_sparse",
        "sample_gnp",
        "wilson_interval",
    ),
    "search": (
        "LeaderboardEntry",
        "SearchResult",
        "SweepResult",
        "certified_sparse",
        "exhaustive_sweep",
        "extremal_search",
        "score_pair_cmp",
    ),
    "util": ("DEFAULT_EDGE_CAP", "EdgeCapError", "GENERATOR_FAMILIES", "PreconditionError"),
    "verifier": (
        "EllHatResult",
        "FitRecord",
        "LegalCount",
        "PeelResult",
        "PropositionReport",
        "count_legal_sequences",
        "ell_hat",
        "fit_decompose",
        "peel_min_degree",
        "verify_fit_partition",
        "verify_main_inequality",
        "verify_packing",
        "verify_structure",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))

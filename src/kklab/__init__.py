"""Exact subgraph counting, expectation thresholds, q-sparse graphs,
machine-checked structure propositions, Monte Carlo threshold estimates,
and extremal search over small hosts.

Everything numeric that feeds a verdict is exact: rationals stay
Fractions and irrational thresholds are carried as root records with
certified decimal enclosures.
"""

from .catalog import graphs_on, graphs_up_to, trees_on, trees_up_to
from .counting import (
    ResourceGuardError,
    copies_as_edge_masks,
    count_cliques,
    count_copies,
    count_cycles,
    count_labeled,
    count_xy_paths,
    frontier_estimate,
    iter_labeled,
    max_xy_paths,
    packing_number,
)
from .exact import (
    Root,
    cmp_with_e_power,
    decimal_enclosure,
    format_fraction,
    make_value,
    parse_exact,
    parse_rational,
    value_cmp,
    value_div,
    value_float,
    value_mul,
    value_pow,
    value_root,
    value_to_json,
)
from .expectation import (
    DEFAULT_EDGE_CAP,
    EdgeCapError,
    RequiredL,
    SparseCheck,
    SparsityReport,
    ThresholdClass,
    expectation_threshold,
    expected_copies,
    falling_factorial_bound_check,
    is_q_sparse,
    peel_threshold_a,
    q_min,
    required_L,
    safe_edge_bound,
    violation_scan,
)
from .graphs import (
    DensityValue,
    Graph,
    GraphParseError,
    automorphism_count,
    bowtie_graph,
    canonical_form,
    canonical_key,
    complete_graph,
    cycle_graph,
    density,
    disjoint_union,
    empty_graph,
    max_density,
    max_density_bruteforce,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    path_graph,
    path_power_graph,
    petersen_graph,
    spider_graph,
    star_graph,
    theta_graph,
    to_edge_list,
    to_graph6,
)
from .montecarlo import (
    EstimateResult,
    GENERATOR_FAMILIES,
    Probe,
    TrialPlan,
    bernoulli,
    derive_rng,
    estimate_pc,
    generate_sparse,
    sample_gnp,
    wilson_interval,
)
from .search import (
    LeaderboardEntry,
    SearchResult,
    SweepResult,
    certified_sparse,
    exhaustive_sweep,
    extremal_search,
    score_pair_cmp,
)
from .util import PreconditionError
from .verifier import (
    EllHatResult,
    FitRecord,
    LegalCount,
    PeelResult,
    PropositionReport,
    count_legal_sequences,
    ell_hat,
    fit_decompose,
    peel_min_degree,
    verify_fit_partition,
    verify_main_inequality,
    verify_packing,
    verify_structure,
)

__version__ = "0.1.0"

"""Loop-soup simulation and verification toolkit on the discrete circle.

Exact Poisson sampling of Markovian loop ensembles, closed-form evaluation of
their cluster probabilities, and numerical realizations of the scaling-limit
objects (conditioned renewal processes, subordinators, h-transform bridges)
with Monte-Carlo-vs-analytic cross-checks.
"""

from .circle import (
    CircleModel,
    InvalidLoopError,
    Loop,
    LoopType,
    PointedLoop,
    build_model,
    classify_loop,
    derived_killing,
    equivalent_symmetric_model,
    lift_loop,
    line_loop_mass,
    loop_mass,
    pointed_loop_mass,
    rotation_number,
)
from .analytics import (
    DetSpec,
    circulant_det,
    cluster_extent_limit_density,
    covered_extent_cdf,
    covered_extent_cdf_limit,
    covered_extent_limit_density,
    mass_avoiding_edges,
    mass_inside,
    mass_liftable,
    mass_through_vertex1,
    mass_winding_or_covering,
    origin_extent_pmf,
    prob_no_winding_or_covering,
    prob_no_winding_or_covering_limit,
    prob_not_single_partition_limit,
    prob_split_given_no_avoiding,
    prob_split_given_no_avoiding_limit,
    through1_extent_cdf,
    through1_extent_cdf_limit,
    toeplitz_det,
)
from .scaling import (
    ConditionedBridgeLaw,
    RenewalLaw,
    SubordinatorLaw,
    bridge_crossing_joint_density,
    escape_probability,
    halfline_gap_pgf,
    hitting_coefficients,
    invert_renewal,
    sample_conditioned_renewal,
    sample_conditioned_renewals,
)
from .sampler import (
    ClusterStats,
    SoupEnsemble,
    SoupSample,
    conditional_experiment,
    extract_clusters,
    philox_rng,
    sample_soup,
)
from .experiments import (
    ExperimentConfig,
    ScheduleEntry,
    asymmetric_schedule,
    default_cluster_scaling_config,
    default_edge_audit_config,
    default_single_partition_config,
    run_cluster_scaling,
    run_edge_probability_audit,
    run_single_partition_convergence,
    symmetric_schedule,
)

__version__ = "0.1.0"

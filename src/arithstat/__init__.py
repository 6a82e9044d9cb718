"""Finite-scale diagnostics for arithmetic and lacunary statistical convergence.

The package turns limit notions built on the gcd kernel x_<m,n> into
computable objects: exceedance counts and densities over prefixes and lacunary
blocks, three-valued convergence verdicts, exact checks of the closure and
transfer mechanisms, and continuity batteries for mapped sequences.
"""

from .kernel import (
    Constant,
    GcdPeriodic,
    GeneratorSpec,
    Scaled,
    SeqSample,
    SparseSpike,
    Summed,
    check_witness,
    describe_spec,
    deviation,
    deviations,
    divisors,
    generate,
    spike_support,
)
from .lacunary import (
    LacunaryScheme,
    RelationPair,
    SchemeRelation,
    block_intersections,
    is_refinement,
    make_scheme,
    q_ratio_stats,
    refinement_map,
)
from .density import (
    DEFAULT_GRID,
    DEFAULT_POLICY,
    ConvergenceVerdict,
    DensityCurve,
    MeanVerdict,
    Outcome,
    VerdictPolicy,
    ac_sup_deviation,
    ac_theta_at_scale,
    ac_theta_block_means,
    asc_theta_verdict,
    asc_verdict,
    asc_verdicts,
    density_curve,
    ntheta_norm,
    prefix_checkpoints,
)
from .theorems import (
    CheckReport,
    Evidence,
    HypothesisNotMet,
    InclusionExperiment,
    check_delta_transfer,
    check_lac1_bound,
    check_markov_step,
    check_refinement_aggregation,
    check_scalar_closure,
    check_sum_closure,
    evidence_table,
    ramp_sample,
    ratio_gate,
    run_inclusion_experiment,
    run_property_suite,
    standard_family,
)
from .continuity import (
    Affine,
    Clamp,
    Composition,
    ContinuityReport,
    FnDifference,
    FnSum,
    Polynomial,
    RealFunction,
    Tabulated,
    apply_fn,
    closure_checks,
    continuity_battery,
    crossing_sequence,
    describe_fn,
    map_sequence,
    uniform_limit_check,
)

__version__ = "0.1.0"

__all__ = [
    "Constant", "GcdPeriodic", "GeneratorSpec", "Scaled", "SeqSample",
    "SparseSpike", "Summed", "check_witness", "describe_spec", "deviation",
    "deviations", "divisors", "generate", "spike_support",
    "LacunaryScheme", "RelationPair", "SchemeRelation", "block_intersections",
    "is_refinement", "make_scheme", "q_ratio_stats", "refinement_map",
    "DEFAULT_GRID", "DEFAULT_POLICY", "ConvergenceVerdict", "DensityCurve", "MeanVerdict",
    "Outcome", "VerdictPolicy", "ac_sup_deviation", "ac_theta_at_scale", "ac_theta_block_means",
    "asc_theta_verdict", "asc_verdict", "asc_verdicts", "density_curve",
    "ntheta_norm", "prefix_checkpoints",
    "CheckReport", "Evidence", "HypothesisNotMet", "InclusionExperiment",
    "check_delta_transfer", "check_lac1_bound", "check_markov_step",
    "check_refinement_aggregation", "check_scalar_closure", "check_sum_closure",
    "evidence_table", "ramp_sample", "ratio_gate", "run_inclusion_experiment",
    "run_property_suite", "standard_family",
    "Affine", "Clamp", "Composition", "ContinuityReport", "FnDifference",
    "FnSum", "Polynomial", "RealFunction", "Tabulated", "apply_fn",
    "closure_checks", "continuity_battery", "crossing_sequence", "describe_fn",
    "map_sequence", "uniform_limit_check",
    "__version__",
]

"""Resampling-based estimation of system reliability characteristics.

The package estimates P{phi(X) = 1} and related reliability quantities by
redrawing argument values from fixed data samples, and provides the exact
variance calculus of such estimators through reuse-pattern combinatorics
(omega/beta/alpha pairs), hierarchical (wave) resampling over calculation
trees, partially-known-distribution estimators, a damage-accumulation
process model, a two-renewal-process comparison, and coverage analysis of
resampling confidence intervals.
"""

from .budget import BudgetExceededError, enumeration_budget
from .coverage import (CoverageReport, IntervalResult, OrderFunctional,
                       Protocol, WVector, coverage_R, coverage_conditional,
                       protocol_from_w, protocol_table, q_given_ordering,
                       resampling_interval, rho, w_from_protocol, w_vector)
from .damage import (CountEstimates, DamageData, DamageMCReport, DamageTruth,
                     EstimatorExpectation, PluginEstimate, PluginMCReport,
                     TruthSummary, damage_variance_mc, estimator_expectation,
                     hybrid_pmf, plugin_estimate, plugin_expectation,
                     plugin_variance_mc, poisson_truth,
                     resample_damage_counts)
from .distributions import (KnownDistribution, empirical, exponential,
                            normal, parse_distribution, triangular, uniform)
from .pairs import (AlphaPair, BetaPair, MixedMoment, OmegaPair, PairRow,
                    VarianceReport, alpha_probability, beta_probability,
                    conditional_mixed_moment, enumerate_pairs,
                    omega_probability, pair_probability, resampling_variance)
from .partial import (estimate_inner_mc, estimate_known_g,
                      three_branch_conditional, three_branch_system,
                      wave_estimate_vector_samples)
from .renewal import (GridConvolutionKit, NormalConvolutionKit, PluginReport,
                      RenewalLayout, RenewalPair, analytic_theta_normal,
                      estimate_exceedance, exceedance_variance, mu11_alpha,
                      plugin_baseline)
from .resampling import (EstimateResult, ExhaustiveMoments,
                         ResampleIndexVector, draw_resample, estimate_theta,
                         exhaustive_moments, exhaustive_theta)
from .samples import (Block, BlockLayout, InfeasibleLayoutError, LayoutError,
                      SampleSet)
from .systems import (SystemSpec, SystemSyntaxError, SystemValidationError,
                      parse_system, render)
from .wave import (WavePropagation, default_node_sizes, hierarchical_variance,
                   node_sizes, propagate_pair_probabilities, wave_estimate)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # samples and systems
    "SampleSet", "Block", "BlockLayout", "LayoutError",
    "InfeasibleLayoutError", "SystemSpec", "SystemSyntaxError",
    "SystemValidationError", "parse_system", "render",
    # distributions
    "KnownDistribution", "empirical", "exponential", "normal",
    "parse_distribution", "triangular", "uniform",
    # resampling and pair calculus
    "EstimateResult", "ResampleIndexVector", "ExhaustiveMoments",
    "draw_resample", "estimate_theta", "exhaustive_theta",
    "exhaustive_moments", "OmegaPair", "BetaPair", "AlphaPair",
    "MixedMoment", "PairRow", "VarianceReport", "omega_probability",
    "beta_probability", "alpha_probability", "pair_probability",
    "enumerate_pairs", "conditional_mixed_moment", "resampling_variance",
    # wave
    "wave_estimate", "node_sizes", "default_node_sizes",
    "propagate_pair_probabilities", "hierarchical_variance",
    "WavePropagation",
    # partially known distributions
    "estimate_known_g", "estimate_inner_mc", "wave_estimate_vector_samples",
    "three_branch_system", "three_branch_conditional",
    # damage model
    "DamageData", "DamageTruth", "CountEstimates", "TruthSummary",
    "EstimatorExpectation", "DamageMCReport", "PluginEstimate",
    "PluginMCReport", "resample_damage_counts", "poisson_truth",
    "estimator_expectation", "damage_variance_mc", "plugin_estimate",
    "plugin_expectation", "plugin_variance_mc", "hybrid_pmf",
    # renewal comparison
    "RenewalPair", "RenewalLayout", "NormalConvolutionKit",
    "GridConvolutionKit", "PluginReport", "estimate_exceedance",
    "mu11_alpha", "exceedance_variance", "analytic_theta_normal",
    "plugin_baseline",
    # coverage
    "OrderFunctional", "WVector", "Protocol", "CoverageReport",
    "IntervalResult", "w_vector", "protocol_from_w", "w_from_protocol",
    "q_given_ordering", "rho", "coverage_conditional", "coverage_R",
    "protocol_table", "resampling_interval",
    # budget
    "BudgetExceededError", "enumeration_budget",
]

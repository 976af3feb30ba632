"""Mean estimation with a certified (epsilon, delta) guarantee when only a
bound on the relative variance is known, plus the tools that certify and
apply it: sample-size calculators, seeded sources, a Monte Carlo coverage
harness, and desk-scale approximate counting."""

from .counting import (
    NestedChain,
    Poset,
    PosetSizeError,
    ProductEstimateSource,
    eps_prime,
    gibbs_combine,
    linext_approx_count,
    linext_chain,
    linext_count_exact,
    linext_uniform_sample,
    product_estimate,
    product_variance_bound,
)
from .estimator import (
    ApproxSpec,
    EstimateReport,
    Mode,
    NonpositiveEstimateError,
    SourceContractError,
    StagePlan,
    build_plan,
    estimate_mean,
    lower_bound_samples,
    median_of_means,
    mom_failure_bound,
    stage1_estimate,
    stage1_params,
    stage2_estimate,
    stage2_params,
    theorem1_total,
)
from .harness import (
    CoverageConfig,
    CoverageReport,
    EstimatorKind,
    compare_estimators,
    run_coverage,
    write_csv,
)
from .psi import TruncationScale, psi, psi_lower, psi_upper, scaled_psi
from .sources import (
    Constant,
    InsufficientSamplesError,
    LogNormal,
    Normal,
    ParetoShape,
    Recorded,
    SampleSource,
    Scaled,
    ScaledBernoulli,
    SourceFacts,
    load_recorded,
    parse_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # psi
    "TruncationScale",
    "psi",
    "psi_lower",
    "psi_upper",
    "scaled_psi",
    # estimator
    "ApproxSpec",
    "EstimateReport",
    "Mode",
    "NonpositiveEstimateError",
    "SourceContractError",
    "StagePlan",
    "build_plan",
    "estimate_mean",
    "lower_bound_samples",
    "median_of_means",
    "mom_failure_bound",
    "stage1_estimate",
    "stage1_params",
    "stage2_estimate",
    "stage2_params",
    "theorem1_total",
    # sources
    "Constant",
    "InsufficientSamplesError",
    "LogNormal",
    "Normal",
    "ParetoShape",
    "Recorded",
    "SampleSource",
    "Scaled",
    "ScaledBernoulli",
    "SourceFacts",
    "load_recorded",
    "parse_distribution",
    # harness
    "CoverageConfig",
    "CoverageReport",
    "EstimatorKind",
    "compare_estimators",
    "run_coverage",
    "write_csv",
    # counting
    "NestedChain",
    "Poset",
    "PosetSizeError",
    "ProductEstimateSource",
    "eps_prime",
    "gibbs_combine",
    "linext_approx_count",
    "linext_chain",
    "linext_count_exact",
    "linext_uniform_sample",
    "product_estimate",
    "product_variance_bound",
]

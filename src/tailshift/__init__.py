"""Importance sampling for value-at-risk and conditional value-at-risk.

Rare-tail risk measures of a black-box loss over heavy-tailed, correlated
inputs are estimated by stretching ordinary samples outward along
data-driven directions and reweighting them with the exact change of
measure.  One batch of a few thousand samples then covers tail levels that
plain Monte Carlo would need millions of draws to see.
"""

from .distributions import (
    CorrelationMatrix,
    DistributionSpec,
    MarginalSpec,
    copula_log_density,
    joint_log_density,
    sample_inputs,
    std_normal_quantile,
)
from .errors import (
    BadLossError,
    ConfigError,
    DomainError,
    EstimationError,
    FeasibilityError,
    TailMassError,
    WeightsDimensionError,
    WeightsFileError,
    WeightsFormatError,
)
from .estimators import (
    EstimateReport,
    ISConfig,
    WeightedLossSample,
    cvar,
    cvar_standard_error,
    estimate,
    naive_var_cvar,
    tail_probability,
    value_at_risk,
)
from .harness import (
    REPLICATION_COLUMNS,
    SUMMARY_COLUMNS,
    AffineH,
    CrossValResult,
    ExperimentConfig,
    FixedH,
    GridH,
    ReplicationTable,
    cross_validate_h,
    derive_seed,
    pert_h_rule,
    relative_rmse,
    run_replications,
    summarize,
    variance_ratio_study,
)
from .losses import (
    LossModel,
    ReluNetParams,
    linear_loss,
    load_relu_params,
    pert_completion_time,
    relu_net_loss,
    save_relu_params,
    synthetic_relu_params,
)
from .transform import (
    TransformParams,
    extrapolate,
    extrapolation_factor,
    log_jacobian,
    log_likelihood_ratio,
    stretch_exponents,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CorrelationMatrix", "DistributionSpec", "MarginalSpec",
    "copula_log_density", "joint_log_density", "sample_inputs", "std_normal_quantile",
    "BadLossError", "ConfigError", "DomainError", "EstimationError", "FeasibilityError",
    "TailMassError", "WeightsDimensionError", "WeightsFileError", "WeightsFormatError",
    "EstimateReport", "ISConfig", "WeightedLossSample",
    "cvar", "cvar_standard_error", "estimate", "naive_var_cvar",
    "tail_probability", "value_at_risk",
    "AffineH", "CrossValResult", "ExperimentConfig", "FixedH", "GridH",
    "REPLICATION_COLUMNS", "SUMMARY_COLUMNS",
    "ReplicationTable", "cross_validate_h", "derive_seed", "pert_h_rule",
    "relative_rmse", "run_replications", "summarize", "variance_ratio_study",
    "LossModel", "ReluNetParams", "linear_loss", "load_relu_params",
    "pert_completion_time", "relu_net_loss", "save_relu_params", "synthetic_relu_params",
    "TransformParams", "extrapolate", "extrapolation_factor",
    "log_jacobian", "log_likelihood_ratio", "stretch_exponents",
]

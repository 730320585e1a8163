"""Risk-averse online learning under drifting noise distributions.

Library and CLI simulator for restarted zeroth-order CVaR descent: sphere
smoothing, batch/epoch schedules, Wasserstein variation budgets, a
ground-truth regret oracle, and a seeded multi-trial experiment harness.
"""

from .core import (
    Box,
    ConfigurationError,
    CostModel,
    NoiseSequence,
)
from .learner import LearnerConfig, Trace, run_trials
from .risk import (
    EmpiricalCdf,
    build_ecdf,
    cvar_discrete,
    cvar_error_bound,
    dkw_epsilon,
    ru_functional,
    sup_cdf_distance,
)
from .schedule import (
    BatchIndex,
    ConstantRate,
    ConstantSampling,
    InverseEpochRate,
    PolynomialSampling,
    batch_epoch,
    check_sampling_requirement,
    sampling_count_poly,
    theorem1_params,
    theorem2_params,
)
from .smoothing import directions, gradient_estimate, smoothed_cvar

__version__ = "0.1.0"

__all__ = [
    "BatchIndex",
    "Box",
    "ConfigurationError",
    "ConstantRate",
    "ConstantSampling",
    "CostModel",
    "EmpiricalCdf",
    "InverseEpochRate",
    "LearnerConfig",
    "NoiseSequence",
    "PolynomialSampling",
    "Trace",
    "batch_epoch",
    "build_ecdf",
    "check_sampling_requirement",
    "cvar_discrete",
    "cvar_error_bound",
    "directions",
    "dkw_epsilon",
    "gradient_estimate",
    "ru_functional",
    "run_trials",
    "sampling_count_poly",
    "smoothed_cvar",
    "sup_cdf_distance",
    "theorem1_params",
    "theorem2_params",
]

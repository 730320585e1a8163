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
    batch_epoch,
    check_sampling_requirement,
    inverse_epoch_rates,
    polynomial_counts,
    theorem1_params,
    theorem2_params,
)
from .smoothing import directions, gradient_estimate, smoothed_cvar

__version__ = "0.1.0"

__all__ = [
    "BatchIndex",
    "Box",
    "ConfigurationError",
    "CostModel",
    "EmpiricalCdf",
    "LearnerConfig",
    "NoiseSequence",
    "Trace",
    "batch_epoch",
    "build_ecdf",
    "check_sampling_requirement",
    "cvar_discrete",
    "cvar_error_bound",
    "directions",
    "dkw_epsilon",
    "gradient_estimate",
    "inverse_epoch_rates",
    "polynomial_counts",
    "ru_functional",
    "run_trials",
    "smoothed_cvar",
    "sup_cdf_distance",
    "theorem1_params",
    "theorem2_params",
]

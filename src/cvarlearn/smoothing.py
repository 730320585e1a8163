"""Smoothing machinery for derivative-free CVaR gradients.

A decision is perturbed by ``delta`` times a direction drawn uniformly from
the one-dimensional unit sphere {-1, +1}; the CVaR estimated at the
perturbed point, scaled by ``1 / delta`` along the direction, is an unbiased
one-point estimate of a smoothed-objective gradient. The exact smoothed-CVaR
evaluator is a reference for the tests and for ``cvarlearn verify``; the
learner never evaluates the smoothed objective.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigurationError, CostModel, NoiseSequence
from .oracle import true_cvar

__all__ = [
    "directions",
    "gradient_estimate",
    "smoothed_cvar",
]


def directions(uniforms) -> np.ndarray:
    """One direction per uniform draw in [0, 1): +1 below 1/2, else -1."""
    return np.where(np.asarray(uniforms) < 0.5, 1.0, -1.0)


def gradient_estimate(cvar_value, u, delta: float):
    """One-point gradient estimate ``(1 / delta) * cvar_value * u``,
    elementwise over CVaR values and directions of the same shape."""
    delta = float(delta)
    if not 0 < delta < math.inf:  # nan fails too
        raise ConfigurationError(f"smoothing radius {delta} must be positive and finite")
    return (1.0 / delta) * np.asarray(cvar_value, dtype=float) * np.asarray(u, dtype=float)


def smoothed_cvar(cost: CostModel, noise: NoiseSequence, t: int, x: float,
                  delta: float, alpha: float, n_noise: int = 10_000) -> float:
    """Smoothed CVaR ``E_u[C_t(x + delta * u)]`` over the two directions
    ``u = +1, -1``, computed exactly.

    Each direction's CVaR comes from the deterministic quantile-grid oracle
    with ``n_noise`` points. The perturbed points are not checked against
    any admissible set: the cost is evaluated wherever ``x +- delta`` lands.
    """
    delta = float(delta)
    if not 0 <= delta < math.inf:
        raise ConfigurationError(f"smoothing radius {delta} must be finite and >= 0")
    values = [true_cvar(cost, noise, t, x + delta * s, alpha, n_noise)
              for s in (1.0, -1.0)]
    return 0.5 * (values[0] + values[1])

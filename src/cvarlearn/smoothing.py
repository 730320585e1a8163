"""Sphere-smoothing machinery for derivative-free CVaR gradients.

A decision is perturbed by ``delta`` times a uniform unit-sphere direction;
the CVaR estimated at the perturbed point, scaled by ``d / delta`` along the
direction, is an unbiased one-point estimate of a smoothed-objective
gradient. The exact smoothed-CVaR evaluator of one-dimensional decisions is a
reference for the tests and for ``cvarlearn verify``; the learner never
evaluates the smoothed objective.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigurationError, CostModel, NoiseSequence
from .oracle import true_cvar

__all__ = [
    "sample_unit_sphere",
    "gradient_estimate",
    "smoothed_cvar",
]


def sample_unit_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere in ``d`` dimensions.

    For ``d = 1`` the sphere is the two-point set {-1, +1}; for ``d >= 2`` a
    normalized isotropic Gaussian draw is used.
    """
    d = int(d)
    if d < 1:
        raise ConfigurationError("dimension must be >= 1")
    if d == 1:
        return np.array([1.0 if rng.random() < 0.5 else -1.0])
    while True:
        g = rng.standard_normal(d)
        norm = float(np.linalg.norm(g))
        if norm > 1e-12:
            return g / norm


def gradient_estimate(cvar_value, u, delta: float) -> np.ndarray:
    """One-point gradient estimate ``(d / delta) * cvar_value * u``, where
    ``d`` is the dimension of the direction ``u``.

    Also one estimate per row: CVaR values ``(trials,)`` with directions
    ``(trials, d)``.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    delta = float(delta)
    if delta <= 0:
        raise ConfigurationError("smoothing radius must be positive")
    return (u.shape[-1] / delta) * np.asarray(cvar_value, dtype=float)[..., None] * u


def smoothed_cvar(cost: CostModel, noise: NoiseSequence, t: int, x: float,
                  delta: float, alpha: float, n_noise: int = 10_000) -> float:
    """Smoothed CVaR ``E_u[C_t(x + delta * u)]`` over the two directions
    ``u = +1, -1``, computed exactly.

    Each direction's CVaR comes from the deterministic quantile-grid oracle
    with ``n_noise`` points. The perturbed points are not checked against
    any admissible set: the cost is evaluated wherever ``x +- delta`` lands.
    """
    delta = float(delta)
    if delta < 0:
        raise ConfigurationError("smoothing radius must be >= 0")
    values = [true_cvar(cost, noise, t, x + delta * s, alpha, n_noise)
              for s in (1.0, -1.0)]
    return 0.5 * (values[0] + values[1])

"""Sphere-smoothing machinery for derivative-free CVaR gradients.

A decision is perturbed by ``delta`` times a uniform unit-sphere direction;
the CVaR estimated at the perturbed point, scaled by ``d / delta`` along the
direction, is an unbiased one-point estimate of a smoothed-objective
gradient. The Monte-Carlo smoothed-CVaR evaluator is a reference for the tests
and for ``cvarlearn verify``; the learner never evaluates the smoothed objective.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigurationError, CostModel, NoiseSequence, as_vector
from .oracle import true_cvar

__all__ = [
    "sample_unit_sphere",
    "gradient_estimate",
    "smoothed_cvar_mc",
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
    u = np.asarray(u, dtype=float)
    if u.ndim < 2:
        u = as_vector(u)
    delta = float(delta)
    if delta <= 0:
        raise ConfigurationError("smoothing radius must be positive")
    return (u.shape[-1] / delta) * np.asarray(cvar_value, dtype=float)[..., None] * u


def smoothed_cvar_mc(cost: CostModel, noise: NoiseSequence, t: int, x,
                     delta: float, alpha: float, n_dirs: int = 1000,
                     n_noise: int = 10_000,
                     rng: np.random.Generator | None = None) -> float:
    """Smoothed CVaR ``E_u[C_t(x + delta * u)]`` over unit-sphere directions.

    Per-direction CVaR values come from the deterministic quantile-grid
    oracle with ``n_noise`` points. In one dimension the sphere has two
    points, so the expectation is computed exactly instead of sampled. The
    perturbed points are not checked against any admissible set: the cost
    is evaluated wherever ``x + delta * u`` lands.
    """
    x = as_vector(x)
    delta = float(delta)
    if delta < 0:
        raise ConfigurationError("smoothing radius must be >= 0")
    if delta == 0.0:
        return true_cvar(cost, noise, t, x, alpha, n_noise)
    d = x.size
    if d == 1:
        values = [true_cvar(cost, noise, t, x + delta * s, alpha, n_noise)
                  for s in (np.array([1.0]), np.array([-1.0]))]
        return 0.5 * (values[0] + values[1])
    if rng is None:
        raise ConfigurationError("a generator is required for d >= 2")
    n_dirs = int(n_dirs)
    if n_dirs < 1:
        raise ConfigurationError("need at least one direction")
    total = 0.0
    for _ in range(n_dirs):
        u = sample_unit_sphere(d, rng)
        total += true_cvar(cost, noise, t, x + delta * u, alpha, n_noise)
    return total / n_dirs

"""Concrete non-stationary noise sequences and Wasserstein-1 accounting.

Provides the time-varying uniform family used by the parking-lot pricing
study, a Brownian-diffusion Gaussian family, static baselines, closed-form
and quadrature Wasserstein-1 distances for 1-D distributions, and the
distribution-variation budget (the sum of consecutive W1 distances over the
horizon).
"""

from __future__ import annotations

import logging
import math
from typing import Callable

import numpy as np

from .core import ConfigurationError, NoiseSequence

__all__ = [
    "UniformSeq",
    "BrownianSeq",
    "constant_uniform",
    "parking_range",
    "parking_noise",
    "w1_uniform",
    "w1_gaussian",
    "w1_numeric",
    "variation_profile",
    "variation_budget",
]

logger = logging.getLogger(__name__)

#: Degenerate-range warnings this process has logged: a table of the same
#: sequence built again, or at another horizon, repeats its message, which is
#: logged once.
_LOGGED: set[str] = set()


class UniformSeq(NoiseSequence):
    """Per-step uniform distributions ``U[left(t), right(t)]``.

    Steps where ``right(t) <= left(t)`` collapse to a point mass at
    ``left(t)`` (logged once per process and message); this keeps sequences
    whose endpoint formulas momentarily cross well-defined without altering
    the base level. The endpoints of every step are evaluated once, at the
    first lookup.
    """

    def __init__(self, horizon: int, left: Callable[[int], float],
                 right: Callable[[int], float]):
        super().__init__(horizon)
        self._left = left
        self._right = right
        self._table: np.ndarray | None = None

    def _endpoints(self, t: int) -> tuple[float, float]:
        lo, hi = float(self._left(t)), float(self._right(t))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigurationError(f"non-finite uniform endpoints at t={t}")
        return lo, hi

    def bounds_table(self) -> np.ndarray:
        """Effective endpoints of every step after degenerate collapse, as a
        read-only ``(horizon, 2)`` array whose row ``t - 1`` is step ``t``."""
        if self._table is None:
            table = np.array([self._endpoints(t)
                              for t in range(1, self.horizon + 1)])
            lo, hi = table.T
            degenerate = np.flatnonzero(hi <= lo)
            if degenerate.size:
                t = degenerate[0]
                message = (
                    "degenerate uniform range at t=%d (left=%.6g >= right=%.6g); "
                    "emitting a point mass at the left endpoint"
                    % (t + 1, lo[t], hi[t]))
                if message not in _LOGGED:
                    _LOGGED.add(message)
                    logger.warning(message)
                hi[degenerate] = lo[degenerate]
            table.flags.writeable = False
            self._table = table
        return self._table

    def bounds(self, t: int) -> tuple[float, float]:
        """Effective endpoints at step ``t`` after degenerate collapse."""
        lo, hi = self.bounds_table()[self._check_t(t) - 1].tolist()
        return lo, hi

    def cdf(self, t: int, y):
        lo, hi = self.bounds(t)
        y = np.asarray(y, dtype=float)
        if hi > lo:
            out = np.clip((y - lo) / (hi - lo), 0.0, 1.0)
        else:
            out = (y >= lo).astype(float)
        return float(out) if out.ndim == 0 else out

    def quantile(self, t: int, q):
        lo, hi = self.bounds(t)
        q = np.asarray(q, dtype=float)
        out = lo + q * (hi - lo)
        return float(out) if out.ndim == 0 else out

    def support(self, t: int) -> tuple[float, float]:
        return self.bounds(t)

    def step_w1(self, t: int) -> float:
        """Closed-form W1 between the step ``t-1`` and step ``t`` distributions."""
        a1, b1 = self.bounds(t - 1)
        a2, b2 = self.bounds(t)
        return w1_uniform(a1, b1, a2, b2)


class BrownianSeq(NoiseSequence):
    """Centered Gaussian family with variance ``2 * diffusivity * t``.

    Models measurements of a diffusing particle cloud: the distribution
    flattens as ``t`` grows, and the variation budget scales like
    ``sqrt(T)``. SciPy's normal CDF and quantile are imported on first use,
    so runs of the other scenarios never load SciPy.
    """

    def __init__(self, horizon: int, diffusivity: float):
        super().__init__(horizon)
        diffusivity = float(diffusivity)
        if diffusivity <= 0:
            raise ConfigurationError("diffusivity must be positive")
        self.diffusivity = diffusivity

    def sigma(self, t: int) -> float:
        t = self._check_t(t)
        return math.sqrt(2.0 * self.diffusivity * t)

    def cdf(self, t: int, y):
        from scipy.special import ndtr

        s = self.sigma(t)
        out = ndtr(np.asarray(y, dtype=float) / s)
        return float(out) if out.ndim == 0 else out

    def quantile(self, t: int, q):
        from scipy.special import ndtri

        s = self.sigma(t)
        q = np.clip(np.asarray(q, dtype=float), 1e-300, np.nextafter(1.0, 0.0))
        out = s * ndtri(q)
        return float(out) if out.ndim == 0 else out

    def support(self, t: int) -> tuple[float, float]:
        # +/- 10 sigma truncation for quadrature and bound estimation.
        s = self.sigma(t)
        return (-10.0 * s, 10.0 * s)

    def step_w1(self, t: int) -> float:
        t = self._check_t(t)
        return w1_gaussian(0.0, self.sigma(t - 1), 0.0, self.sigma(t))


def constant_uniform(horizon: int, lo: float, hi: float) -> UniformSeq:
    """Static baseline: the same ``U[lo, hi]`` at every step."""
    if hi < lo:
        raise ConfigurationError("constant uniform needs lo <= hi")
    return UniformSeq(horizon, lambda t: lo, lambda t: hi)


def parking_range(t: int, horizon: int) -> tuple[float, float]:
    """Raw endpoint formulas of the parking-lot uncertainty at step ``t``.

    Returns the branch values verbatim; for ``t <= 2`` the first branch is
    empty (right endpoint below left), which :class:`UniformSeq` repairs to a
    point mass.
    """
    if not 1 <= t <= horizon:
        raise ConfigurationError(f"step {t} outside horizon [1, {horizon}]")
    if t < horizon / 2:
        return 0.85, 1.15 - 0.5 * t ** -0.5
    return 0.85 + 0.5 * t ** -0.1, 1.1


def parking_noise(horizon: int) -> UniformSeq:
    """Time-varying uniform uncertainty of the parking-lot pricing study."""
    return UniformSeq(
        horizon,
        left=lambda t: parking_range(t, horizon)[0],
        right=lambda t: parking_range(t, horizon)[1],
    )


def w1_uniform(a1: float, b1: float, a2: float, b2: float) -> float:
    """Exact W1 distance between ``U[a1, b1]`` and ``U[a2, b2]``.

    Point masses are allowed (equal endpoints). Computed from the quantile
    representation: the integrand ``|Q1(q) - Q2(q)|`` is piecewise linear, so
    the integral splits in closed form at the sign-change root when one lies
    inside (0, 1).
    """
    if b1 < a1 or b2 < a2:
        raise ConfigurationError("uniform endpoints must satisfy a <= b")
    c0 = a1 - a2
    c1 = (b1 - a1) - (b2 - a2)
    if c1 == 0.0:
        return abs(c0)
    root = -c0 / c1
    if 0.0 < root < 1.0:
        return 0.5 * (abs(c0) * root + abs(c0 + c1) * (1.0 - root))
    return abs(c0 + 0.5 * c1)


def w1_gaussian(mu1: float, sigma1: float, mu2: float, sigma2: float) -> float:
    """Exact W1 distance between two 1-D Gaussians.

    Equals ``E|N(mu1 - mu2, (sigma1 - sigma2)^2)|`` (a folded-normal mean);
    reduces to ``|mu1 - mu2|`` when the scales agree.
    """
    if sigma1 < 0 or sigma2 < 0:
        raise ConfigurationError("Gaussian scales must be >= 0")
    dm = mu1 - mu2
    ds = abs(sigma1 - sigma2)
    if ds == 0.0:
        return abs(dm)
    z = dm / ds
    return ds * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z) + dm * math.erf(
        z / math.sqrt(2.0)
    )


def w1_numeric(cdf1, cdf2, support: tuple[float, float], grid: int = 100_000) -> float:
    """Quadrature W1 via the 1-D identity ``integral of |F1 - F2|``.

    ``cdf1``/``cdf2`` are vectorized CDF accessors; ``support`` must be a
    finite interval containing (effectively) all mass of both distributions.
    The trapezoid rule is SciPy's ``trapezoid`` formula, operation for
    operation.
    """
    grid = int(grid)
    if grid < 1000:
        raise ConfigurationError("quadrature grid must have >= 1000 points")
    lo, hi = float(support[0]), float(support[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigurationError(
            "numeric W1 needs a finite truncated support interval")
    y = np.linspace(lo, hi, grid)
    gap = np.abs(np.asarray(cdf1(y), dtype=float) - np.asarray(cdf2(y), dtype=float))
    return float(np.sum(np.diff(y) * (gap[1:] + gap[:-1]) / 2.0))


def _step_distance(noise: NoiseSequence, t: int, grid: int) -> float:
    step = getattr(noise, "step_w1", None)
    if step is not None:
        return step(t)
    lo = min(noise.support(t - 1)[0], noise.support(t)[0])
    hi = max(noise.support(t - 1)[1], noise.support(t)[1])
    return w1_numeric(lambda y: noise.cdf(t - 1, y), lambda y: noise.cdf(t, y),
                      (lo, hi), grid)


def variation_profile(noise: NoiseSequence, horizon: int,
                      grid: int = 10_000) -> np.ndarray:
    """Per-step distances ``W1(D_{t-1}, D_t)`` for ``t = 2..horizon``.

    Uses the sequence's closed form when it provides one, quadrature
    otherwise.
    """
    horizon = int(horizon)
    if horizon < 2:
        raise ConfigurationError("variation budget needs horizon >= 2")
    if horizon > noise.horizon:
        raise ConfigurationError("requested horizon exceeds the noise sequence's")
    return np.array([_step_distance(noise, t, grid) for t in range(2, horizon + 1)])


def variation_budget(noise: NoiseSequence, horizon: int, grid: int = 10_000) -> float:
    """Total distribution variation over ``1..horizon`` (Assumption: budget
    known to the decision maker; the learner never estimates it online)."""
    return float(variation_profile(noise, horizon, grid).sum())

"""Batch/epoch indexing, sampling-count strategies, and parameter selectors.

The horizon is cut into batches of ``batch_size`` steps; within a batch the
1-based epoch index drives both the per-step sample count and the learning
rate, and both reset at every batch boundary (the restarting procedure). The
``theorem1_params`` / ``theorem2_params`` selectors emit the order-optimal
smoothing radius, learning rate, and batch size for the convex and strongly
convex regimes given the horizon and the distribution-variation budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

from .core import ConfigurationError

__all__ = [
    "BatchIndex",
    "batch_epoch",
    "sampling_count_poly",
    "ConstantSampling",
    "PolynomialSampling",
    "SamplingStrategy",
    "RequirementCheck",
    "check_sampling_requirement",
    "ConstantRate",
    "InverseEpochRate",
    "LearningRateSchedule",
    "Theorem1Params",
    "Theorem2Params",
    "theorem1_params",
    "theorem2_params",
]


class BatchIndex(NamedTuple):
    batch: int  # j, 1-based
    epoch: int  # tau, 1-based position within the batch


def _check_batch_size(batch_size: int) -> int:
    batch_size = int(batch_size)
    if batch_size < 2:
        raise ConfigurationError(f"batch size must be >= 2, got {batch_size}")
    return batch_size


def batch_epoch(t: int, batch_size: int) -> BatchIndex:
    """Batch number ``ceil(t / batch_size)`` and within-batch epoch of step ``t``."""
    t = int(t)
    if t < 1:
        raise ConfigurationError("step index must be >= 1")
    batch_size = _check_batch_size(batch_size)
    j = -(-t // batch_size)
    return BatchIndex(batch=j, epoch=t - (j - 1) * batch_size)


def sampling_count_poly(tau: int, batch_size: int, a: float, b: float) -> int:
    """Decaying per-epoch sample count ``ceil(b * (batch_size - tau + 1)^a)``."""
    batch_size = _check_batch_size(batch_size)
    tau = int(tau)
    if not 1 <= tau <= batch_size:
        raise ConfigurationError(f"epoch {tau} outside [1, {batch_size}]")
    if a <= 0 or b <= 0:
        raise ConfigurationError("polynomial sampling needs a > 0 and b > 0")
    return math.ceil(b * (batch_size - tau + 1) ** a)


@dataclass(frozen=True)
class ConstantSampling:
    """The same number of cost queries at every step."""

    count_per_step: int

    def __post_init__(self):
        if int(self.count_per_step) < 1:
            raise ConfigurationError(
                f"sample count must be >= 1, got {self.count_per_step}")
        object.__setattr__(self, "count_per_step", int(self.count_per_step))

    def count(self, tau: int, batch_size: int) -> int:
        return self.count_per_step


@dataclass(frozen=True)
class PolynomialSampling:
    """Polynomially decaying sample counts within each batch."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ConfigurationError("polynomial sampling needs a > 0 and b > 0")

    def count(self, tau: int, batch_size: int) -> int:
        return sampling_count_poly(tau, batch_size, self.a, self.b)


SamplingStrategy = Union[ConstantSampling, PolynomialSampling]


class RequirementCheck(NamedTuple):
    satisfied: bool
    achieved: float  # sum over the batch of 1/sqrt(count)
    allowed: float   # c * batch_size^(1 - a/2)


def check_sampling_requirement(strategy: SamplingStrategy, batch_size: int,
                               a: float, c: float) -> RequirementCheck:
    """Check ``sum_tau 1/sqrt(phi(tau)) <= c * batch_size^(1 - a/2)``.

    Returns both sides so callers can report the margin.
    """
    batch_size = _check_batch_size(batch_size)
    if a <= 0 or c <= 0:
        raise ConfigurationError("requirement check needs a > 0 and c > 0")
    achieved = math.fsum(
        1.0 / math.sqrt(strategy.count(tau, batch_size))
        for tau in range(1, batch_size + 1)
    )
    allowed = c * batch_size ** (1.0 - 0.5 * a)
    return RequirementCheck(achieved <= allowed, achieved, allowed)


@dataclass(frozen=True)
class ConstantRate:
    """Fixed learning rate, unaffected by restarts."""

    eta: float

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ConfigurationError(
                f"learning rate eta={self.eta} must be positive and finite")

    def rate(self, tau: int) -> float:
        return self.eta


@dataclass(frozen=True)
class InverseEpochRate:
    """Strongly convex schedule ``1 / (modulus * tau)``, reset each batch."""

    modulus: float

    def __post_init__(self):
        if not (self.modulus > 0 and math.isfinite(self.modulus)):
            raise ConfigurationError(
                f"strong-convexity modulus {self.modulus} must be positive and finite")

    def rate(self, tau: int) -> float:
        tau = int(tau)
        if tau < 1:
            raise ConfigurationError("epoch must be >= 1")
        return 1.0 / (self.modulus * tau)


LearningRateSchedule = Union[ConstantRate, InverseEpochRate]


class Theorem1Params(NamedTuple):
    delta: float
    eta: float
    batch_size: int


class Theorem2Params(NamedTuple):
    delta: float
    batch_size: int
    rate: InverseEpochRate


def _check_budget(horizon: int, budget: float, a: float) -> tuple[int, float]:
    horizon = int(horizon)
    if horizon < 2:
        raise ConfigurationError("horizon must be >= 2")
    budget = float(budget)
    if not (budget > 0 and math.isfinite(budget)):
        raise ConfigurationError("variation budget must be positive and finite")
    if budget >= horizon:
        raise ConfigurationError(
            f"variation budget {budget} must be below the horizon {horizon}")
    if not (a > 0 and math.isfinite(a)):
        raise ConfigurationError("sampling parameter a must be positive and finite")
    return horizon, budget


def _round_batch(raw: float) -> int:
    # Half-up rounding, clamped to >= 2: a batch of length 1 makes
    # restarting degenerate.
    return max(2, int(math.floor(raw + 0.5)))


def theorem1_params(horizon: int, budget: float, a: float) -> Theorem1Params:
    """Order-optimal parameters for the convex regime.

    For ``a <= 1`` the exponents depend on the sampling parameter; beyond
    ``a = 1`` extra samples stop helping and the selection freezes at the
    1/5, 3/5, 4/5 exponents. Constants are unit (the analysis optimizes
    orders only); scale externally if needed.
    """
    horizon, budget = _check_budget(horizon, budget, a)
    ratio = budget / horizon
    if a <= 1.0:
        delta = ratio ** (a / (4.0 + a))
        eta = ratio ** (3.0 * a / (4.0 + a))
        raw = (1.0 / ratio) ** (4.0 / (4.0 + a))
    else:
        delta = ratio ** 0.2
        eta = ratio ** 0.6
        raw = (1.0 / ratio) ** 0.8
    return Theorem1Params(delta, eta, _round_batch(raw))


def theorem2_params(horizon: int, budget: float, a: float,
                    modulus: float) -> Theorem2Params:
    """Order-optimal parameters for the strongly convex regime.

    The learning rate is the inverse-epoch schedule ``1/(modulus * tau)``;
    the branch boundary sits at ``a = 4/3`` (inclusive below).
    """
    rate = InverseEpochRate(modulus)
    horizon, budget = _check_budget(horizon, budget, a)
    ratio = budget / horizon
    if a <= 4.0 / 3.0:
        delta = ratio ** (a / (4.0 + a))
        raw = (1.0 / ratio) ** (4.0 / (4.0 + a))
    else:
        delta = ratio ** 0.25
        raw = (1.0 / ratio) ** 0.75
    return Theorem2Params(delta, _round_batch(raw), rate)

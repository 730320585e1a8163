"""Batch/epoch indexing, per-epoch schedule columns, and parameter selectors.

The horizon is cut into batches of B steps; within a batch the 1-based epoch
tau sets the step's sample count and learning rate, entry ``tau - 1`` of two
per-epoch columns of length B, so both reset at every batch boundary (the
restarting procedure). ``polynomial_counts`` and ``inverse_epoch_rates`` build
the paper's columns; a constant column is ``np.full``. The ``theorem1_params``
/ ``theorem2_params`` selectors emit the order-optimal smoothing radius,
learning rate, and batch size for the convex and strongly convex regimes
given the horizon and the distribution-variation budget.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import ConfigurationError, _as_int

__all__ = [
    "BatchIndex",
    "batch_epoch",
    "polynomial_counts",
    "inverse_epoch_rates",
    "RequirementCheck",
    "check_sampling_requirement",
    "CONVEX_SAMPLING_LIMIT",
    "STRONGLY_CONVEX_SAMPLING_LIMIT",
    "Theorem1Params",
    "Theorem2Params",
    "theorem1_params",
    "theorem2_params",
]


class BatchIndex(NamedTuple):
    batch: int  # j, 1-based (an array, for an array of steps)
    epoch: int  # tau, 1-based position within the batch


def _check_batch_size(batch_size: int) -> int:
    batch_size = _as_int(batch_size, "batch size")
    if batch_size < 2:
        raise ConfigurationError(f"batch size must be >= 2, got {batch_size}")
    return batch_size


def batch_epoch(t, batch_size: int) -> BatchIndex:
    """Batch number ``ceil(t / batch_size)`` and within-batch epoch of step
    ``t``, or of each step of a signed integer array ``t``."""
    t = _as_int(t, "step index") if np.ndim(t) == 0 else np.asarray(t)
    if np.ndim(t) and t.dtype.kind != "i":  # an unsigned -t would wrap
        raise ConfigurationError(f"step indices must be signed integers, got {t.dtype}")
    if np.any(t < 1):
        raise ConfigurationError("step index must be >= 1")
    batch_size = _check_batch_size(batch_size)
    j = -(-t // batch_size)
    return BatchIndex(batch=j, epoch=t - (j - 1) * batch_size)


def _check_counts(counts) -> np.ndarray:
    """``counts`` as an int64 copy, every entry an integer >= 1; a float
    column is rejected, never truncated."""
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise ConfigurationError(f"sample counts must be integers, got {counts.dtype}")
    counts = counts.astype(np.int64)
    bad = np.flatnonzero(counts < 1)
    if bad.size:
        raise ConfigurationError(f"sample count must be >= 1, got "
                                 f"{counts.flat[bad[0]]} at epoch {bad[0] + 1}")
    return counts


def _check_rates(rates) -> np.ndarray:
    """``rates`` as a float copy, every entry positive and finite."""
    rates = np.array(rates, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(rates) & (rates > 0)))
    if bad.size:
        raise ConfigurationError(f"learning rate eta={rates.flat[bad[0]]} must be "
                                 f"positive and finite at epoch {bad[0] + 1}")
    return rates


def polynomial_counts(a: float, b: float, batch_size: int) -> np.ndarray:
    """Decaying per-epoch sample counts ``ceil(b * (batch_size - tau + 1)^a)``."""
    batch_size = _check_batch_size(batch_size)
    if not all(v > 0 and math.isfinite(v) for v in (a, b)):
        raise ConfigurationError("polynomial sampling needs finite a > 0 and b > 0")
    try:
        return np.array([math.ceil(b * (batch_size - tau + 1) ** a)
                         for tau in range(1, batch_size + 1)], dtype=np.int64)
    except OverflowError as exc:
        raise ConfigurationError(f"polynomial counts overflow with a={a}, b={b} "
                                 f"and batch size {batch_size}") from exc


def inverse_epoch_rates(modulus: float, batch_size: int) -> np.ndarray:
    """Strongly convex per-epoch learning rates ``1 / (modulus * tau)``."""
    batch_size = _check_batch_size(batch_size)
    if not (modulus > 0 and math.isfinite(modulus)):
        raise ConfigurationError(
            f"strong-convexity modulus {modulus} must be positive and finite")
    return 1.0 / (modulus * np.arange(1, batch_size + 1))


class RequirementCheck(NamedTuple):
    satisfied: bool
    achieved: float  # sum over the batch of 1/sqrt(count)
    allowed: float   # c * batch_size^(1 - a/2)


def check_sampling_requirement(counts, a: float, c: float) -> RequirementCheck:
    """Check ``sum_tau 1/sqrt(phi(tau)) <= c * B^(1 - a/2)`` for the per-epoch
    counts ``phi`` of a batch of length B.

    Returns both sides so callers can report the margin.
    """
    counts = _check_counts(counts)
    batch_size = _check_batch_size(counts.size)
    if not all(v > 0 and math.isfinite(v) for v in (a, c)):
        raise ConfigurationError("requirement check needs finite a > 0 and c > 0")
    achieved = math.fsum(1.0 / np.sqrt(counts))
    allowed = c * batch_size ** (1.0 - 0.5 * a)
    return RequirementCheck(achieved <= allowed, achieved, allowed)


#: The sampling parameter beyond which more samples no longer lower the
#: bound: the selectors cap ``a`` here.
CONVEX_SAMPLING_LIMIT = 1.0
STRONGLY_CONVEX_SAMPLING_LIMIT = 4.0 / 3.0


class Theorem1Params(NamedTuple):
    delta: float
    eta: float
    batch_size: int


class Theorem2Params(NamedTuple):
    delta: float
    batch_size: int
    rates: np.ndarray  # the per-epoch inverse-epoch rates, of length batch_size


def _check_budget(horizon: int, budget: float, a: float) -> tuple[int, float]:
    horizon = _as_int(horizon, "horizon")
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

    The exponents depend on the sampling parameter up to
    ``CONVEX_SAMPLING_LIMIT``; beyond it extra samples stop helping, so
    ``a`` is capped there. Constants are unit (the analysis optimizes
    orders only); scale externally if needed.
    """
    horizon, budget = _check_budget(horizon, budget, a)
    ratio, a = budget / horizon, min(a, CONVEX_SAMPLING_LIMIT)
    return Theorem1Params(ratio ** (a / (4.0 + a)), ratio ** (3.0 * a / (4.0 + a)),
                          _round_batch((1.0 / ratio) ** (4.0 / (4.0 + a))))


def theorem2_params(horizon: int, budget: float, a: float,
                    modulus: float) -> Theorem2Params:
    """Order-optimal parameters for the strongly convex regime, with ``a``
    capped at ``STRONGLY_CONVEX_SAMPLING_LIMIT``.

    The learning rates are the inverse-epoch column ``1/(modulus * tau)``
    over the batch.
    """
    horizon, budget = _check_budget(horizon, budget, a)
    ratio, a = budget / horizon, min(a, STRONGLY_CONVEX_SAMPLING_LIMIT)
    batch_size = _round_batch((1.0 / ratio) ** (4.0 / (4.0 + a)))
    return Theorem2Params(ratio ** (a / (4.0 + a)), batch_size,
                          inverse_epoch_rates(modulus, batch_size))

"""Ground-truth evaluation of per-step CVaR and dynamic regret.

The true CVaR of a decision is computed on a deterministic mid-quantile grid
of the step's noise distribution (bias O(1/grid_n) for Lipschitz costs,
reproducible without Monte Carlo). Per-step optimal actions are the first
minimizers over a 1-D action grid, matching the evaluation protocol of the
pricing study. They are found by a warm-started convex search over the action
grid, ties to the smaller action: each ``J(., xi)`` is convex in the decision
and CVaR is monotone and convex, so the grid CVaR is discrete-convex and a
descent walk finds its minimum after a few CVaR rows instead of all ``k``.

``dynamic_regret`` makes one pass over the steps: each step's quantile grid
is built once and serves both that step's optimum search and the played
actions of every trial. A step makes one stacked cost and CVaR call over the
search's warm-start stencil and its first block of played actions; further
calls are made only when the optimum moves, and for further blocks of
played actions. The steps are cut into ranges that forked processes
evaluate at the same time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import (AdmissibleSet, Ball, Box, ConfigurationError, CostModel,
                   NoiseSequence, as_vector, fork_map, fork_ranges)
from .risk import cvar_of_values

__all__ = [
    "true_cvar",
    "action_grid",
    "optimal_action_series",
    "RegretReport",
    "dynamic_regret",
    "batch_optimal_actions",
]


@functools.lru_cache(maxsize=8)
def _mid_quantiles(grid_n: int) -> np.ndarray:
    """The ``grid_n`` mid-quantile levels, built once per size (read-only)."""
    if grid_n < 1000:
        raise ConfigurationError("quantile grid needs >= 1000 points")
    levels = (np.arange(grid_n) + 0.5) / grid_n
    levels.flags.writeable = False
    return levels


def _quantile_grid(noise: NoiseSequence, t: int, grid_n: int) -> np.ndarray:
    """Noise values of step ``t`` at the mid-quantile levels."""
    return np.asarray(noise.quantile(t, _mid_quantiles(int(grid_n))), dtype=float)


#: Rescan window of the action search, relative to the cost bound U. It must
#: exceed the rounding error of a CVaR of values bounded by U, or a flat
#: stretch can hide the first minimum; a wider window only costs evaluations.
_TOL = 1e-9

#: Most cost values evaluated in one call of the regret pass, the search's
#: stencil rows included: rows are grouped so that each call's temporaries
#: stay small and reuse memory instead of faulting in fresh pages at every
#: step. A row longer than this is evaluated on its own.
_BLOCK = 2 ** 16

#: Serial seconds per cost value of the regret pass, cost and CVaR together:
#: the estimate from which ``fork_ranges`` decides whether a fork pays.
_VALUE_S = 1e-8


def true_cvar(cost: CostModel, noise: NoiseSequence, t: int, x, alpha: float,
              grid_n: int = 10_000) -> float:
    """Deterministic CVaR of ``J(x, xi_t)`` via a mid-quantile noise grid."""
    x = as_vector(x)
    values = np.asarray(cost(x, _quantile_grid(noise, t, grid_n)), dtype=float)
    return float(cvar_of_values(values, alpha))


def action_grid(region: AdmissibleSet, k: int) -> np.ndarray:
    """``k`` grid points at the centers of equal subintervals of a 1-D set."""
    k = int(k)
    if k < 2:
        raise ConfigurationError("action grid needs at least 2 points")
    if region.dim != 1:
        raise ConfigurationError(
            "grid search over optimal actions supports 1-D decision sets only")
    if isinstance(region, Box):
        lo, hi = float(region.lower[0]), float(region.upper[0])
    elif isinstance(region, Ball):
        lo, hi = float(region.center[0] - region.radius), float(region.center[0] + region.radius)
    else:  # pragma: no cover - union is exhaustive
        raise ConfigurationError(f"unsupported set type {type(region)!r}")
    return lo + (np.arange(k) + 0.5) * (hi - lo) / k


def _grid_cvars(cost: CostModel, xi: np.ndarray, xs: np.ndarray,
                alpha: float) -> np.ndarray:
    """CVaR against the noise grid ``xi`` for every action in ``xs`` (1-D)."""
    return cvar_of_values(cost.rows(xs[:, None], xi[None, :]), alpha)


def _first_grid_minimum(f: Callable[[int], float], k: int, start: int,
                        tol: float, memo: dict[int, float]) -> tuple[int, float]:
    """First minimizer of a discrete-convex ``f`` over ``0..k-1`` and its value.

    ``f(i)`` is evaluated lazily, at most once per index, and stored in
    ``memo``; values already in ``memo`` are used as they are. A walk from
    ``start`` descends to a local minimum, which convexity makes global.
    Rounding can make a flat stretch look locally non-convex, so the
    contiguous window of values within ``tol`` of the walk's result is
    rescanned and its first minimum returned: the grid's first minimum, as
    ``np.argmin`` over all ``k`` values would find it.
    """
    def at(j: int) -> float:
        if j not in memo:
            memo[j] = f(j)
        return memo[j]

    i = start
    while i > 0 and at(i - 1) <= at(i):
        i -= 1
    while i < k - 1 and at(i + 1) < at(i):
        i += 1
    level = at(i) + tol
    left, right = i, i + 1
    while left > 0 and at(left - 1) <= level:
        left -= 1
    while right < k and at(right) <= level:
        right += 1
    best = min(range(left, right), key=at)
    return best, float(at(best))


def _step_minimum(cost: CostModel, xi: np.ndarray, xs: np.ndarray,
                  alpha: float, start: int,
                  memo: dict[int, float]) -> tuple[int, float]:
    """Index into ``xs`` of the grid minimum against the step's noise grid
    ``xi``, searched from ``start``; ``memo`` may hold CVaRs already known."""
    return _first_grid_minimum(
        lambda i: _grid_cvars(cost, xi, xs[i:i + 1], alpha)[0],
        xs.size, start, _TOL * cost.bound, memo)


def optimal_action_series(cost: CostModel, noise: NoiseSequence,
                          region: AdmissibleSet, alpha: float, horizon: int,
                          k: int = 100, grid_n: int = 10_000
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Per-step grid-optimal actions and CVaR values for ``t = 1..horizon``.

    Each step's search starts from the previous step's minimizer.
    Trajectory-independent, so one series can be shared across trials.
    ``dynamic_regret`` finds the same series inline.
    """
    xs = action_grid(region, k)
    x_star = np.empty(horizon)
    c_star = np.empty(horizon)
    i = xs.size // 2
    for t in range(1, horizon + 1):
        i, c_star[t - 1] = _step_minimum(cost, _quantile_grid(noise, t, grid_n),
                                         xs, alpha, i, {})
        x_star[t - 1] = xs[i]
    return x_star, c_star


@dataclass(frozen=True)
class RegretReport:
    """Per-step ground-truth evaluation of played trajectories, one row per trial."""

    played_cvar: np.ndarray       # (trials, T) C_t at the played (perturbed) actions
    optimal_cvar: np.ndarray      # (T,) C_t at the per-step grid optima
    optimal_actions: np.ndarray   # (T,) the grid optima themselves
    cumulative_regret: np.ndarray  # (trials, T) running sum of (played - optimal)
    accumulated_loss: np.ndarray   # (trials, T) running sum of played CVaR


def dynamic_regret(x_hat: np.ndarray, cost: CostModel, noise: NoiseSequence,
                   region: AdmissibleSet, alpha: float, k: int = 100,
                   grid_n: int = 10_000) -> RegretReport:
    """Evaluate played actions ``x_hat`` of shape ``(trials, T, 1)``, played
    at steps ``1..T``, against the per-step best actions in hindsight.

    One pass over the steps: each step's quantile grid is built once and
    serves every trial. Each step's optimum is searched in the same pass,
    warm-started from the previous step's. A step makes one cost and CVaR
    call over the stacked rows of the search's stencil, the grid actions
    next to the warm start, and of the first trials' played actions; the
    stencil's CVaRs seed the search, which evaluates further grid actions
    one at a time, only when the optimum moves or its rescan window widens.
    The remaining played actions are evaluated in blocks. A call holds at
    most ``_BLOCK`` cost values, unless the stencil or one row alone holds
    more.

    The pass is cut into contiguous step ranges, one per usable CPU, that
    run at the same time in forked processes (``fork_ranges``): one range,
    in this process, when the pass is too small for a fork to pay. Each
    range starts its search at the middle of the action grid, as step 1
    does. The search returns the grid's first minimum from any start, so a
    range's cold start finds the optima that ``optimal_action_series`` finds
    with the warm start carried over, and the report does not depend on how
    the steps were cut.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.ndim != 3 or x_hat.shape[1] == 0 or x_hat.shape[2] != region.dim:
        raise ConfigurationError(
            f"played actions must have shape (trials, T, {region.dim}), "
            f"got {x_hat.shape}")
    trials, horizon = x_hat.shape[:2]
    xs = action_grid(region, k)
    levels = _mid_quantiles(int(grid_n))
    work_s = horizon * (trials + 3) * levels.size * _VALUE_S
    parts = fork_map(
        functools.partial(_regret_steps, x_hat, cost, noise, xs, alpha, levels),
        fork_ranges(horizon, work_s))
    played, x_star, c_star = (np.concatenate(part, axis=-1) for part in zip(*parts))
    return RegretReport(
        played_cvar=played,
        optimal_cvar=c_star,
        optimal_actions=x_star,
        cumulative_regret=np.cumsum(played - c_star, axis=1),
        accumulated_loss=np.cumsum(played, axis=1),
    )


def _regret_steps(x_hat: np.ndarray, cost: CostModel, noise: NoiseSequence,
                  xs: np.ndarray, alpha: float, levels: np.ndarray,
                  steps: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``dynamic_regret``'s pass over the 0-based steps ``steps``: the played
    CVaRs ``(trials, len(steps))``, the grid optima and their CVaRs."""
    trials = x_hat.shape[0]
    rows = max(1, _BLOCK // levels.size)
    played = np.empty((trials, len(steps)))
    x_star, c_star = np.empty(len(steps)), np.empty(len(steps))
    i = xs.size // 2
    for j, s in enumerate(steps):
        xi = np.asarray(noise.quantile(s + 1, levels), dtype=float)
        lo = max(i - 1, 0)
        stencil = xs[lo:i + 2, None]
        head = max(rows - len(stencil), 0)
        cvars = cvar_of_values(cost.rows(
            np.concatenate([stencil, x_hat[:head, s]]), xi[None, :]), alpha)
        played[:head, j] = cvars[len(stencil):]
        memo = dict(enumerate(cvars[:len(stencil)], start=lo))
        i, c_star[j] = _step_minimum(cost, xi, xs, alpha, i, memo)
        x_star[j] = xs[i]
        for r in range(head, trials, rows):
            played[r:r + rows, j] = cvar_of_values(
                cost.rows(x_hat[r:r + rows, s], xi[None, :]), alpha)
    return played, x_star, c_star


def batch_optimal_actions(cost: CostModel, noise: NoiseSequence,
                          steps: Iterable[int], region: AdmissibleSet,
                          alpha: float, k: int = 100, grid_n: int = 10_000
                          ) -> tuple[np.ndarray, float]:
    """Single best grid action over a batch of steps and its summed CVaR."""
    steps = list(steps)
    if not steps:
        raise ConfigurationError("batch must contain at least one step")
    xs = action_grid(region, k)
    grids = [_quantile_grid(noise, t, grid_n) for t in steps]
    i, total = _first_grid_minimum(
        lambda j: sum(_grid_cvars(cost, xi, xs[j:j + 1], alpha)[0]
                      for xi in grids),
        xs.size, xs.size // 2, _TOL * cost.bound * len(steps), {})
    return np.array([xs[i]]), total

"""Ground-truth evaluation of per-step CVaR and dynamic regret.

The true CVaR of a decision is computed on a deterministic mid-quantile grid
of the step's noise distribution (bias O(1/grid_n) for Lipschitz costs,
reproducible without Monte Carlo). Per-step optimal actions are the first
minimizers over a 1-D action grid, matching the evaluation protocol of the
pricing study. They are found by a warm-started convex search over the action
grid, ties to the smaller action: each ``J(., xi)`` is convex in the decision
and CVaR is monotone and convex, so the grid CVaR is discrete-convex and a
descent walk finds its minimum after a few CVaR rows instead of all ``k``.

The oracle makes two passes. Each makes the standard quantiles of its levels
once and places them at a block of steps in one call: the search pass,
``optimal_action_series``, finds the optima of a range of steps; the played
pass, ``dynamic_regret``, evaluates every trial against them, its step
ranges run by forked processes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (Box, ConfigurationError, CostModel, NoiseSequence, fork_map,
                   fork_ranges)
from .risk import cvar_of_values

__all__ = ["true_cvar", "action_grid", "RegretReport", "optimal_action_series",
           "dynamic_regret"]


@functools.lru_cache(maxsize=8)
def _mid_quantiles(grid_n: int) -> np.ndarray:
    """The ``grid_n`` mid-quantile levels, built once per size (read-only)."""
    if grid_n < 1000:
        raise ConfigurationError(f"quantile grid needs >= 1000 points, got {grid_n}")
    levels = (np.arange(grid_n) + 0.5) / grid_n
    levels.flags.writeable = False
    return levels


#: Rescan window of the action search, relative to the cost bound U. It must
#: exceed the rounding error of a CVaR of values bounded by U, or a flat
#: stretch can hide the first minimum; a wider window only costs evaluations.
_TOL = 1e-9

#: Most values in one call of either pass: quantile grids are made a block
#: of steps at a time and played rows evaluated a block of rows at a time,
#: so that each call's temporaries stay small and reuse memory instead of
#: faulting in fresh pages at every step. A longer row is made on its own.
_BLOCK = 2 ** 16

#: Serial seconds per cost value of the played pass, cost and CVaR together:
#: the estimate from which ``fork_ranges`` decides whether a fork pays.
_VALUE_S = 1e-8


def true_cvar(cost: CostModel, noise: NoiseSequence, t: int, x: float,
              alpha: float, grid_n: int = 10_000) -> float:
    """Deterministic CVaR of ``J(x, xi_t)`` via a mid-quantile noise grid."""
    if np.ndim(x) != 0:
        raise ConfigurationError(f"decision x={x!r} must be a scalar")
    xi = np.asarray(noise.quantile(t, _mid_quantiles(int(grid_n))), dtype=float)
    return float(_cvars(cost, xi, np.array([x], dtype=float), alpha)[0])


def action_grid(region: Box, k: int) -> np.ndarray:
    """``k`` grid points at the centers of equal subintervals of the interval."""
    k = int(k)
    if k < 2:
        raise ConfigurationError(f"action grid needs at least 2 points, got {k}")
    lo, hi = region.lower, region.upper
    return lo + (np.arange(k) + 0.5) * (hi - lo) / k


def _cvars(cost: CostModel, xi: np.ndarray, x_rows: np.ndarray,
           alpha: float) -> np.ndarray:
    """CVaR against the noise grid ``xi`` (1-D) of every decision of
    ``x_rows`` ``(rows,)``."""
    return cvar_of_values(cost.rows(x_rows, xi[None, :]), alpha)


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


@dataclass(frozen=True)
class RegretReport:
    """Per-step ground-truth evaluation of played trajectories, one row per trial."""

    played_cvar: np.ndarray       # (trials, T) C_t at the played (perturbed) actions
    optimal_cvar: np.ndarray      # (T,) C_t at the per-step grid optima
    optimal_actions: np.ndarray   # (T,) the grid optima themselves
    cumulative_regret: np.ndarray  # (trials, T) running sum of (played - optimal)
    accumulated_loss: np.ndarray   # (trials, T) running sum of played CVaR


def _grids(noise: NoiseSequence, levels: np.ndarray, steps: range):
    """The noise values at ``levels`` of each 0-based step of ``steps``: the
    family's standard quantiles of ``levels`` are made once, and each block
    of at most ``_BLOCK`` values places them in one ``noise.place`` call."""
    z = noise.family.quantile(levels)
    size = max(1, _BLOCK // levels.size)
    for start in range(0, len(steps), size):
        block = np.array(steps[start:start + size])[:, None] + 1
        yield from noise.place(block, z)


def optimal_action_series(cost: CostModel, noise: NoiseSequence,
                          xs: np.ndarray, alpha: float, steps: range,
                          levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The optimum over the grid ``xs`` of each 0-based step of ``steps``
    (step ``s + 1``) at the quantile ``levels``, and its CVaR: the search pass.

    A step makes one cost and CVaR call over the search's stencil, the grid
    actions next to the previous step's optimum (the grid's middle for the
    first step), whose CVaRs seed the search; further grid actions are
    evaluated one at a time, only when the optimum moves or its rescan
    window widens. The search returns the grid's first minimum from any
    start, so the series does not depend on how the steps are cut.
    """
    tol = _TOL * cost.bound
    x_star, c_star = np.empty(len(steps)), np.empty(len(steps))
    i = xs.size // 2
    for j, xi in enumerate(_grids(noise, levels, steps)):
        lo = max(i - 1, 0)
        stencil = _cvars(cost, xi, xs[lo:i + 2], alpha)
        i, c_star[j] = _first_grid_minimum(
            lambda m: _cvars(cost, xi, xs[m:m + 1], alpha)[0], xs.size, i,
            tol, dict(enumerate(stencil, start=lo)))
        x_star[j] = xs[i]
    return x_star, c_star


def dynamic_regret(x_hat: np.ndarray, cost: CostModel, noise: NoiseSequence,
                   alpha: float, optima: tuple[np.ndarray, np.ndarray],
                   levels: np.ndarray) -> RegretReport:
    """The played pass: evaluate ``x_hat`` ``(trials, T)``, played at steps
    ``1..T``, against the best actions in hindsight ``optima``, as
    ``optimal_action_series`` returns them for ``range(T)`` at ``levels``.

    Each step's quantile grid serves every trial, evaluated in blocks of at
    most ``_BLOCK`` cost values (one row, if a row alone holds more). The
    steps are cut into contiguous ranges, one per usable CPU, run at the
    same time in forked processes (``fork_ranges``), or in this process
    when the pass is too small for a fork to pay.
    """
    x_star, c_star = optima
    x_hat = np.asarray(x_hat, dtype=float)
    horizon = len(c_star)
    if x_hat.ndim != 2 or x_hat.shape[1] != horizon:
        raise ConfigurationError(
            f"played actions must have shape (trials, {horizon}), got {x_hat.shape}")
    played = np.concatenate(fork_map(
        functools.partial(_played_steps, x_hat, cost, noise, alpha, levels),
        fork_ranges(horizon, x_hat.size * levels.size * _VALUE_S)), axis=1)
    return RegretReport(
        played_cvar=played,
        optimal_cvar=c_star,
        optimal_actions=x_star,
        cumulative_regret=np.cumsum(played - c_star, axis=1),
        accumulated_loss=np.cumsum(played, axis=1),
    )


def _played_steps(x_hat: np.ndarray, cost: CostModel, noise: NoiseSequence,
                  alpha: float, levels: np.ndarray, steps: range) -> np.ndarray:
    """``dynamic_regret``'s pass over the 0-based steps ``steps``: the played
    CVaRs ``(trials, len(steps))``."""
    trials = x_hat.shape[0]
    rows = max(1, _BLOCK // levels.size)
    played = np.empty((trials, len(steps)))
    for j, (s, xi) in enumerate(zip(steps, _grids(noise, levels, steps))):
        for r in range(0, trials, rows):
            played[r:r + rows, j] = _cvars(cost, xi, x_hat[r:r + rows, s], alpha)
    return played

"""Ground-truth evaluation of per-step CVaR and dynamic regret.

The true CVaR of a decision is computed on a deterministic mid-quantile grid
of the step's noise distribution (bias O(1/grid_n) for Lipschitz costs,
reproducible without Monte Carlo). Per-step optimal actions are the first
minimizers over a 1-D action grid, matching the evaluation protocol of the
pricing study, ties to the smaller action. Both passes take a cost whose
rule is a ``Quadratic``: a closed form of the grid CVaR screens every action
of a block of steps at once, and only the actions within a rounding margin
of a step's least value are evaluated exactly, the first exact minimum being
the step's optimum. ``true_cvar`` takes any cost.

The oracle makes two serial passes, each of which makes the standard
quantiles of its levels once: the search pass, ``optimal_action_series``,
finds the optimum of every step, placing only the grids of the rows it
scores; the played pass, ``dynamic_regret``, evaluates every trial against
them, each grid placed once for all trials, a row's bits independent of the
rows beside it. Both evaluate their exact CVaR rows in one reused buffer,
many rows per call, bit for bit as ``cvar_of_values`` over
``CostModel.rows`` would; the ``(rows, 1)`` column operands of a grid's
placement and of ``Quadratic.into`` run ``_unbuffered``. A point-mass
step's grid is one value n times, so the played pass evaluates one cost a
trial there. The bits are the grid row's: a row of n equal costs partitions
to itself, and numpy sums the k - 1 copies of its tail in one order, whether
they lie in the grid row or are one value read through a zero stride.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (Box, ConfigurationError, CostModel, NoiseSequence, Quadratic,
                   _as_int, _unbuffered)
from .risk import _check_alpha, _tail_means, cvar_of_values

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


#: Screen margin of the search pass, relative to the cost bound U: a grid
#: action whose closed-form CVaR is within it of the step's least gets an
#: exact CVaR. It must exceed twice the closed form's error (a relative
#: 1e-14 at any alpha and up to 10,000 levels), or a tie of exact values
#: could be screened out.
_TOL = 1e-9

#: Most values in one call of either pass: the search pass screens, and the
#: played pass places its grids, a block of steps at a time, and exact rows
#: are evaluated in one reused buffer of this many values, so that no call
#: faults in fresh pages at every step. A longer row is made on its own.
_BLOCK = 2 ** 16


def true_cvar(cost: CostModel, noise: NoiseSequence, t: int, x: float,
              alpha: float, grid_n: int = 10_000) -> float:
    """Deterministic CVaR of ``J(x, xi_t)`` via a mid-quantile noise grid."""
    if np.ndim(x) != 0:
        raise ConfigurationError(f"decision x={x!r} must be a scalar")
    levels = _mid_quantiles(_as_int(grid_n, "quantile grid size"))
    xi = np.asarray(noise.quantile(t, levels), dtype=float)
    return float(_cvars(cost, xi, np.array([x], dtype=float), alpha)[0])


def action_grid(region: Box, k: int) -> np.ndarray:
    """``k`` grid points at the centers of equal subintervals of the interval."""
    k = _as_int(k, "action-grid size")
    if k < 2:
        raise ConfigurationError(f"action grid needs at least 2 points, got {k}")
    lo, hi = region.lower, region.upper
    return lo + (np.arange(k) + 0.5) * (hi - lo) / k


def _cvars(cost: CostModel, xi: np.ndarray, x_rows: np.ndarray,
           alpha: float) -> np.ndarray:
    """CVaR against the noise grid ``xi`` (1-D) of every decision of
    ``x_rows`` ``(rows,)``: the reference of both passes."""
    return cvar_of_values(cost.rows(x_rows, xi[None, :]), alpha)


def _closed_form_cvars(quad: Quadratic, z: np.ndarray, alpha: float):
    """``cvars(loc, scale, x)``: the grid CVaRs ``(steps, k)`` of ``quad`` at
    the steps' ``loc`` and ``scale`` ``(steps,)`` and the decisions ``x``
    ``(k,)``, in closed form over the sorted standard values ``z``: equal to
    the exact ones to rounding (a relative 1e-14 at any alpha), not bit for
    bit. The sums over ``z`` are made here, once for every call.

    With ``g = loc + slope * x - level``, the costs ``(g + scale * z)^2 +
    weight * x^2`` are largest far from ``w = -g / scale``. As in
    ``_tail_means``, with ``m = ceil(alpha n)``, the CVaR is the sum of the
    ``m - 1`` largest plus ``alpha n - (m - 1)`` times the m-th largest,
    over ``alpha n``. The ``m - 1`` largest are a prefix ``z[:head]`` and a
    suffix ``z[tail:]``; ``z[j]`` is in the prefix where ``w`` exceeds the
    midpoint of ``z[j]`` and ``z[j + n - m + 1]``. Prefix and suffix sums
    of ``z`` and ``z^2`` give their sum; the m-th largest is the larger one
    at the two ends of the run ``z[head:tail]`` between them.
    """
    n = z.size
    an = alpha * n
    top = min(n, math.ceil(an)) - 1
    # Sums of z and z^2 over z[:j] and over z[j:], each added from its own
    # end, so that a short suffix's sum is not a difference of long ones.
    heads = [np.concatenate(([0.0], np.cumsum(p))) for p in (z, z * z)]
    tails = [np.concatenate((np.cumsum(p[::-1])[::-1], [0.0])) for p in (z, z * z)]
    mids = (z[:top] + z[n - top:]) / 2

    def cvars(loc: np.ndarray, scale: np.ndarray, x: np.ndarray) -> np.ndarray:
        g = loc[:, None] + quad.slope * x - quad.level
        scale = scale[:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            head = np.searchsorted(mids, -g / scale)
        tail = head + n - top
        z1, z2 = (h[head] + t[tail] for h, t in zip(heads, tails))
        kth = np.maximum(np.abs(g + scale * z[head]), np.abs(g + scale * z[tail - 1]))
        return ((top * g * g + 2.0 * g * scale * z1 + scale * scale * z2
                 + (an - top) * kth * kth) / an + quad.weight * x ** 2)

    return cvars


def _check_quadratic(cost: CostModel) -> None:
    """Both passes need a cost whose rule is a ``Quadratic``: reject any other."""
    if not isinstance(cost.fn, Quadratic):
        raise ConfigurationError(f"the oracle needs a Quadratic cost rule, not {cost.fn!r}")


def _exact_cvars(rule: Quadratic, place, x: np.ndarray, n: int, alpha: float,
                 buf: np.ndarray) -> np.ndarray:
    """The CVaR of ``J(x[r], xi_r)`` for each row ``r``, bit for bit
    ``_cvars``', where ``place(rows, part)`` writes the grids ``xi_r`` of
    ``n`` values of the rows ``part``, a slice, into ``rows``.

    As many rows at a time as the 1-D ``buf`` holds are placed into it,
    evaluated in place (``Quadratic.into``) and partitioned there; a strided
    buffer would partition differently.
    """
    size = buf.size // n
    out = np.empty(x.size)
    for r in range(0, x.size, size):
        part = slice(r, r + size)
        rows = buf[:x[part].size * n].reshape(-1, n)
        place(rows, part)
        rule.into(x[part], rows)
        out[part] = _tail_means(rows, alpha)
    return out


def _place(z: np.ndarray, loc: np.ndarray, scale: np.ndarray, out: np.ndarray) -> None:
    """The grids ``loc + z * scale`` of the steps' columns ``loc`` and
    ``scale`` ``(steps, 1)`` into ``out``, as ``NoiseSequence.place`` makes
    them (``z * scale``, then ``loc +``), the columns ``_unbuffered``."""
    with _unbuffered():
        np.multiply(z, scale, out=out)
        np.add(loc, out, out=out)


@dataclass(frozen=True)
class RegretReport:
    """Per-step ground-truth evaluation of played trajectories, one row per
    trial. The running sums are properties, ``np.cumsum`` along the steps,
    made as a new array at each access."""

    played_cvar: np.ndarray       # (trials, T) C_t at the played (perturbed) actions
    optimal_cvar: np.ndarray      # (T,) C_t at the per-step grid optima
    optimal_actions: np.ndarray   # (T,) the grid optima themselves

    @property
    def cumulative_regret(self) -> np.ndarray:
        """``(trials, T)`` running sum of (played - optimal)."""
        return np.cumsum(self.played_cvar - self.optimal_cvar, axis=-1)

    @property
    def accumulated_loss(self) -> np.ndarray:
        """``(trials, T)`` running sum of the played CVaR."""
        return np.cumsum(self.played_cvar, axis=-1)

    def rows(self, trials) -> "RegretReport":
        """The report of the trials that ``trials``, an index or a slice,
        selects: a view of this one's rows, from which the properties derive
        those trials' rows alone."""
        return replace(self, played_cvar=self.played_cvar[trials])

    def finals(self) -> tuple[np.ndarray, np.ndarray]:
        """Each trial's last ``cumulative_regret`` and ``accumulated_loss``,
        ``(trials,)`` each, the running sums made one trial at a time."""
        rows = [self.rows(i) for i in range(len(self.played_cvar))]
        return (np.array([row.cumulative_regret[-1] for row in rows]),
                np.array([row.accumulated_loss[-1] for row in rows]))


def _blocks(noise: NoiseSequence, z: np.ndarray, steps: np.ndarray):
    """``steps`` (0-based) cut into blocks of ``_BLOCK // z.size`` steps (one
    at least): each block's steps and their grids ``(steps, n)`` at the
    standard values ``z``, ``_place``d into one buffer that every block
    reuses."""
    size = max(1, _BLOCK // z.size)
    buf = np.empty((min(size, len(steps)), z.size))
    for start in range(0, len(steps), size):
        block = steps[start:start + size]
        xi = buf[:block.size]
        _place(z, *noise._columns(block[:, None] + 1), xi)
        yield block, xi


def optimal_action_series(cost: CostModel, noise: NoiseSequence,
                          xs: np.ndarray, alpha: float, levels: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """The optimum over the grid ``xs`` of each step of ``noise`` at the
    quantile ``levels``, and its CVaR: the search pass.

    A step's optimum is the first grid minimum of its exact CVaRs, as
    ``np.argmin`` over all of them finds it. The cost's rule must be a
    ``Quadratic``. The grid CVaRs of a block of steps are first made in
    closed form, and only the actions within ``2 * _TOL * U`` of a step's
    least closed-form value get an exact CVaR: the closed form errs by far
    less than that, so every exact minimum is among them. Only their grids
    are placed, each straight into the row buffer. A block holds at most
    ``_BLOCK`` values of each ``(steps, actions)`` array, whatever the grid's
    length. Steps are independent, so the series does not depend on how the
    steps are cut.
    """
    _check_quadratic(cost)
    alpha = _check_alpha(alpha)
    z = noise.family.quantile(levels)
    closed_form = _closed_form_cvars(cost.fn, z, alpha)
    buf = np.empty(max(1, _BLOCK // z.size) * z.size)
    margin = 2.0 * _TOL * cost.bound
    x_star, c_star = np.empty(noise.horizon), np.empty(noise.horizon)
    # About one action a step passes the screen, so a block's kept rows
    # fill the row buffer about once.
    size = max(1, _BLOCK // max(z.size, xs.size))
    for start in range(0, noise.horizon, size):
        loc, scale = noise.table[start:start + size].T
        screen = closed_form(loc, scale, xs)
        keep = screen <= screen.min(axis=1, keepdims=True) + margin
        row, col = np.nonzero(keep)
        loc_r, scale_r = loc[row, None], scale[row, None]
        exact = np.full(keep.shape, np.inf)
        exact[row, col] = _exact_cvars(
            cost.fn, lambda rows, part: _place(z, loc_r[part], scale_r[part], rows),
            xs[col], z.size, alpha, buf)
        best = exact.argmin(axis=1)
        out = slice(start, start + loc.size)
        x_star[out], c_star[out] = xs[best], exact[np.arange(loc.size), best]
    return x_star, c_star


def dynamic_regret(x_hat: np.ndarray, cost: CostModel, noise: NoiseSequence,
                   alpha: float, optima: tuple[np.ndarray, np.ndarray],
                   levels: np.ndarray) -> RegretReport:
    """The played pass: evaluate ``x_hat`` ``(trials, T)``, played at steps
    ``1..T``, against the best actions in hindsight ``optima``, as
    ``optimal_action_series`` returns them at ``levels``: the report of
    ``_played_cvars``' rows."""
    return _report(_played_cvars(x_hat, cost, noise, alpha, optima, levels), optima)


def _report(played: np.ndarray, optima: tuple[np.ndarray, np.ndarray]) -> RegretReport:
    """The ``RegretReport`` of the played CVaRs ``played`` ``(trials, T)``
    against ``optima``."""
    x_star, c_star = optima
    return RegretReport(played, c_star, x_star)


def _played_cvars(x_hat: np.ndarray, cost: CostModel, noise: NoiseSequence,
                  alpha: float, optima: tuple[np.ndarray, np.ndarray],
                  levels: np.ndarray) -> np.ndarray:
    """``dynamic_regret``'s played CVaRs ``(trials, T)``, each row's bits
    independent of the other rows.

    A step whose grid is spread places it once for every trial, whose rows
    are evaluated in one buffer of at most ``_BLOCK`` cost values (one row,
    if a row alone holds more) by ``_exact_cvars``. A point-mass step, whose
    scale is zero, has a grid of one value ``n`` times and gives each trial
    one cost: ``_point_mass_cvars`` evaluates them all in one call, with the
    bits of the row of ``n`` equal costs. The cost's rule must be a
    ``Quadratic``.
    """
    _check_quadratic(cost)
    x_hat = np.asarray(x_hat, dtype=float)
    horizon = len(optima[1])
    if x_hat.ndim != 2 or x_hat.shape[1] != horizon:
        raise ConfigurationError(
            f"played actions must have shape (trials, {horizon}), got {x_hat.shape}")
    alpha = _check_alpha(alpha)
    z = noise.family.quantile(levels)
    loc, scale = noise._columns(np.arange(1, horizon + 1))
    point = scale == 0
    played = np.empty(x_hat.shape)
    played[:, point] = _point_mass_cvars(cost.fn, loc[point], x_hat[:, point],
                                         alpha, z.size)
    trials = x_hat.shape[0]
    buf = np.empty(max(1, _BLOCK // z.size) * z.size)
    for block, xi in _blocks(noise, z, np.flatnonzero(~point)):
        rows = np.repeat(np.arange(block.size), trials)
        played[:, block] = _exact_cvars(
            cost.fn,
            lambda out, part: np.take(xi, rows[part], axis=0, out=out, mode="clip"),
            x_hat[:, block].T.ravel(), z.size, alpha, buf).reshape(block.size, trials).T
    return played


def _point_mass_cvars(rule: Quadratic, loc: np.ndarray, x: np.ndarray,
                      alpha: float, n: int) -> np.ndarray:
    """The CVaRs ``(trials, steps)`` of the decisions ``x`` at steps whose
    grid of ``n`` values holds the one value ``loc`` ``(steps,)``: bit for
    bit ``_tail_means`` over each row of ``n`` equal costs of ``rule``.

    Each row's one cost ``c`` is evaluated once, all rows in one call; the
    grid's values ``loc + z * 0.0`` differ from ``loc`` at most in a zero's
    sign, which ``rule`` squares away. A row of equal values partitions to
    itself, so with ``k = ceil(alpha n)`` its CVaR is ``(tail + (alpha n -
    (k - 1)) c) / (alpha n)``, ``tail`` numpy's row sum of ``k - 1`` copies
    of ``c``. They are read through a zero stride: numpy's pairwise sum
    adds a row in one order at any stride, so ``tail`` has the bits of the
    grid row's tail sum without a copy being made.
    """
    an = alpha * n
    k = min(n, math.ceil(an))
    costs = rule(x, loc).reshape(-1, 1)
    tail = np.broadcast_to(costs, (x.size, k - 1)).sum(axis=-1)
    return ((tail + (an - (k - 1)) * costs[:, 0]) / an).reshape(x.shape)

"""Restarted zeroth-order CVaR descent.

Each step identifies its batch and within-batch epoch, perturbs the current
decision by ``delta`` in a random direction (a fair sign), queries the cost
the scheduled number of times, estimates the CVaR of the sampled costs, forms
the one-point gradient estimate, and takes a projected step inside the
delta-shrunk interval. At batch boundaries only the schedule state (epoch,
hence sample count and learning rate) resets; the decision carries over from
the previous batch.

Seeded trials share the cost, the noise sequence and the schedule, so they
step together along a leading trial axis; only the generators are per trial.
A trial's generator is NumPy's ``default_rng(seed)`` stream, reproduced by
``_pcg64`` so that no run loads ``numpy.random``: a seed gives the same draws
as NumPy's generator. The draws do not depend on the decisions, so they are
made, and turned into noise, a block of steps at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pcg64 import Stream
from .core import Box, ConfigurationError, CostModel, NoiseSequence
from .risk import _check_alpha, cvar_of_values
from .schedule import _check_batch_size, _check_counts, _check_rates, batch_epoch
from .smoothing import directions, gradient_estimate

__all__ = ["LearnerConfig", "Trace", "run_trials"]


@dataclass(frozen=True, eq=False)
class LearnerConfig:
    """Inputs of a learning run, shared by all of its trials.

    ``counts`` and ``rates`` are the schedule's per-epoch columns, entry
    ``tau - 1`` the sample count and learning rate of epoch ``tau``; their
    common length is the batch size. They are held as read-only copies.
    """

    delta: float
    alpha: float
    counts: np.ndarray
    rates: np.ndarray
    x0: float

    def __post_init__(self):
        object.__setattr__(self, "x0", float(self.x0))
        if not math.isfinite(self.x0):
            raise ConfigurationError(f"initial decision x0={self.x0} must be finite")
        counts, rates = _check_counts(self.counts), _check_rates(self.rates)
        if counts.ndim != 1 or counts.shape != rates.shape:
            raise ConfigurationError(
                "schedule columns must be one-dimensional and of one length, got "
                f"{counts.shape} sample counts and {rates.shape} learning rates")
        _check_batch_size(counts.size)
        counts.flags.writeable = rates.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "rates", rates)
        _check_alpha(self.alpha)
        if not self.delta > 0.0:
            raise ConfigurationError(
                f"smoothing radius delta={self.delta} must be positive")


@dataclass(frozen=True)
class Trace:
    """Columns of a lockstep run, one array per field.

    Schedule columns are per step, ``(T,)``; trajectory columns are
    ``(trials, T)``.
    """

    t: np.ndarray              # (T,) step index, from 1
    batch: np.ndarray          # (T,) batch index j
    epoch: np.ndarray          # (T,) within-batch epoch tau
    n_samples: np.ndarray      # (T,) cost queries per step
    eta: np.ndarray            # (T,) learning rate
    x: np.ndarray              # (trials, T) decision before perturbation
    u: np.ndarray              # (trials, T) direction, +1 or -1
    x_hat: np.ndarray          # (trials, T) played (perturbed) action
    cvar_estimate: np.ndarray  # (trials, T)
    gradient: np.ndarray       # (trials, T)


#: Values, direction uniforms included, in a block of steps (at least one
#: step) drawn and turned into noise at once: a cap keeps peak memory flat.
_BLOCK = 2 ** 16


def _draws(rngs, n_samples: np.ndarray, noise: NoiseSequence):
    """Each step's directions ``(trials,)`` and noise values ``(trials, n_t)``.

    Every generator yields, per step, its direction (``directions`` of one
    uniform) and then its ``n_t`` uniforms, so a trial's block is one draw of
    ``sum(1 + n_t)`` uniforms, split at the step boundaries: the values are
    the same as drawn step by step. Each block's noise uniforms are gathered
    C-ordered and become noise in one ``noise.quantile`` call.
    """
    sizes = len(rngs) * (1 + n_samples)
    cuts = np.flatnonzero(np.diff((np.cumsum(sizes) - sizes) // _BLOCK)) + 1
    for steps in np.split(np.arange(n_samples.size), cuts):
        n = n_samples[steps]
        heads = np.cumsum(1 + n) - 1 - n
        stream = np.stack([rng.random(heads[-1] + 1 + n[-1]) for rng in rngs])
        u = directions(stream[:, heads])
        noise_cols = np.ones(stream.shape[1], dtype=bool)
        noise_cols[heads] = False
        q = np.compress(noise_cols, stream, axis=1)
        xi = np.asarray(noise.quantile(np.repeat(steps + 1, n), q), dtype=float)
        yield from zip(u.T, np.split(xi, np.cumsum(n)[:-1], axis=1))


def _schedule(config: LearnerConfig, horizon: int):
    """The columns ``t``, ``batch``, ``epoch``, ``n_samples`` and ``eta`` of
    steps ``1..horizon``: the per-epoch columns indexed by each step's epoch."""
    t = np.arange(1, horizon + 1)
    batch, epoch = batch_epoch(t, config.counts.size)
    return t, batch, epoch, config.counts[epoch - 1], config.rates[epoch - 1]


def run_trials(config: LearnerConfig, cost: CostModel, noise: NoiseSequence,
               region: Box, seeds) -> Trace:
    """Run every step of ``noise`` for every seed in lockstep; return the trace.

    Trial ``i`` draws from its own generator, NumPy's
    ``default_rng(seeds[i])`` stream (``_pcg64.Stream``), in a fixed order:
    each step's direction first, then its noise uniforms. A trial's columns
    therefore do not depend on the seeds run beside it. A seed that is not a
    non-negative integer is a ``ConfigurationError``.
    """
    inner = region.shrink(config.delta)
    horizon, trials = noise.horizon, len(seeds)
    if not trials:
        raise ConfigurationError("a run needs at least one seed")
    # NumPy refuses columns beyond the address space before any stream is seeded.
    xs, us, x_hats, grads, cvars = (np.empty((trials, horizon)) for _ in range(5))
    rngs = [Stream(seed) for seed in seeds]
    t, batch, epoch, n_samples, eta = _schedule(config, horizon)
    x = np.full(trials, inner.project(config.x0))
    for s, (u, xi) in enumerate(_draws(rngs, n_samples, noise)):
        x_hat = x + config.delta * u
        if not region.contains(x_hat):
            raise RuntimeError(
                f"feasibility violated at t={t[s]}: a played action left the "
                f"admissible set: {x_hat}")
        step_costs = cost.rows(x_hat, xi)
        if not np.isfinite(step_costs).all():
            raise ConfigurationError(
                f"cost model returned non-finite values at t={t[s]}, x={x_hat}")
        cvar = cvar_of_values(step_costs, config.alpha)
        grad = gradient_estimate(cvar, u, config.delta)
        xs[:, s], us[:, s], x_hats[:, s], grads[:, s] = x, u, x_hat, grad
        cvars[:, s] = cvar
        x = inner.project(x - eta[s] * grad)
    return Trace(t=t, batch=batch, epoch=epoch, n_samples=n_samples, eta=eta,
                 x=xs, u=us, x_hat=x_hats, cvar_estimate=cvars, gradient=grads)

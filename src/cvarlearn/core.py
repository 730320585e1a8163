"""Geometry and problem-definition primitives.

Decision vectors are plain 1-D numpy arrays. Admissible sets are axis-aligned
boxes or Euclidean balls with exact projections, an inradius/diameter, and a
centered shrink operation that keeps sphere-perturbed actions feasible. Cost
models bundle an evaluation rule with its declared bound, Lipschitz constant,
and strong-convexity modulus. Noise sequences expose a per-step CDF, quantile
function, support and step W1. ``fork_map`` and ``fork_ranges`` split a
phase of independent work across the usable CPUs (not exported).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "ConfigurationError",
    "as_vector",
    "Box",
    "Ball",
    "AdmissibleSet",
    "CostModel",
    "NoiseSequence",
]

#: Absolute tolerance for set-membership tests (double precision, unit scale).
MEMBERSHIP_TOL = 1e-12


class ConfigurationError(ValueError):
    """Invalid parameter or incompatible problem setup."""


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float array of dimension >= 1."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size < 1:
        raise ConfigurationError(f"decision vector must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigurationError("decision vector has non-finite coordinates")
    return v


def _as_points(x) -> np.ndarray:
    """``x`` as one finite decision ``(d,)`` or a stack of them ``(n, d)``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 2:
        return as_vector(v)
    if not np.isfinite(v).all():
        raise ConfigurationError("decision vector has non-finite coordinates")
    return v


def _check_dim(x: np.ndarray, dim: int) -> None:
    if x.shape[-1] != dim:
        raise ConfigurationError(
            f"dimension mismatch: point is {x.shape[-1]}-D, set is {dim}-D"
        )


def _frozen_array(obj, field: str, value) -> None:
    arr = np.asarray(value, dtype=float)
    arr.flags.writeable = False
    object.__setattr__(obj, field, arr)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``{x : lower <= x <= upper}``.

    The inradius is the smallest half-width, the diameter is the Euclidean
    length of the main diagonal, and the center is the midpoint (which is
    also the Chebyshev center).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigurationError("box bounds must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ConfigurationError("box bounds must be finite")
        if not np.all(lo < hi):
            raise ConfigurationError("box requires lower < upper in every coordinate")
        _frozen_array(self, "lower", lo)
        _frozen_array(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def inradius(self) -> float:
        return float(0.5 * np.min(self.upper - self.lower))

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def project(self, x) -> np.ndarray:
        """Nearest point of the box to ``x``, or to each row of ``x``."""
        x = _as_points(x)
        _check_dim(x, self.dim)
        return np.clip(x, self.lower, self.upper)

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        """Whether ``x``, or every row of ``x``, lies in the box."""
        x = _as_points(x)
        if x.shape[-1] != self.dim:
            return False
        return bool((x >= self.lower - tol).all() and (x <= self.upper + tol).all())

    def shrink(self, delta: float) -> "Box":
        """Contract the box about its center by the factor ``1 - delta/inradius``.

        Every point of the shrunk set stays feasible in the original set
        after an arbitrary perturbation of Euclidean length ``delta``. The
        contraction is performed about the set's own center, so it is
        coordinate-frame-free and works for sets that do not contain the
        origin.
        """
        factor = _shrink_factor(self, delta)
        half = 0.5 * (self.upper - self.lower) * factor
        c = self.center
        return Box(c - half, c + half)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball with given center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ConfigurationError("ball center must be a finite 1-D array")
        r = float(self.radius)
        if not (np.isfinite(r) and r > 0):
            raise ConfigurationError("ball radius must be positive")
        _frozen_array(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def inradius(self) -> float:
        return self.radius

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def project(self, x) -> np.ndarray:
        """Nearest point of the ball to ``x``, or to each row of ``x``."""
        x = _as_points(x)
        _check_dim(x, self.dim)
        offset = x - self.center
        dist = np.linalg.norm(offset, axis=-1, keepdims=True)
        # ulp-scale slack keeps the projection exactly idempotent: a point just
        # rescaled onto the sphere may re-measure a few ulps outside it.
        inside = dist <= self.radius * (1.0 + 1e-14)
        return np.where(inside, x, self.center
                        + offset * (self.radius / np.where(inside, 1.0, dist)))

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        """Whether ``x``, or every row of ``x``, lies in the ball."""
        x = _as_points(x)
        if x.shape[-1] != self.dim:
            return False
        dist = np.linalg.norm(x - self.center, axis=-1)
        return bool((dist <= self.radius + tol).all())

    def shrink(self, delta: float) -> "Ball":
        """Contract the ball about its center by the factor
        ``1 - delta/inradius``; feasible under perturbations of length
        ``delta``, as for ``Box.shrink``."""
        factor = _shrink_factor(self, delta)
        return Ball(self.center, self.radius * factor)


AdmissibleSet = Union[Box, Ball]


def _shrink_factor(region: AdmissibleSet, delta: float) -> float:
    delta = float(delta)
    r = region.inradius
    if not (0.0 <= delta < r):
        raise ConfigurationError(
            f"smoothing radius {delta} must satisfy 0 <= delta < inradius {r}"
        )
    return 1.0 - delta / r


@dataclass(frozen=True)
class CostModel:
    """Random cost ``J(x, xi)`` with declared regularity metadata.

    ``J(., xi)`` must be convex in the decision for every noise value: the
    learner's guarantees and the oracle's search over the action grid both
    rely on it.

    Parameters
    ----------
    fn:
        Evaluation rule. Must accept a decision (1-D array or scalar) and a
        scalar or 1-D array of noise values, broadcasting over the noise.
        When ``vectorized`` is true, ``fn`` is additionally expected to obey
        full numpy broadcasting in both arguments (used to batch grid
        evaluations); this holds for any formula built from ufuncs.
    bound:
        Uniform bound ``U`` on ``|J|`` over the admissible set and the
        declared noise support.
    lipschitz:
        Lipschitz constant ``L0`` of ``J`` in the decision.
    strong_convexity:
        Strong-convexity modulus ``m`` in the decision; 0 if merely convex.
    """

    fn: Callable[..., np.ndarray]
    bound: float
    lipschitz: float
    strong_convexity: float = 0.0
    vectorized: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.bound) and self.bound > 0):
            raise ConfigurationError("cost bound U must be positive and finite")
        if not (np.isfinite(self.lipschitz) and self.lipschitz > 0):
            raise ConfigurationError("Lipschitz constant L0 must be positive and finite")
        if self.strong_convexity < 0:
            raise ConfigurationError("strong-convexity modulus must be >= 0")

    def __call__(self, x, xi):
        return self.fn(x, xi)

    def rows(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """``J(x[r], xi[r])`` for every row ``r``, as an array ``(rows, n)``.

        ``x`` holds one decision per row, ``(rows, d)``; ``xi`` holds one row
        of ``n`` noise values per decision, or a single row ``(1, n)`` shared
        by all. A vectorized cost of 1-D decisions is evaluated in one
        broadcast call, any other cost once per row.
        """
        shape = (x.shape[0], xi.shape[-1])
        if self.vectorized and x.shape[1] == 1:
            values = np.asarray(self(x, xi), dtype=float)
        else:
            values = np.array([np.asarray(self(row, noise), dtype=float)
                               for row, noise in zip(x, np.broadcast_to(xi, shape))])
        if values.shape != shape:
            raise ConfigurationError(
                f"cost model returned shape {values.shape} for {shape[0]} "
                f"decision(s) with {shape[1]} noise value(s) each")
        return values


class NoiseSequence(ABC):
    """Time-indexed family of scalar noise distributions over ``t = 1..horizon``.

    Subclasses provide the per-step CDF, quantile function and support, and
    the closed-form W1 distance between consecutive steps. Callers draw
    ``xi_t`` by inverse transform, ``quantile(t, rng.random(n))``: one
    uniform per sample, whatever the distribution family.
    """

    horizon: int

    def __init__(self, horizon: int):
        horizon = int(horizon)
        if horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        self.horizon = horizon

    def _check_t(self, t):
        """``t`` as an int, or as an integer array of steps, each in range."""
        t = int(t) if np.ndim(t) == 0 else np.asarray(t)
        outside = np.ravel(t)[np.ravel((t < 1) | (t > self.horizon))]
        if outside.size:
            raise ConfigurationError(
                f"step {outside[0]} outside horizon [1, {self.horizon}]")
        return t

    @abstractmethod
    def cdf(self, t: int, y):
        """P(xi_t <= y); vectorized in ``y``."""

    @abstractmethod
    def quantile(self, t, q):
        """Generalized inverse of the CDF at levels ``q`` in [0, 1]; ``t`` is a
        step or an integer array of steps, broadcast against ``q``."""

    @abstractmethod
    def support(self, t: int) -> tuple[float, float]:
        """Interval certainly containing the mass of xi_t."""

    @abstractmethod
    def step_w1(self, t: int) -> float:
        """W1 distance between the step ``t - 1`` and step ``t`` distributions."""


#: Least estimated serial work, in seconds, that ``fork_ranges`` splits:
#: importing ``multiprocessing`` and forking take about 30 ms, which stays
#: under a tenth of this.
_FORK_MIN_S = 0.3


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def fork_ranges(n: int, work_s: float) -> list[range]:
    """``range(n)`` cut into contiguous ranges, one per job of ``fork_map``.

    ``work_s`` estimates the serial seconds of the whole work. It is one
    range per usable CPU, at most ``n``; a single range where the work is
    below ``_FORK_MIN_S`` or the platform cannot fork.
    """
    jobs = 1
    if work_s >= _FORK_MIN_S and hasattr(os, "fork"):
        jobs = max(1, min(_usable_cpus(), n))
    return [range(n * j // jobs, n * (j + 1) // jobs) for j in range(jobs)]


def fork_map(fn: Callable, jobs: Sequence) -> list:
    """``[fn(job) for job in jobs]``, job 0 run here and every other job in a
    forked child at the same time.

    Children are forked, not spawned, so ``fn`` may be a closure over
    run-time state: lazy state built before the call is shared, not rebuilt.
    (Forking is safe here because the program starts no threads.)
    Each child sends its result back pickled. An exception raised in a child
    is raised here as it was raised there; a child that dies without a
    result raises ``RuntimeError``. Every child is reaped before this
    returns or raises, also when job 0 fails. With one job nothing forks and
    ``multiprocessing`` is not imported.
    """
    if len(jobs) == 1:
        return [fn(jobs[0])]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for job in jobs[1:]:
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=_send_result, args=(fn, job, writer))
            child.start()
            writer.close()
            children.append((child, reader))
        first = fn(jobs[0])
    finally:
        outcomes = [_reap(child, reader) for child, reader in children]
    for ok, value in outcomes:
        if not ok:
            raise value
    return [first, *(value for _, value in outcomes)]


def _send_result(fn: Callable, job, writer) -> None:
    """Body of a forked child: send ``(True, fn(job))`` or ``(False, error)``."""
    try:
        outcome = (True, fn(job))
    except Exception as exc:  # noqa: BLE001 - re-raised in the parent
        outcome = (False, exc)
    writer.send(outcome)


def _reap(child, reader) -> tuple[bool, object]:
    """The outcome a child sent, read before it is joined (a child blocks
    until its result is read)."""
    with reader:
        try:
            outcome = reader.recv()
        except EOFError:
            outcome = None
    child.join()
    if outcome is None:
        return False, RuntimeError(
            f"forked worker exited with code {child.exitcode} before "
            "returning its result")
    return outcome

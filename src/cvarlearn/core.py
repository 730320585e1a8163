"""Geometry and problem-definition primitives.

A decision is one float, and the admissible set is a closed interval with an
exact projection, an inradius, and a centered shrink operation that keeps
perturbed actions feasible. Cost models bundle an evaluation rule with
its declared bound, Lipschitz constant, and strong-convexity modulus; the
oracle's passes need the rule to be a ``Quadratic``. A noise
sequence is a location-scale table plus the ``Family`` of its standard
variable; its per-step CDF, quantile, support and step W1 read the table.
``fork_map`` and ``fork_ranges`` split a phase of independent work across
forked children, one per usable CPU, that send arrays back as raw buffers;
``_as_int`` is the one integer rule of every count and step argument.
"""

from __future__ import annotations

import math
import os
import pickle
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConfigurationError",
    "Box",
    "CostModel",
    "Family",
    "NoiseSequence",
    "Quadratic",
]

#: Absolute tolerance for set-membership tests (double precision, unit scale).
MEMBERSHIP_TOL = 1e-12


class ConfigurationError(ValueError):
    """Invalid parameter or incompatible problem setup."""


def _as_int(value, name: str = "value") -> int:
    """``value`` as an int, also from ``"6e3"`` or ``6000.0``; a fractional or
    non-finite value of any numeric type is a ``ConfigurationError``, never truncated."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if not -math.inf < value < math.inf or int(value) != value:  # nan fails too
        raise ConfigurationError(f"{name} {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class Box:
    """Closed interval ``{x : lower <= x <= upper}`` of decisions.

    The inradius is the half-width and the center is the midpoint.
    ``project`` and ``contains`` take one decision or an array of them.
    """

    lower: float
    upper: float

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ConfigurationError("box bounds must be finite")
        if not lo < hi:
            raise ConfigurationError("box requires lower < upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def center(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def inradius(self) -> float:
        return 0.5 * (self.upper - self.lower)

    def project(self, x):
        """Nearest point of the interval to ``x``, or to each entry of ``x``."""
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def contains(self, x) -> bool:
        """Whether ``x``, or every entry of ``x``, lies in the interval."""
        x, tol = np.asarray(x), MEMBERSHIP_TOL
        return bool(((x >= self.lower - tol) & (x <= self.upper + tol)).all())

    def shrink(self, delta: float) -> "Box":
        """Contract the interval about its center by the factor
        ``1 - delta/inradius``.

        Every point of the shrunk interval stays feasible in the original
        after a perturbation of length ``delta``.
        """
        delta, r = float(delta), self.inradius
        if not (0.0 <= delta < r):
            raise ConfigurationError(
                f"smoothing radius {delta} must satisfy 0 <= delta < inradius {r}")
        half, c = r * (1.0 - delta / r), self.center
        return Box(c - half, c + half)


@dataclass(frozen=True)
class Quadratic:
    """The cost ``J(x, xi) = (xi + slope * x - level)^2 + weight * x^2``, a
    ``CostModel`` evaluation rule when called. ``into`` evaluates rows in
    place; both finish through ``_finish``, so their bits are the same.
    Every field is finite and the weight is >= 0, so J is convex in
    ``(x, xi)``: its Hessian's determinant is ``4 * weight``."""

    slope: float
    level: float = 0.0
    weight: float = 0.0

    def __post_init__(self):
        if not (np.isfinite([self.slope, self.level, self.weight]).all()
                and self.weight >= 0):
            raise ConfigurationError(f"{self}: every field must be finite, the weight >= 0")

    def model(self, region: Box, xi_bounds: tuple[float, float]) -> "CostModel":
        """This rule as a ``CostModel`` over ``region`` for noise in the
        interval ``xi_bounds``. ``|J|`` and ``|dJ/dx| = |2 slope (xi + slope x
        - level) + 2 weight x|`` are convex in ``(x, xi)``, so U and L0, their
        largest values on ``region`` times the interval, are taken at its four
        corners; m is ``d2J/dx2 = 2 slope^2 + 2 weight``."""
        corners = [(x, xi) for x in (region.lower, region.upper) for xi in xi_bounds]
        bound = max(abs(float(self(x, xi))) for x, xi in corners)
        lipschitz = max(abs(2.0 * self.slope * (xi + self.slope * x - self.level)
                            + 2.0 * self.weight * x) for x, xi in corners)
        return CostModel(fn=self, bound=bound, lipschitz=lipschitz,
                         strong_convexity=2.0 * self.slope ** 2 + 2.0 * self.weight)

    def __call__(self, x, xi):
        x = np.asarray(x, dtype=float)
        return self._finish(x, np.asarray(np.asarray(xi, dtype=float) + self.slope * x))

    def into(self, x: np.ndarray, rows: np.ndarray) -> None:
        """Replace the noise values of row ``rows[r]`` by their costs at ``x[r]``."""
        rows += (self.slope * x)[:, None]
        self._finish(x[:, None], rows)

    def _finish(self, x: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Turn ``values``, holding ``xi + slope * x``, into the costs in place."""
        values -= self.level
        np.square(values, out=values)
        if self.weight:
            values += self.weight * x ** 2
        return values


@dataclass(frozen=True)
class CostModel:
    """Random cost ``J(x, xi)`` with declared regularity metadata.

    ``J(., xi)`` must be convex in the decision for every noise value: the
    learner's guarantees rely on it.

    Parameters
    ----------
    fn:
        Evaluation rule. Must obey numpy broadcasting in both the decisions
        and the noise values, as any formula built from ufuncs does. The
        oracle's two passes need a ``Quadratic`` rule.
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

        ``x`` holds one decision per row, ``(rows,)``; ``xi`` holds one row
        of ``n`` noise values per decision, or a single row ``(1, n)`` shared
        by all. The cost is evaluated in one broadcast call.
        """
        shape = (x.shape[0], xi.shape[-1])
        values = np.asarray(self(x[:, None], xi), dtype=float)
        if values.shape != shape:
            raise ConfigurationError(
                f"cost model returned shape {values.shape} for {shape[0]} "
                f"decision(s) with {shape[1]} noise value(s) each")
        return values


@dataclass(frozen=True)
class Family:
    """The standard variable ``Z`` of a location-scale family: its quantile
    and CDF (vectorized), an interval holding its mass (truncated where
    unbounded), and ``w1(loc1, scale1, loc2, scale2)``, the W1 distance
    between ``loc1 + scale1 Z`` and ``loc2 + scale2 Z`` over broadcast arrays."""

    quantile: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    w1: Callable[..., np.ndarray]


class NoiseSequence:
    """Scalar noise over steps ``t = 1..horizon``: ``xi_t = loc_t + scale_t Z``.

    ``table`` is a read-only ``(horizon, 2)`` array whose row ``t - 1`` is
    step ``t``'s location and scale (a zero scale is a point mass), and
    ``family`` holds ``Z``. Callers draw ``xi_t`` by inverse transform,
    ``quantile(t, rng.random(n))``: one uniform per sample, whatever the
    family. Where a method takes a step ``t``, an integer array of steps
    broadcasts against its values.
    """

    def __init__(self, table, family: Family):
        table = np.array(table, dtype=float)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] != 2:
            raise ConfigurationError(
                f"noise table must have shape (T >= 1, 2), got {table.shape}")
        bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
        if bad.size:
            raise ConfigurationError(f"non-finite location or scale at t={bad[0] + 1}")
        bad = np.flatnonzero(table[:, 1] < 0)
        if bad.size:
            raise ConfigurationError(f"negative scale {table[bad[0], 1]} at t={bad[0] + 1}")
        table.flags.writeable = False
        self.table, self.family, self.horizon = table, family, len(table)

    def _check_t(self, t):
        """``t`` as an int, or as an integer array of steps, each in range;
        a step with a fractional part is rejected, never truncated."""
        steps = np.asarray(t)
        flat = steps.ravel()
        if steps.dtype.kind == "f":
            fractional = flat[flat != np.trunc(flat)]
            if fractional.size:
                raise ConfigurationError(f"step {fractional[0]} is not an integer")
        outside = flat[(flat < 1) | (flat > self.horizon)]
        if outside.size:
            raise ConfigurationError(
                f"step {outside[0]} outside horizon [1, {self.horizon}]")
        return int(steps) if steps.ndim == 0 else steps.astype(int, copy=False)

    def _columns(self, t):
        t = self._check_t(t) - 1
        return self.table[t, 0], self.table[t, 1]

    def place(self, t, z):
        """``loc_t + z * scale_t``: standard values ``z`` placed at step ``t``."""
        loc, scale = self._columns(t)
        out = loc + np.asarray(z, dtype=float) * scale
        return float(out) if out.ndim == 0 else out

    def quantile(self, t, q):
        """Generalized inverse of the CDF at levels ``q`` in [0, 1]."""
        return self.place(t, self.family.quantile(q))

    def cdf(self, t, y):
        """P(xi_t <= y); a point-mass step is a step function at its location."""
        loc, scale = self._columns(t)
        y = np.asarray(y, dtype=float)
        spread = scale > 0
        z = (y - loc) / np.where(spread, scale, 1.0)
        out = np.where(spread, self.family.cdf(z), y >= loc)
        return float(out) if out.ndim == 0 else out

    def support(self, t):
        """Interval certainly containing the mass of xi_t, each end shaped
        as ``t``."""
        lo, hi = self.family.support
        return self.place(t, lo), self.place(t, hi)

    def step_w1(self, t):
        """W1 distance between the step ``t - 1`` and step ``t`` distributions."""
        t = self._check_t(t)
        return self.family.w1(*self._columns(t - 1), *self._columns(t))


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def fork_ranges(n: int) -> list[range]:
    """``range(n)`` cut into contiguous ranges, one per job of ``fork_map``:
    one range per usable CPU, at most ``n``; a single range on one CPU or
    where the platform cannot fork."""
    jobs = max(1, min(_usable_cpus(), n)) if hasattr(os, "fork") else 1
    return [range(n * j // jobs, n * (j + 1) // jobs) for j in range(jobs)]


def fork_map(fn: Callable, jobs: Sequence) -> list:
    """``[fn(job) for job in jobs]``, job 0 run here and every other job in a
    forked child at the same time.

    Children are forked, not spawned, so ``fn`` may be a closure over
    run-time state: lazy state built before the call is shared, not rebuilt.
    (Forking is safe here because the program starts no threads.)
    Each child sends its result back over a pipe, its arrays as raw buffers,
    and exits without flushing what it inherited. An exception raised in a
    child is raised here as it was raised there; a child that dies without a
    result raises ``RuntimeError``. Every child is reaped, and every pipe
    closed, before this returns or raises, also when job 0 fails or a fork
    does. With one job nothing forks.
    """
    if len(jobs) == 1:
        return [fn(jobs[0])]
    children = []
    try:
        for job in jobs[1:]:
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except BaseException:  # EAGAIN at a process limit, say: no child owns it
                os.close(reader)
                os.close(writer)
                raise
            if pid == 0:
                _child(fn, job, writer)
            os.close(writer)
            children.append((pid, reader))
        first = fn(jobs[0])
    finally:
        outcomes = [_reap(pid, reader) for pid, reader in children]
    for ok, value in outcomes:
        if not ok:
            raise value
    return [first, *(value for _, value in outcomes)]


def _child(fn: Callable, job, writer: int) -> None:
    """Body of a forked child, which exits at its end: ``(True, fn(job))`` or
    ``(False, error)`` to ``writer``, its buffers' sizes, raw bytes and pickle."""
    try:
        try:
            outcome = (True, fn(job))
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            outcome = (False, exc)
        raws = []  # each buffer's bytes, read in place from its array
        head = pickle.dumps(outcome, 5, buffer_callback=lambda b: raws.append(b.raw()))
        with open(writer, "wb") as pipe:  # writes beyond its buffer go straight out
            pickle.dump([raw.nbytes for raw in raws], pipe)
            pipe.writelines([*raws, head])
        os._exit(0)
    except BaseException:  # an unpicklable result, say: the parent sees only the code
        traceback.print_exc()
    finally:
        os._exit(1)  # nothing returns into the caller's stack


def _reap(pid: int, reader: int) -> tuple[bool, object]:
    """The outcome a child sent, read whole before the child is waited for
    (a child blocks until its result is read)."""
    try:
        with open(reader, "rb") as pipe:  # reads beyond its buffer go straight in
            buffers = [np.empty(size, np.uint8) for size in pickle.load(pipe)]
            if sum(map(pipe.readinto, buffers)) < sum(b.size for b in buffers):
                raise EOFError
            outcome = pickle.load(pipe, buffers=buffers)
    except (EOFError, pickle.UnpicklingError):  # the pipe ended early
        outcome = None
    except Exception as exc:  # noqa: BLE001 - a result that cannot be rebuilt here
        outcome = (False, exc)
    finally:
        status = os.waitpid(pid, 0)[1]
    if outcome is None:
        return False, RuntimeError(
            f"forked worker exited with code {os.waitstatus_to_exitcode(status)} "
            "before returning its result")
    return outcome

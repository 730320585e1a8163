"""Empirical distribution functions and discrete CVaR.

CVaR here always means the mean of the worst ``alpha``-fraction of outcomes
(the tail-average convention realized by the Rockafellar-Uryasev functional);
at ``alpha = 1`` it coincides with the plain mean. All operations are exact on
finite sample multisets, including fractional tail weights when
``alpha * n`` is not an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, _as_int

__all__ = [
    "EmpiricalCdf",
    "build_ecdf",
    "empirical_quantile",
    "cvar_of_values",
    "cvar_discrete",
    "ru_functional",
    "sup_cdf_distance",
    "dkw_epsilon",
    "cvar_error_bound",
]


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted sample multiset representing a step-function CDF."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ConfigurationError("empirical CDF needs at least one sample")
        if not np.all(np.isfinite(s)):
            raise ConfigurationError("empirical CDF samples must be finite")
        if np.any(np.diff(s) < 0):
            s = np.sort(s)
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    @property
    def n(self) -> int:
        return self.samples.size

    def evaluate(self, y):
        """Fraction of samples <= y (right-continuous); vectorized in ``y``."""
        return np.searchsorted(self.samples, y, side="right") / self.n

    def evaluate_below(self, y):
        """Left limit F(y-): fraction of samples strictly below y."""
        return np.searchsorted(self.samples, y, side="left") / self.n


def build_ecdf(values) -> EmpiricalCdf:
    """Build the empirical distribution function of ``values`` (multiset,
    duplicates retained, input order irrelevant)."""
    return EmpiricalCdf(np.ravel(values))


def empirical_quantile(ecdf: EmpiricalCdf, q: float) -> float:
    """Generalized inverse ``inf{y : F(y) >= q}``; the minimum sample for q <= 0."""
    if not q <= 1.0:  # nan fails too
        raise ConfigurationError(f"quantile level {q} outside [0, 1]")
    rank = max(1, math.ceil(max(q, 0.0) * ecdf.n))
    return float(ecdf.samples[rank - 1])


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(f"risk level alpha={alpha} must lie in (0, 1]")
    return alpha


def cvar_of_values(values, alpha: float):
    """Exact top-``alpha``-fraction tail mean of raw values.

    Accepts a 1-D array or a 2-D array of rows (one CVaR per row, reduced
    along the last axis). With samples sorted descending and
    ``k = ceil(alpha * n)``, the value is
    ``(sum of the k-1 largest + (alpha*n - k + 1) * k-th largest) / (alpha*n)``,
    which is the unique minimum of the Rockafellar-Uryasev functional.
    Rows are read row-major: the bits depend on the values, not their
    strides, for one NumPy build at one SIMD level. The tail is summed in the
    order that ``ndarray.partition``, whose kernel NumPy picks by CPU, leaves
    it: rows of 128 to 2,000 values differ with AVX-512 dispatch off (numpy 2.4).
    """
    alpha = _check_alpha(alpha)
    v = np.array(values, dtype=float, order="C")
    if v.ndim == 0:
        raise ConfigurationError("CVaR needs a 1-D or 2-D array of values")
    if v.shape[-1] == 0:
        raise ConfigurationError("CVaR of an empty sample is undefined")
    out = _tail_means(v, alpha)
    return float(out) if out.ndim == 0 else out


def _tail_means(rows: np.ndarray, alpha: float) -> np.ndarray:
    """``cvar_of_values`` of the C-ordered float ``rows``, which it
    partitions in place: the arrangement, and so the bits of the tail sum,
    are those of ``np.partition``'s C-ordered copy."""
    n = rows.shape[-1]
    an = alpha * n
    k = min(n, math.ceil(an))
    rows.partition(n - k, axis=-1)
    kth = rows[..., n - k]
    top = rows[..., n - k + 1 :].sum(axis=-1)
    return (top + (an - (k - 1)) * kth) / an


def cvar_discrete(ecdf: EmpiricalCdf, alpha: float) -> float:
    """CVaR at level ``alpha`` of an empirical distribution."""
    return float(cvar_of_values(ecdf.samples, alpha))


def ru_functional(ecdf: EmpiricalCdf, alpha: float, v: float) -> float:
    """Augmented objective ``v + mean((J - v)_+) / alpha`` whose minimum over
    ``v`` equals the CVaR."""
    alpha = _check_alpha(alpha)
    excess = np.maximum(ecdf.samples - v, 0.0)
    return float(v + excess.mean() / alpha)


def sup_cdf_distance(f: EmpiricalCdf, g: EmpiricalCdf) -> float:
    """Exact Kolmogorov distance ``sup_y |F(y) - G(y)|`` between two empirical
    CDFs, evaluated at every jump point and just below it."""
    pts = np.union1d(f.samples, g.samples)
    at = np.abs(f.evaluate(pts) - g.evaluate(pts)).max()
    below = np.abs(f.evaluate_below(pts) - g.evaluate_below(pts)).max()
    return float(max(at, below))


def dkw_epsilon(n: int, gamma_bar: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius ``sqrt(ln(2/gamma_bar) / (2n))``.

    With n i.i.d. samples, the empirical CDF stays within this sup-norm radius
    of the truth with probability at least ``1 - gamma_bar``.
    """
    n = _as_int(n, "sample count")
    if n < 1:
        raise ConfigurationError("sample count must be >= 1")
    gamma_bar = float(gamma_bar)
    if not 0.0 < gamma_bar <= 2.0:
        raise ConfigurationError(f"confidence parameter {gamma_bar} outside (0, 2]")
    return math.sqrt(math.log(2.0 / gamma_bar) / (2.0 * n))


def cvar_error_bound(bound: float, alpha: float, kolmogorov: float) -> float:
    """CVaR perturbation bound ``(U / alpha) * sup|F - G|`` for costs bounded
    by ``U``."""
    alpha = _check_alpha(alpha)
    if not 0 < bound < math.inf:
        raise ConfigurationError(f"bound U={bound} must be positive and finite")
    if not 0.0 <= kolmogorov <= 1.0:
        raise ConfigurationError("Kolmogorov distance must lie in [0, 1]")
    return bound / alpha * kolmogorov

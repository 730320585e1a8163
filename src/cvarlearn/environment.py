"""Concrete non-stationary noise sequences and Wasserstein-1 accounting.

Both families are location-scale tables (``core.NoiseSequence``): uniform
bands, time-varying for the parking-lot pricing study and static for the
custom scenario, and Brownian-diffusion Gaussians, whose quantiles come from
a NumPy port of SciPy's ``ndtri``. Also closed-form Wasserstein-1 distances
for 1-D distributions (quadrature as the tests' reference) and the
variation budget: the sum of consecutive closed-form W1 distances over the
horizon. Sequences never log.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigurationError, Family, NoiseSequence, _as_int

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


_erf = np.frompyfunc(math.erf, 1, 1)
_erfc = np.frompyfunc(math.erfc, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)
_log = np.frompyfunc(math.log, 1, 1)

# Cephes ``ndtri`` as SciPy ships it: each polynomial's coefficients from the
# highest power down. Each Q is monic; its leading 1.0 is written out, and
# ``1.0 * x + c`` is ``p1evl``'s ``x + c`` to the bit.
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x, coef):
    """``coef[0] * x**n + ... + coef[n]``, in Cephes ``polevl``'s order."""
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _ndtri(y0):
    """Standard normal quantile at each level in (0, 1): SciPy's
    ``scipy.special.ndtri`` bit for bit, by the same Cephes operations.

    Levels within exp(-2) of 0 or 1 take the tail branch in ``1 / x``,
    ``x = sqrt(-2 log y)``; the rest a rational function of ``(y - 1/2)^2``.
    Each tail logarithm is ``math.log``, the C library's ``log`` that Cephes
    calls; NumPy's vectorized ``log`` can differ from it in the last bit.
    """
    y0 = np.asarray(y0, dtype=float)
    shape, y0 = y0.shape, y0.ravel()
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    # The central branch runs on every level, as whole-array work; its
    # denominator stays below -2e-4 on all of [0, 1], so no tail level
    # divides by zero before the tail branch overwrites it.
    c = y - 0.5
    c2 = c * c
    out = (c + c * (c2 * _horner(c2, _P0) / _horner(c2, _Q0))) * _S2PI
    tail = np.flatnonzero(~(y > _EXP_M2))
    x = np.sqrt(-2.0 * _log(y[tail]).astype(float))
    x0 = x - _log(x).astype(float) / x
    z = 1.0 / x
    x1 = z * _horner(z, _P1) / _horner(z, _Q1)
    far = np.flatnonzero(x >= 8.0)  # levels below exp(-32)
    x1[far] = z[far] * _horner(z[far], _P2) / _horner(z[far], _Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(shape)


def _w1_shifted_stretched(loc1, scale1, loc2, scale2):
    """W1 between ``loc1 + scale1 U`` and ``loc2 + scale2 U``, U uniform on
    [0, 1], over broadcast arrays: the integral over q in (0, 1) of
    ``|c0 + c1 q|``, ``c0`` the shift and ``c1`` the stretch, split in
    closed form at its root when one lies inside."""
    c0 = np.asarray(loc1, dtype=float) - loc2
    c1 = np.asarray(scale1, dtype=float) - scale2
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -c0 / c1
        split = 0.5 * (np.abs(c0) * root + np.abs(c0 + c1) * (1.0 - root))
    out = np.where(c1 == 0.0, np.abs(c0),
                   np.where((0.0 < root) & (root < 1.0), split,
                            np.abs(c0 + 0.5 * c1)))
    return float(out) if out.ndim == 0 else out


def w1_uniform(a1, b1, a2, b2):
    """Exact W1 distance between ``U[a1, b1]`` and ``U[a2, b2]``, elementwise
    over broadcast endpoint arrays (a float for scalar endpoints); point
    masses (equal endpoints) are allowed."""
    a1, b1, a2, b2 = (np.asarray(v, dtype=float) for v in (a1, b1, a2, b2))
    if (b1 < a1).any() or (b2 < a2).any():
        raise ConfigurationError("uniform endpoints must satisfy a <= b")
    return _w1_shifted_stretched(a1, b1 - a1, a2, b2 - a2)


def w1_gaussian(mu1, sigma1, mu2, sigma2):
    """Exact W1 distance between two 1-D Gaussians, elementwise over
    broadcast parameter arrays (a float for scalar parameters).

    Equals ``E|N(mu1 - mu2, (sigma1 - sigma2)^2)|`` (a folded-normal mean);
    reduces to ``|mu1 - mu2|`` when the scales agree. ``exp`` and ``erf``
    are ``math``'s, per value: NumPy has no ``erf``, and its ``exp`` can
    differ from the C library's in the last bit.
    """
    mu1, sigma1, mu2, sigma2 = (np.asarray(v, dtype=float)
                                for v in (mu1, sigma1, mu2, sigma2))
    if (sigma1 < 0).any() or (sigma2 < 0).any():
        raise ConfigurationError("Gaussian scales must be >= 0")
    dm = mu1 - mu2
    ds = np.abs(sigma1 - sigma2)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = dm / ds
        folded = (ds * math.sqrt(2.0 / math.pi)
                  * np.asarray(_exp(-0.5 * z * z), dtype=float)
                  + dm * np.asarray(_erf(z / math.sqrt(2.0)), dtype=float))
    out = np.where(ds == 0.0, np.abs(dm), folded)
    return float(out) if out.ndim == 0 else out


#: The standard uniform on [0, 1]: a step is ``U[loc, loc + scale]``.
UNIFORM = Family(quantile=lambda q: np.asarray(q, dtype=float),
                 cdf=lambda z: np.clip(z, 0.0, 1.0), support=(0.0, 1.0),
                 w1=_w1_shifted_stretched)

#: The standard normal: quantiles by ``_ndtri`` (SciPy's bits), the CDF by
#: ``math.erfc`` per value, the support truncated at +/-10 sigma. A step's
#: location is 0.0, and ``0.0 + z * scale`` is ``z * scale`` to the bit:
#: ``_ndtri`` gives -0.0 at no clipped level, and no ``z * scale``
#: underflows to -0.0 for a positive scale.
GAUSSIAN = Family(
    quantile=lambda q: _ndtri(np.clip(q, 1e-300, np.nextafter(1.0, 0.0))),
    cdf=lambda z: 0.5 * np.asarray(_erfc(-z / math.sqrt(2.0)), dtype=float),
    support=(-10.0, 10.0), w1=w1_gaussian)


def UniformSeq(lower, upper) -> NoiseSequence:
    """Per-step uniform distributions ``U[lower[t - 1], upper[t - 1]]``, each
    a table row ``(lower, upper - lower)``. Steps where ``upper <= lower``
    collapse to a point mass at ``lower`` (scale 0); this keeps sequences
    whose endpoint formulas momentarily cross well-defined without altering
    the base level."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if lower.ndim != 1 or lower.shape != upper.shape:
        raise ConfigurationError(
            "uniform endpoints must be 1-D arrays of one length, got shapes "
            f"{lower.shape} and {upper.shape}")
    bad = np.flatnonzero(~(np.isfinite(lower) & np.isfinite(upper)))
    if bad.size:
        raise ConfigurationError(f"non-finite uniform endpoints at t={bad[0] + 1}")
    scale = np.where(upper > lower, upper - lower, 0.0)
    return NoiseSequence(np.column_stack((lower, scale)), UNIFORM)


def BrownianSeq(horizon: int, diffusivity: float) -> NoiseSequence:
    """Centered Gaussians with variance ``2 * diffusivity * t``, each a
    table row ``(0.0, sqrt(2 * diffusivity * t))``. Models measurements of a
    diffusing particle cloud: the distribution flattens as ``t`` grows, and
    the variation budget scales like ``sqrt(T)``."""
    diffusivity = float(diffusivity)
    if not math.isfinite(diffusivity):
        raise ConfigurationError(f"diffusivity must be finite, got {diffusivity}")
    if diffusivity <= 0:
        raise ConfigurationError(f"diffusivity must be positive, got {diffusivity}")
    scale = np.sqrt(2.0 * diffusivity * np.arange(1, _as_int(horizon, "horizon") + 1))
    return NoiseSequence(np.column_stack((np.zeros_like(scale), scale)), GAUSSIAN)


def constant_uniform(horizon: int, lo: float, hi: float) -> NoiseSequence:
    """Static baseline: the same ``U[lo, hi]`` at every step."""
    horizon = _as_int(horizon, "horizon")
    if hi < lo:
        raise ConfigurationError(f"constant uniform needs lo <= hi, got {lo} > {hi}")
    return UniformSeq(np.full(horizon, lo), np.full(horizon, hi))


def parking_range(t: int, horizon: int) -> tuple[float, float]:
    """Raw endpoint formulas of the parking-lot uncertainty at step ``t``.

    Returns the branch values verbatim; for ``t <= 2`` the first branch is
    empty (right endpoint below left), which :func:`UniformSeq` repairs to a
    point mass.
    """
    t, horizon = _as_int(t, "step"), _as_int(horizon, "horizon")
    if not 1 <= t <= horizon:
        raise ConfigurationError(f"step {t} outside horizon [1, {horizon}]")
    if t < horizon / 2:
        return 0.85, 1.15 - 0.5 * t ** -0.5
    return 0.85 + 0.5 * t ** -0.1, 1.1


def parking_noise(horizon: int) -> NoiseSequence:
    """Time-varying uniform uncertainty of the parking-lot pricing study:
    ``parking_range`` at every step, each branch's formula in one loop over
    its steps. The powers are Python's ``**``; ``np.power`` gives other
    bits at about 5% of the steps."""
    steps = range(1, _as_int(horizon, "horizon") + 1)
    cut = (len(steps) - 1) // 2  # steps[:cut] are the steps t < horizon / 2
    early, late = steps[:cut], steps[cut:]
    return UniformSeq([0.85] * len(early) + [0.85 + 0.5 * t ** -0.1 for t in late],
                      [1.15 - 0.5 * t ** -0.5 for t in early] + [1.1] * len(late))


def w1_numeric(cdf1, cdf2, support: tuple[float, float], grid: int = 100_000) -> float:
    """Quadrature W1 via the 1-D identity ``integral of |F1 - F2|``.

    ``cdf1``/``cdf2`` are vectorized CDF accessors; ``support`` must be a
    finite interval containing (effectively) all mass of both distributions.
    The trapezoid rule is SciPy's ``trapezoid`` formula, operation for
    operation.
    """
    grid = _as_int(grid, "quadrature grid")
    if grid < 1000:
        raise ConfigurationError("quadrature grid must have >= 1000 points")
    lo, hi = float(support[0]), float(support[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigurationError(
            "numeric W1 needs a finite truncated support interval")
    y = np.linspace(lo, hi, grid)
    gap = np.abs(np.asarray(cdf1(y), dtype=float) - np.asarray(cdf2(y), dtype=float))
    return float(np.sum(np.diff(y) * (gap[1:] + gap[:-1]) / 2.0))


def variation_profile(noise: NoiseSequence) -> np.ndarray:
    """Per-step distances ``W1(D_{t-1}, D_t)`` for ``t = 2..T``, ``T`` the
    sequence's horizon, from its closed form."""
    if noise.horizon < 2:
        raise ConfigurationError("variation budget needs horizon >= 2")
    return np.asarray(noise.step_w1(np.arange(2, noise.horizon + 1)), dtype=float)


def variation_budget(noise: NoiseSequence) -> float:
    """Total distribution variation over the sequence (Assumption: budget
    known to the decision maker; the learner never estimates it online)."""
    return float(variation_profile(noise).sum())

"""Runtime property suites behind the ``verify`` CLI subcommand.

Each check re-tests one mathematical invariant with a fixed seed and returns
its results, so a corrupted build fails loudly at the command line without
needing the development test suite installed. The checks shared with the
acceptance tests are those tests' procedures (same seeds, draw order, sizes
and tolerances): acceptance 01-05 and 10 read their results from here.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import environment, harness, risk, smoothing
from .risk import build_ecdf, cvar_discrete

__all__ = ["CheckResult", "run_suites", "SUITES"]

_SEED = 20240617  # the checks that only ``verify`` runs


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite: str, name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(suite, name, bool(passed), detail)


def cvar_monotone_in_alpha() -> list[CheckResult]:
    rng = np.random.default_rng([_SEED, 0])
    worst = 0.0
    ok = True
    for _ in range(500):
        ecdf = build_ecdf(rng.uniform(-5.0, 5.0, size=int(rng.integers(1, 41))))
        a1, a2 = sorted(rng.uniform(0.02, 1.0, size=2))
        gap = cvar_discrete(ecdf, a1) - cvar_discrete(ecdf, a2)
        worst = min(worst, gap)
        ok &= gap >= -1e-12
    return [_result("risk", "cvar-monotone-in-alpha", ok, f"worst gap {worst:.3e}")]


def cvar_translation_and_scaling() -> list[CheckResult]:
    rng = np.random.default_rng([_SEED, 1])
    ok = True
    worst = 0.0
    for _ in range(200):
        s = rng.uniform(-5.0, 5.0, size=int(rng.integers(1, 41)))
        alpha = float(rng.uniform(0.05, 1.0))
        c = float(rng.uniform(-10, 10))
        lam = float(rng.uniform(0.1, 10))
        base = cvar_discrete(build_ecdf(s), alpha)
        shift = cvar_discrete(build_ecdf(s + c), alpha) - (base + c)
        scale = cvar_discrete(build_ecdf(lam * s), alpha) - lam * base
        worst = max(worst, abs(shift), abs(scale))
        ok &= abs(shift) <= 1e-12 and abs(scale) <= 1e-12
    return [_result("risk", "cvar-translation-and-scaling", ok,
                    f"worst deviation {worst:.3e}")]


def cvar_equals_ru_minimum() -> list[CheckResult]:
    """Acceptance 01: CVaR = RU minimum on a v-grid = RU at the VaR = tail mean."""
    rng = np.random.default_rng(101)
    levels = np.round(np.arange(1, 21) * 0.05, 2)
    worst_grid, worst_closed, worst_exact = 0.0, 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        samples = np.sort(rng.uniform(-5.0, 5.0, size=n))
        alpha = float(rng.choice(levels))
        ecdf = build_ecdf(samples)
        got = cvar_discrete(ecdf, alpha)
        # the RU functional on a v-grid, each point exact via suffix sums
        v = np.linspace(samples[0], samples[-1], 100_000)
        idx = np.searchsorted(samples, v, side="right")
        suffix = np.concatenate([np.cumsum(samples[::-1])[::-1], [0.0]])
        grid_min = float((v + (suffix[idx] - (n - idx) * v) / (alpha * n)).min())
        spacing = (samples[-1] - samples[0]) / (v.size - 1)
        # independent closed form: the fractional top-tail mean, exact summation
        an, k = alpha * n, math.ceil(alpha * n)
        closed = (math.fsum(samples[n - k + 1:]) + (an - k + 1.0) * samples[n - k]) / an
        var = risk.empirical_quantile(ecdf, 1.0 - alpha)
        worst_grid = max(worst_grid, abs(got - grid_min) - spacing / alpha)
        worst_closed = max(worst_closed, abs(got - closed))
        worst_exact = max(worst_exact, abs(got - risk.ru_functional(ecdf, alpha, var)))
    ok = max(worst_grid, worst_closed, worst_exact) <= 1e-12
    return [_result("risk", "cvar-equals-ru-minimum", ok,
                    f"grid excess {worst_grid:.2e}, closed-form gap {worst_closed:.2e}")]


def cvar_kolmogorov_bound() -> list[CheckResult]:
    """Acceptance 02: |CVaR_F - CVaR_G| <= (U / alpha) sup|F - G|."""
    rng = np.random.default_rng(102)
    worst = -np.inf
    for _ in range(1000):
        # U is the length of the value range (nonnegative bounded costs)
        bound = float(rng.uniform(0.5, 5.0))
        f = build_ecdf(rng.uniform(0.0, bound, size=int(rng.integers(1, 41))))
        g = build_ecdf(rng.uniform(0.0, bound, size=int(rng.integers(1, 41))))
        alpha = float(rng.uniform(0.05, 1.0))
        lhs = abs(cvar_discrete(f, alpha) - cvar_discrete(g, alpha))
        rhs = risk.cvar_error_bound(bound, alpha, risk.sup_cdf_distance(f, g))
        worst = max(worst, lhs - rhs)
    return [_result("risk", "cvar-kolmogorov-bound", worst <= 1e-12,
                    f"worst excess {worst:.2e}")]


def dkw_band_validity() -> list[CheckResult]:
    """Acceptance 04: the DKW band at 5% is violated at most 5% of the time."""
    rng = np.random.default_rng(0)
    reps, n = 2000, 100
    eps = risk.dkw_epsilon(n, 0.05)
    draws = np.sort(rng.random((reps, n)), axis=1)
    deviation = np.maximum(np.arange(1, n + 1) / n - draws,
                           draws - np.arange(n) / n).max(axis=1)
    freq = float(np.mean(deviation >= eps))
    return [_result("risk", "dkw-band-validity", freq <= 0.05,
                    f"violation frequency {freq:.4f} <= 0.05")]


def sphere_checks() -> list[CheckResult]:
    """The direction rule: both signs, symmetry, and the gradient-norm bound."""
    rng = np.random.default_rng(_SEED)
    u = smoothing.directions(rng.random(100_000))
    signs, drift = np.unique(u).tolist(), abs(float(u.mean()))
    ok = True
    for _ in range(200):
        delta = float(rng.uniform(0.01, 1.0))
        bound = float(rng.uniform(0.5, 5.0))
        cv = float(rng.uniform(-bound, bound))
        g = smoothing.gradient_estimate(cv, smoothing.directions(rng.random()), delta)
        ok &= abs(g) <= bound / delta + 1e-12
    return [_result("smoothing", "sphere-unit-norm", signs == [-1.0, 1.0],
                    f"directions drawn {signs}"),
            _result("smoothing", "sphere-symmetry", drift <= 0.02,
                    f"|mean direction| {drift:.4f} vs 0.02"),
            _result("smoothing", "gradient-norm-bound", ok, "|g| <= U/delta")]


def gradient_estimator_checks() -> list[CheckResult]:
    """Acceptance 05: the two-direction average is exact on a quadratic, and
    the one-point estimates average to the smoothed CVaR's gradient."""
    exact_ok = True
    delta = 0.25
    for x in np.arange(-2.0, 2.25, 0.25):
        # dyadic x and delta keep every float operation exact (zero tolerance)
        avg = 0.5 * sum(smoothing.gradient_estimate((x + delta * s) ** 2, s, delta)
                        for s in (1.0, -1.0))
        exact_ok &= avg == 2.0 * x

    scen = harness.build_scenario(harness.ExperimentConfig())
    rng = np.random.default_rng(105)
    t_step, x0, delta, alpha, n_per_draw, n_draws = 3000, 2.0, 0.05, 0.5, 8, 100_000
    # One row per draw: column 0 gives the direction and the rest are the
    # noise uniforms.
    draws = rng.random((n_draws, 1 + n_per_draw))
    u = smoothing.directions(draws[:, 0])
    xi = scen.noise.quantile(t_step, draws[:, 1:])
    cv = risk.cvar_of_values(scen.cost.rows(x0 + delta * u, xi), alpha)
    estimates = smoothing.gradient_estimate(cv, u, delta)
    stderr = estimates.std(ddof=1) / math.sqrt(n_draws)
    h = 1e-4
    fd = (smoothing.smoothed_cvar(scen.cost, scen.noise, t_step, x0 + h, delta,
                                  alpha, n_noise=20_000)
          - smoothing.smoothed_cvar(scen.cost, scen.noise, t_step, x0 - h, delta,
                                    alpha, n_noise=20_000)) / (2 * h)
    gap = abs(estimates.mean() - fd)
    return [_result("smoothing", "two-direction-quadratic-gradient", exact_ok,
                    "average == 2x at 17 dyadic points"),
            _result("smoothing", "estimator-matches-smoothed-gradient",
                    gap <= 3 * stderr,
                    f"stochastic gap {gap:.2e} vs 3*SE {3 * stderr:.2e}")]


def w1_checks() -> list[CheckResult]:
    """Acceptance 10: closed-form W1 of uniforms is a metric and = quadrature."""
    rng = np.random.default_rng(110)
    worst_gap, worst_triangle = 0.0, 0.0
    axioms_ok = True
    for _ in range(500):
        ivs = []
        for _ in range(3):
            a = float(rng.uniform(-3, 3))
            ivs.append((a, a + float(rng.uniform(0.01, 4.0))))
        i1, i2, i3 = ivs
        d12 = environment.w1_uniform(*i1, *i2)
        triangle = environment.w1_uniform(*i1, *i3) + environment.w1_uniform(*i3, *i2)
        axioms_ok &= d12 >= 0.0
        axioms_ok &= abs(d12 - environment.w1_uniform(*i2, *i1)) <= 1e-12
        axioms_ok &= environment.w1_uniform(*i1, *i1) <= 1e-12
        axioms_ok &= d12 <= triangle + 1e-10
        worst_triangle = max(worst_triangle, d12 - triangle)
        s1, s2 = (environment.constant_uniform(1, *iv) for iv in (i1, i2))
        support = (min(i1[0], i2[0]), max(i1[1], i2[1]))
        numeric = environment.w1_numeric(lambda y: s1.cdf(1, y),
                                         lambda y: s2.cdf(1, y),
                                         support, grid=200_000)
        worst_gap = max(worst_gap, abs(d12 - numeric))
    return [_result("environment", "w1-metric-axioms", axioms_ok,
                    f"worst triangle excess {worst_triangle:.3e}"),
            _result("environment", "w1-closed-vs-numeric", worst_gap <= 1e-6,
                    f"worst closed/numeric gap {worst_gap:.2e}")]


def cvar_wasserstein_bound() -> list[CheckResult]:
    """Acceptance 03: |CVaR_1 - CVaR_2| <= (L / alpha) W1 for L-Lipschitz costs."""
    rng = np.random.default_rng(103)
    q = (np.arange(100_000) + 0.5) / 100_000
    worst = -np.inf
    for _ in range(200):
        a1 = float(rng.uniform(-3, 3))
        b1 = a1 + float(rng.uniform(0.01, 4.0))
        a2 = float(rng.uniform(-3, 3))
        b2 = a2 + float(rng.uniform(0.01, 4.0))
        lip = float(rng.uniform(0.1, 5.0))
        alpha = float(rng.uniform(0.05, 1.0))
        c1 = risk.cvar_of_values(lip * (a1 + q * (b1 - a1)), alpha)
        c2 = risk.cvar_of_values(lip * (a2 + q * (b2 - a2)), alpha)
        rhs = lip / alpha * environment.w1_uniform(a1, b1, a2, b2)
        worst = max(worst, abs(c1 - c2) - rhs)
    return [_result("environment", "cvar-wasserstein-bound", worst <= 1e-6,
                    f"worst excess {worst:.2e}")]


def sublinear_variation_budget() -> list[CheckResult]:
    rates = []
    for horizon in (1500, 3000, 6000):
        noise = environment.parking_noise(horizon)
        rates.append(environment.variation_budget(noise) / horizon)
    ok = rates[0] > rates[1] > rates[2]
    return [_result("environment", "sublinear-variation-budget", ok,
                    "V(T)/T = " + ", ".join(f"{r:.3e}" for r in rates))]


SUITES: dict[str, tuple[Callable[[], list[CheckResult]], ...]] = {
    "risk": (cvar_monotone_in_alpha, cvar_translation_and_scaling,
             cvar_equals_ru_minimum, cvar_kolmogorov_bound, dkw_band_validity),
    "smoothing": (sphere_checks, gradient_estimator_checks),
    "environment": (w1_checks, cvar_wasserstein_bound, sublinear_variation_budget),
}


def run_suites(which: str = "all") -> list[CheckResult]:
    """Run one named suite or all of them."""
    if which != "all" and which not in SUITES:
        raise ValueError(f"unknown suite {which!r}; expected one of "
                         f"{(*SUITES, 'all')}")
    names = SUITES if which == "all" else (which,)
    return [res for name in names for check in SUITES[name] for res in check()]

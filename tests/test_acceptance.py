"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see them as they complete) and
asserts the criterion at its stated tolerance.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from cvarlearn.environment import constant_uniform, w1_numeric, w1_uniform
from cvarlearn.risk import (
    build_ecdf,
    cvar_discrete,
    cvar_error_bound,
    dkw_epsilon,
    sup_cdf_distance,
)
from cvarlearn.risk import cvar_of_values
from cvarlearn.schedule import theorem1_params, theorem2_params
from cvarlearn.smoothing import gradient_estimate, smoothed_cvar_mc

mpmath.mp.dps = 50


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}  {name}  ({detail})"
    print(line)
    assert ok, line


def ru_grid_minimum(sorted_samples: np.ndarray, alpha: float,
                    grid: int = 100_000) -> tuple[float, float]:
    """Brute-force minimization of the augmented functional on a v-grid.

    Each grid value is evaluated exactly via suffix sums; returns the grid
    minimum and the grid spacing.
    """
    s = sorted_samples
    n = s.size
    v = np.linspace(s[0], s[-1], grid)
    idx = np.searchsorted(s, v, side="right")
    suffix = np.concatenate([np.cumsum(s[::-1])[::-1], [0.0]])
    values = v + (suffix[idx] - (n - idx) * v) / (alpha * n)
    spacing = (s[-1] - s[0]) / (grid - 1)
    return float(values.min()), spacing


def tail_mean_closed_form(samples, alpha: float) -> float:
    """Independent closed form: fractional top-tail mean via exact summation."""
    desc = sorted(samples, reverse=True)
    n = len(desc)
    an = alpha * n
    k = math.ceil(an)
    return (math.fsum(desc[: k - 1]) + (an - k + 1.0) * desc[k - 1]) / an


def test_01_cvar_oracle_equivalence():
    rng = np.random.default_rng(101)
    levels = np.round(np.arange(1, 21) * 0.05, 2)
    t0 = time.perf_counter()
    worst_grid, worst_closed = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        samples = np.sort(rng.uniform(-5.0, 5.0, size=n))
        alpha = float(rng.choice(levels))
        got = cvar_discrete(build_ecdf(samples), alpha)
        grid_min, spacing = ru_grid_minimum(samples, alpha)
        closed = tail_mean_closed_form(samples, alpha)
        worst_grid = max(worst_grid, abs(got - grid_min) - spacing / alpha)
        worst_closed = max(worst_closed, abs(got - closed))
    elapsed = time.perf_counter() - t0
    ok = worst_grid <= 1e-12 and worst_closed <= 1e-12 and elapsed < 10.0
    report(1, "cvar-vs-ru-grid-and-closed-form", ok,
           f"grid excess {worst_grid:.2e}, closed-form gap {worst_closed:.2e}, "
           f"{elapsed:.1f}s")


def test_02_cvar_kolmogorov_inequality():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(1000):
        bound = float(rng.uniform(0.5, 5.0))
        f = build_ecdf(rng.uniform(0.0, bound, size=int(rng.integers(1, 41))))
        g = build_ecdf(rng.uniform(0.0, bound, size=int(rng.integers(1, 41))))
        alpha = float(rng.uniform(0.05, 1.0))
        lhs = abs(cvar_discrete(f, alpha) - cvar_discrete(g, alpha))
        rhs = cvar_error_bound(bound, alpha, sup_cdf_distance(f, g))
        worst = max(worst, lhs - rhs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report(2, "cvar-kolmogorov-bound", ok, f"worst excess {worst:.2e}, {elapsed:.1f}s")


def test_03_cvar_wasserstein_inequality():
    rng = np.random.default_rng(103)
    q = (np.arange(100_000) + 0.5) / 100_000
    t0 = time.perf_counter()
    worst = -np.inf
    for _ in range(200):
        a1 = float(rng.uniform(-3, 3))
        b1 = a1 + float(rng.uniform(0.01, 4.0))
        a2 = float(rng.uniform(-3, 3))
        b2 = a2 + float(rng.uniform(0.01, 4.0))
        lip = float(rng.uniform(0.1, 5.0))
        alpha = float(rng.uniform(0.05, 1.0))
        c1 = cvar_of_values(lip * (a1 + q * (b1 - a1)), alpha)
        c2 = cvar_of_values(lip * (a2 + q * (b2 - a2)), alpha)
        rhs = lip / alpha * w1_uniform(a1, b1, a2, b2)
        worst = max(worst, abs(c1 - c2) - rhs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(3, "cvar-wasserstein-bound", ok, f"worst excess {worst:.2e}, {elapsed:.1f}s")


def test_04_dkw_band_validity():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    reps, n = 2000, 100
    eps = dkw_epsilon(n, 0.05)
    draws = np.sort(rng.random((reps, n)), axis=1)
    deviation = np.maximum(np.arange(1, n + 1) / n - draws,
                           draws - np.arange(n) / n).max(axis=1)
    freq = float(np.mean(deviation >= eps))
    elapsed = time.perf_counter() - t0
    ok = freq <= 0.05 and elapsed < 30.0
    report(4, "dkw-band-validity", ok,
           f"violation frequency {freq:.4f} <= 0.05, {elapsed:.1f}s")


def test_05_gradient_estimator_consistency(paper_study):
    t0 = time.perf_counter()
    exact_ok = True
    delta = 0.25
    for x in np.arange(-2.0, 2.25, 0.25):
        avg = 0.5 * sum(
            gradient_estimate((x + delta * s) ** 2, np.array([s]), delta)[0]
            for s in (1.0, -1.0))
        exact_ok &= avg == 2.0 * x

    scen = paper_study.scenario
    rng = np.random.default_rng(105)
    t_step, x0, delta, alpha, n_per_draw, n_draws = 3000, np.array([2.0]), 0.05, 0.5, 8, 100_000
    # One row per draw: column 0 gives the direction's sign, as in
    # sample_unit_sphere, and the rest are the noise uniforms.
    draws = rng.random((n_draws, 1 + n_per_draw))
    u = np.where(draws[:, :1] < 0.5, 1.0, -1.0)
    xi = scen.noise.quantile(t_step, draws[:, 1:])
    cv = cvar_of_values(np.asarray(scen.cost(x0 + delta * u, xi)), alpha)
    estimates = gradient_estimate(cv, u, delta)[:, 0]
    stderr = estimates.std(ddof=1) / math.sqrt(n_draws)
    h = 1e-4
    fd = (smoothed_cvar_mc(scen.cost, scen.noise, t_step, x0 + h, delta, alpha,
                           n_noise=20_000)
          - smoothed_cvar_mc(scen.cost, scen.noise, t_step, x0 - h, delta,
                             alpha, n_noise=20_000)) / (2 * h)
    gap = abs(estimates.mean() - fd)
    elapsed = time.perf_counter() - t0
    ok = exact_ok and gap <= 3 * stderr and elapsed < 120.0
    report(5, "gradient-estimator-consistency", ok,
           f"two-direction exact={exact_ok}, stochastic gap {gap:.2e} vs "
           f"3*SE {3 * stderr:.2e}, {elapsed:.1f}s")


def test_06_feasibility_of_played_actions(paper_study):
    agg = paper_study.aggregates[8]
    scen = paper_study.scenario
    lo = float(scen.region.lower[0]) - 1e-12
    hi = float(scen.region.upper[0]) + 1e-12
    ok = bool(np.all(agg.x_hat >= lo) and np.all(agg.x_hat <= hi))
    report(6, "played-actions-stay-admissible", ok,
           f"range [{agg.x_hat.min():.4f}, {agg.x_hat.max():.4f}] inside "
           f"[{lo:.0f}, {hi:.0f}], all {agg.x_hat.size} plays")


def test_07_pricing_study_tracking_and_sublinear_regret(paper_study):
    agg = paper_study.aggregates[8]
    config = paper_study.config
    batch = config.batch_size
    mean_price = agg.x.mean(axis=0)
    gap = np.abs(mean_price - agg.optimal_actions)
    first_gap = gap[:batch].mean()
    last_gap = gap[-batch:].mean()
    tracking_ok = last_gap <= first_gap / 2.0

    mean_regret = agg.regret.mean(axis=0)
    rates = [mean_regret[t - 1] / t for t in (1500, 3000, 6000)]
    regret_ok = rates[0] > rates[1] > rates[2]

    seconds = paper_study.seconds
    ok = tracking_ok and regret_ok and seconds < 300.0
    report(7, "pricing-study-reproduction", ok,
           f"gap first batch {first_gap:.4f} -> last batch {last_gap:.4f} "
           f"(factor {first_gap / max(last_gap, 1e-12):.1f}); DR(t)/t = "
           + ", ".join(f"{r:.5f}" for r in rates) + f"; {seconds:.0f}s")


def test_08_sample_count_loss_ordering(paper_study):
    final = {n: paper_study.aggregates[n].acc_loss[:, -1].mean()
             for n in (8, 16, 24)}
    seconds = paper_study.seconds
    ok = final[24] <= final[16] <= final[8] and seconds < 900.0
    report(8, "accumulated-loss-ordering-by-sample-count", ok,
           f"mean loss n=8: {final[8]:.3f}, n=16: {final[16]:.3f}, "
           f"n=24: {final[24]:.3f}; {seconds:.0f}s")


def mp_theorem1(horizon, budget, a):
    ratio = mpmath.mpf(budget) / mpmath.mpf(horizon)
    if a <= 1.0:
        exps = (mpmath.mpf(a) / (4 + mpmath.mpf(a)),
                3 * mpmath.mpf(a) / (4 + mpmath.mpf(a)),
                mpmath.mpf(4) / (4 + mpmath.mpf(a)))
    else:
        exps = (mpmath.mpf(1) / 5, mpmath.mpf(3) / 5, mpmath.mpf(4) / 5)
    raw = (1 / ratio) ** exps[2]
    return (ratio ** exps[0], ratio ** exps[1],
            max(2, int(mpmath.floor(raw + mpmath.mpf("0.5")))))


def mp_theorem2(horizon, budget, a):
    ratio = mpmath.mpf(budget) / mpmath.mpf(horizon)
    if a <= 4.0 / 3.0:
        e_delta = mpmath.mpf(a) / (4 + mpmath.mpf(a))
        e_batch = mpmath.mpf(4) / (4 + mpmath.mpf(a))
    else:
        e_delta, e_batch = mpmath.mpf(1) / 4, mpmath.mpf(3) / 4
    raw = (1 / ratio) ** e_batch
    return ratio ** e_delta, max(2, int(mpmath.floor(raw + mpmath.mpf("0.5"))))


def test_09_theorem_parameter_formulas():
    rng = np.random.default_rng(109)
    worst = 0.0
    batches_ok = True
    for i in range(50):
        horizon = int(rng.integers(10, 10**6))
        budget = float(rng.uniform(1e-3, 0.9)) * horizon
        # alternate draws across the branch boundaries of both selectors
        a1 = float(rng.uniform(0.05, 1.0) if i % 2 else rng.uniform(1.0, 3.0))
        a2 = float(rng.uniform(0.05, 4 / 3) if i % 2 else rng.uniform(4 / 3, 3.0))
        p1 = theorem1_params(horizon, budget, a1)
        d_mp, e_mp, b_mp = mp_theorem1(horizon, budget, a1)
        worst = max(worst,
                    abs(p1.delta / float(d_mp) - 1.0),
                    abs(p1.eta / float(e_mp) - 1.0))
        batches_ok &= p1.batch_size == b_mp
        p2 = theorem2_params(horizon, budget, a2, 1.0)
        d_mp2, b_mp2 = mp_theorem2(horizon, budget, a2)
        worst = max(worst, abs(p2.delta / float(d_mp2) - 1.0))
        batches_ok &= p2.batch_size == b_mp2
    ok = worst <= 1e-12 and batches_ok
    report(9, "theorem-parameter-selectors", ok,
           f"worst relative error {worst:.2e}, batch sizes exact={batches_ok}")


def test_10_wasserstein_cross_validation():
    rng = np.random.default_rng(110)
    t0 = time.perf_counter()
    worst_gap = 0.0
    axioms_ok = True
    for i in range(500):
        ivs = []
        for _ in range(3):
            a = float(rng.uniform(-3, 3))
            ivs.append((a, a + float(rng.uniform(0.01, 4.0))))
        i1, i2, i3 = ivs
        d12 = w1_uniform(*i1, *i2)
        axioms_ok &= d12 >= 0.0
        axioms_ok &= abs(d12 - w1_uniform(*i2, *i1)) <= 1e-12
        axioms_ok &= w1_uniform(*i1, *i1) <= 1e-12
        axioms_ok &= d12 <= w1_uniform(*i1, *i3) + w1_uniform(*i3, *i2) + 1e-10
        s1 = constant_uniform(1, *i1)
        s2 = constant_uniform(1, *i2)
        support = (min(i1[0], i2[0]), max(i1[1], i2[1]))
        numeric = w1_numeric(lambda y: s1.cdf(1, y), lambda y: s2.cdf(1, y),
                             support, grid=200_000)
        worst_gap = max(worst_gap, abs(d12 - numeric))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-6 and axioms_ok and elapsed < 30.0
    report(10, "wasserstein-closed-form-vs-quadrature", ok,
           f"worst closed/numeric gap {worst_gap:.2e}, metric axioms "
           f"hold={axioms_ok}, {elapsed:.1f}s")

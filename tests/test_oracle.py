import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvarlearn import core, environment, oracle
from cvarlearn.core import Box, ConfigurationError, CostModel, Quadratic
from cvarlearn.environment import UniformSeq, constant_uniform
from cvarlearn.oracle import (
    _BLOCK,
    _closed_form_cvars,
    _cvars,
    _mid_quantiles,
    RegretReport,
    action_grid,
    dynamic_regret,
    optimal_action_series,
    true_cvar,
)
from cvarlearn.risk import _tail_means
from cvarlearn.harness import (
    ELASTICITY,
    ORACLE_LEVELS,
    PRICES,
    REGULARIZATION,
    TARGET_OCCUPANCY,
    ExperimentConfig,
    build_scenario,
    run_ablation,
)


def played(*trials):
    """Played actions of each trial as the ``(trials, T)`` array."""
    return np.asarray(trials, dtype=float)


def pricing_scenario(horizon=6000):
    return build_scenario(ExperimentConfig(horizon=horizon))


def noise_grid(noise, t, grid_n):
    """Noise values of step ``t`` at the oracle's mid-quantile levels."""
    return np.asarray(noise.quantile(t, _mid_quantiles(grid_n)), dtype=float)


def scan_series(cost, noise, region, alpha, steps, k, grid_n):
    """Exhaustive reference: every grid action's CVaR at each 0-based step of
    ``steps``, first ``np.argmin``."""
    xs = action_grid(region, k)
    x_star, c_star = np.empty(len(steps)), np.empty(len(steps))
    for j, s in enumerate(steps):
        cv = _cvars(cost, noise_grid(noise, s + 1, grid_n), xs, alpha)
        i = int(np.argmin(cv))
        x_star[j], c_star[j] = xs[i], cv[i]
    return x_star, c_star


def optima_series(cost, noise, region, alpha, k, grid_n):
    """The oracle's optima series: its search pass over every noise step."""
    return optimal_action_series(cost, noise, action_grid(region, k), alpha,
                                 _mid_quantiles(grid_n))


def regret(x_hat, cost, noise, region, alpha, k, grid_n):
    """The played pass of ``x_hat`` against the search pass's series."""
    optima = optima_series(cost, noise, region, alpha, k, grid_n)
    return dynamic_regret(x_hat, cost, noise, alpha, optima,
                          _mid_quantiles(grid_n))


def step_optimum(cost, noise, region, k, grid_n):
    """The oracle's grid optimum of a one-step sequence and its CVaR."""
    x_star, c_star = optima_series(cost, noise, region, 0.5, k, grid_n)
    return x_star[0], c_star[0]


IDENTITY_COST = CostModel(fn=lambda x, xi: 0.0 * x + xi, bound=10.0, lipschitz=1.0)


def closed_form_cvar(noise, t, x, alpha):
    """Exact CVaR of the pricing cost ``J = (xi + e*x - c)^2 + nu/2 * x^2`` at
    the 1-based steps ``t`` and decisions ``x`` (broadcast), with xi uniform
    on ``[a, a + L]`` at each step: an independent truth for the grid oracle.

    With the vertex ``v = c - e*x``, the alpha-tail of ``(xi - v)^2`` is the
    two ends of the interval, ``[a, a + p]`` and the last ``alpha*L - p``,
    where ``p = clip((2v - 2a - L + alpha*L)/2, 0, alpha*L)``. The CVaR is
    ``[F(a+p) - F(a) + F(a+L) - F(a+L-alpha*L+p)]/(alpha*L) + nu/2 * x^2``
    with ``F(z) = (z - v)^3/3``. Each difference ``F(hi) - F(lo)`` is taken
    as ``(hi - lo) * (h^2 + h*l + l^2)/3``, ``h = hi - v`` and ``l = lo - v``,
    which does not cancel on a short end. A point mass (``L = 0``) gives
    ``J(a)``.
    """
    step = noise.table[np.asarray(t) - 1]
    a, length = step[..., 0], step[..., 1]
    v = TARGET_OCCUPANCY - ELASTICITY * x
    width = alpha * length
    p = np.clip((2 * v - 2 * a - length + width) / 2, 0.0, width)

    def integral(lo, hi):
        low, high = lo - v, hi - v
        return (hi - lo) * (high * high + high * low + low * low) / 3

    with np.errstate(divide="ignore", invalid="ignore"):
        tail = (integral(a, a + p) + integral(a + length - width + p, a + length)
                ) / width
    return np.where(length > 0, tail, (a - v) ** 2) + 0.5 * REGULARIZATION * x ** 2


def closed_form_tolerance(alpha, grid_n):
    """Relative gap allowed between the grid oracle at ``grid_n`` levels and
    the closed form; the cases below stay within 0.79 of it."""
    return 1.0 / (alpha * grid_n) ** 2


#: The pricing scenarios the closed form covers: ``parking`` at horizons
#: with many point-mass steps (500, 1,500) and few (6,000), and ``custom``.
PRICING_CASES = [("parking", 500), ("parking", 1500), ("parking", 6000),
                 ("custom", 500)]


class TestTrueCvar:
    def test_point_mass_noise(self):
        noise = constant_uniform(5, 2.0, 2.0)
        cost = CostModel(fn=lambda x, xi: (x - xi) ** 2, bound=100.0, lipschitz=20.0)
        for alpha in (0.1, 0.5, 1.0):
            assert true_cvar(cost, noise, 1, 5.0, alpha, 1000) == pytest.approx(9.0)

    def test_alpha_one_uniform_mean(self):
        noise = constant_uniform(5, 0.0, 1.0)
        grid_n = 10_000
        got = true_cvar(IDENTITY_COST, noise, 1, 0.0, 1.0, grid_n)
        assert got == pytest.approx(0.5, abs=1 / (2 * grid_n))

    def test_uniform_tail_mean(self):
        # CVaR_alpha of U[0,1] under the identity cost is 1 - alpha/2.
        noise = constant_uniform(5, 0.0, 1.0)
        for alpha in (0.25, 0.5, 0.8):
            got = true_cvar(IDENTITY_COST, noise, 1, 0.0, alpha, 20_000)
            assert got == pytest.approx(1 - alpha / 2, abs=1e-4)

    @pytest.mark.parametrize("scenario, horizon", PRICING_CASES,
                             ids=[f"{s}-T{t}" for s, t in PRICING_CASES])
    def test_matches_the_closed_form_on_pricing_cases(self, scenario, horizon):
        scen = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon))
        rng = np.random.default_rng(51)
        draws = [(int(rng.integers(1, horizon + 1)), float(rng.uniform(1.0, 5.0)))
                 for _ in range(100)]
        draws += [(1, 1.0), (2, 5.0)]  # point masses in every parking case
        for grid_n in (1000, 2000, 10_000):
            for alpha in (0.05, 0.1, 0.5, 0.9, 1.0):
                tol = closed_form_tolerance(alpha, grid_n)
                for t, x in draws:
                    exact = closed_form_cvar(scen.noise, t, x, alpha)
                    got = true_cvar(scen.cost, scen.noise, t, x, alpha, grid_n)
                    assert abs(got - exact) <= tol * exact, (t, x, alpha, grid_n)

    def test_monotone_in_alpha(self):
        scen = pricing_scenario()
        rng = np.random.default_rng(52)
        for _ in range(50):
            t = int(rng.integers(1, 6001))
            x = float(rng.uniform(1.0, 5.0))
            a1, a2 = np.sort(rng.uniform(0.05, 1.0, size=2))
            assert (true_cvar(scen.cost, scen.noise, t, x, a1, 2000)
                    >= true_cvar(scen.cost, scen.noise, t, x, a2, 2000) - 1e-12)

    def test_grid_floor(self):
        noise = constant_uniform(5, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            true_cvar(IDENTITY_COST, noise, 1, 0.0, 0.5, 100)

    @pytest.mark.parametrize("x", [[1.5], (1.5,), np.array([1.5])],
                             ids=["list", "tuple", "array"])
    def test_one_element_decision_rejected_before_the_quantiles(
            self, monkeypatch, x):
        scen = pricing_scenario(10)

        def no_quantile(*args):
            raise AssertionError("quantiles built for a malformed decision")

        monkeypatch.setattr(scen.noise, "quantile", no_quantile)
        with pytest.raises(ConfigurationError, match=r"decision x=.*1\.5"):
            true_cvar(scen.cost, scen.noise, 1, x, 0.5, 1000)


class TestSearchAgainstClosedForm:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("scenario, horizon", [("parking", 1500),
                                                   ("custom", 500)])
    def test_optimal_cvar_is_the_closed_form_minimum(self, scenario, horizon,
                                                     alpha):
        # CVaRs, not actions, are compared: two grid actions can sit closer
        # than the grid's error.
        scen = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon))
        xs, grid_n = action_grid(PRICES, 100), 2000
        x_star, c_star = optimal_action_series(
            scen.cost, scen.noise, xs, alpha, _mid_quantiles(grid_n))
        t = np.arange(1, horizon + 1)
        exact = closed_form_cvar(scen.noise, t, x_star, alpha)
        tol = closed_form_tolerance(alpha, grid_n)
        assert np.all(np.abs(c_star - exact) <= tol * exact)
        every = closed_form_cvar(scen.noise, t[:, None], xs[None, :], alpha)
        assert np.all(every.min(axis=1) >= exact * (1.0 - tol))


class TestActionGrid:
    def test_points_are_subinterval_centers(self):
        xs = action_grid(Box(0.0, 1.0), 4)
        assert xs == pytest.approx([0.125, 0.375, 0.625, 0.875])

    # The grids' sizes are protocol constants of the harness; a library
    # caller that passes its own still meets each grid's size rule.
    def test_a_one_point_action_grid_is_refused(self):
        with pytest.raises(ConfigurationError,
                           match=r"^action grid needs at least 2 points, got 1$"):
            action_grid(PRICES, 1)

    def test_fewer_than_1000_levels_are_refused(self):
        with pytest.raises(ConfigurationError,
                           match=r"^quantile grid needs >= 1000 points, got 999$"):
            _mid_quantiles(999)



class TestOptimalActionGrid:
    def test_deterministic_quadratic_hits_exact_minimizer(self):
        cost = CostModel(fn=Quadratic(slope=1.0, level=3.0), bound=100.0,
                         lipschitz=20.0)
        noise = constant_uniform(5, 0.0, 0.0)
        x_star, c_star = step_optimum(cost, noise, Box(1.0, 5.0), k=101,
                                      grid_n=1000)
        # grid contains the exact minimizer: centers of 101 cells include 3.0
        assert x_star == pytest.approx(3.0, abs=1e-12)
        assert c_star == pytest.approx(0.0, abs=1e-12)

    def test_monotone_cost_picks_lower_edge_cell(self):
        # xi^2 + x^2 rises in x across the interval.
        cost = CostModel(fn=Quadratic(slope=0.0, weight=1.0), bound=26.0,
                         lipschitz=10.0)
        noise = constant_uniform(5, 0.0, 1.0)
        x_star, _ = step_optimum(cost, noise, Box(1.0, 5.0), k=100,
                                 grid_n=1000)
        assert x_star == pytest.approx(1.0 + 4.0 / 200.0)

    def test_tie_breaks_toward_smaller_coordinate(self):
        # (xi - 1)^2 does not depend on x: every action's row has the same bits.
        cost = CostModel(fn=Quadratic(slope=0.0, level=1.0), bound=1.0,
                         lipschitz=1.0)
        noise = constant_uniform(5, 0.0, 1.0)
        x_star, _ = step_optimum(cost, noise, Box(1.0, 5.0), k=10,
                                 grid_n=1000)
        assert x_star == pytest.approx(1.2)

    def test_pricing_reference_minimizer(self):
        # Exhaustive-grid oracle at the mid-horizon switch; regression anchor.
        # Step 3000's distribution, as a one-step sequence.
        scen = pricing_scenario()
        loc, scale = scen.noise.table[2999]
        x_star, c_star = step_optimum(scen.cost, UniformSeq([loc], [loc + scale]),
                                      scen.region, k=100, grid_n=10_000)
        assert x_star == pytest.approx(2.54, abs=1e-9)
        assert 0.0 < c_star < scen.cost.bound


#: The search's cases: every scenario, the alpha edges, and 1,000 to 10,000
#: levels. ``brownian``'s optimum is a near-tie of +-0.02 at every step and
#: ``parking`` at T = 500 has 253 point-mass steps.
SEARCH_SCENARIOS = [("parking", 500), ("parking", 1500), ("brownian", 500),
                    ("custom", 200)]
ALPHAS = [1e-300, 1e-20, 1e-14, 1e-4, 0.05, 0.1, 0.5, 0.9, 1.0]
LEVEL_COUNTS = [1000, 2000, 10_000]


class TestClosedForm:
    @pytest.mark.parametrize("grid_n", LEVEL_COUNTS)
    @pytest.mark.parametrize("scenario, horizon", SEARCH_SCENARIOS,
                             ids=[f"{s}-T{t}" for s, t in SEARCH_SCENARIOS])
    def test_matches_the_exact_grid_cvar(self, scenario, horizon, grid_n):
        # Every action of the scenario's grid at 20 steps, point masses
        # among them; the exact grid CVaR is the reference.
        scen = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon))
        steps = np.unique(np.r_[0, 1, np.random.default_rng(57).integers(
            0, horizon, 18)])
        xs = action_grid(scen.region, 100)
        loc, scale = scen.noise.table[steps].T
        z = scen.noise.family.quantile(_mid_quantiles(grid_n))
        for alpha in ALPHAS:
            got = _closed_form_cvars(scen.cost.fn, z, alpha, loc, scale, xs)
            exact = np.array([_cvars(scen.cost, noise_grid(scen.noise, s + 1, grid_n),
                                     xs, alpha) for s in steps])
            assert np.all(np.abs(got - exact) <= 1e-12 * exact), alpha


class TestConvexSearch:
    @pytest.mark.parametrize("horizon", [1, 2, 37])
    @pytest.mark.parametrize("scenario", ["parking", "custom", "brownian"])
    def test_series_covers_every_step_of_its_noise(self, scenario, horizon):
        scen = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon))
        args = (scen.cost, scen.noise, scen.region, 0.5)
        x_star, c_star = optima_series(*args, k=10, grid_n=1000)
        assert x_star.shape == c_star.shape == (horizon,)
        x_ref, c_ref = scan_series(*args, range(horizon), k=10, grid_n=1000)
        assert np.array_equal(x_star, x_ref) and np.array_equal(c_star, c_ref)

    @pytest.mark.parametrize("grid_n", LEVEL_COUNTS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("scenario, horizon", SEARCH_SCENARIOS,
                             ids=[f"{s}-T{t}" for s, t in SEARCH_SCENARIOS])
    def test_series_equals_exhaustive_scan(self, scenario, horizon, alpha,
                                           grid_n):
        # The screened search pass against the exhaustive scan: the same
        # actions and CVaR bits. At alpha 0.5 and 2,000 levels every step is
        # checked, elsewhere every few steps (10 of them at 10,000 levels).
        scen = build_scenario(ExperimentConfig(scenario=scenario,
                                               horizon=horizon))
        stride = 1 if (alpha, grid_n) == (0.5, 2000) else horizon * grid_n // 100_000
        steps = range(0, horizon, max(1, stride))
        x_ref, c_ref = scan_series(scen.cost, scen.noise, scen.region, alpha,
                                   steps, k=100, grid_n=grid_n)
        x_star, c_star = optima_series(scen.cost, scen.noise, scen.region, alpha,
                                       k=100, grid_n=grid_n)
        assert np.array_equal(x_star[list(steps)], x_ref)
        assert np.array_equal(c_star[list(steps)], c_ref)

    def test_a_long_action_grid_keeps_its_blocks_small(self):
        # 10,000 actions at 1,000 levels: a block takes 6 steps, not the 65
        # that its noise values alone would allow, so the screen's (steps,
        # actions) arrays stay within _BLOCK values; 16 _BLOCKs of doubles
        # bound the peak (about 11 are used, 91 with 65-step blocks). The
        # series still equals the exhaustive scan's, the scan made in parts
        # of the grid.
        scen = pricing_scenario(horizon=100)
        xs = action_grid(scen.region, 10_000)
        tracemalloc.start()
        try:
            x_star, c_star = optimal_action_series(scen.cost, scen.noise, xs, 0.5,
                                                   _mid_quantiles(1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * _BLOCK * 8
        for s in (0, 7, 50, 99):
            xi = noise_grid(scen.noise, s + 1, 1000)
            cv = np.concatenate([_cvars(scen.cost, xi, part, 0.5)
                                 for part in np.split(xs, 10)])
            i = int(np.argmin(cv))
            assert (x_star[s], c_star[s]) == (xs[i], cv[i])

    @given(c=st.floats(-2.0, 2.0), w=st.floats(0.0, 2.0),
           k=st.integers(2, 30), low=st.floats(-1.0, 1.0),
           width=st.floats(0.0, 1.0), alpha=st.floats(0.05, 1.0))
    @example(c=0.0, w=1.0, k=30, low=0.0, width=0.5,
             alpha=0.25)  # a zero slope: every action ties exactly
    @example(c=1.0, w=0.5, k=10, low=0.0, width=5e-324,
             alpha=1.0)  # a subnormal scale: -g / scale overflows
    @settings(max_examples=100, deadline=None)
    def test_search_finds_the_first_argmin(self, c, w, k, low, width, alpha):
        # The screened search must return the first np.argmin of the exact
        # CVaRs of a Quadratic cost (c shifts it, w moves and weights it).
        fn = Quadratic(slope=c, level=w, weight=w / 4)
        noise = constant_uniform(1, low, low + width)
        xi = noise_grid(noise, 1, 1000)
        xs = action_grid(Box(-1.0, 1.0), k)
        bound = float(np.abs(fn(xs[:, None], xi[None, :])).max()) or 1.0
        cost = CostModel(fn=fn, bound=bound, lipschitz=1.0)
        scan = _cvars(cost, xi, xs, alpha)
        x_star, c_star = optimal_action_series(cost, noise, xs, alpha,
                                               _mid_quantiles(1000))
        i = int(np.argmin(scan))
        assert x_star[0] == xs[i]
        assert c_star[0] == scan[i]


class TestPassQuantiles:
    def test_each_pass_makes_its_standard_quantiles_once(self, monkeypatch,
                                                         force_jobs):
        # Gaussian standard quantiles: every _ndtri call of an ablation is
        # one oracle pass's levels, or a block of the learners' draws. Each
        # pass cuts its 200 steps into seven blocks of at most _BLOCK values.
        config = ExperimentConfig(scenario="brownian", horizon=200, batch_size=10,
                                  trials=2)
        calls = []

        def spy(q):
            calls.append(np.array(q))
            return ndtri(q)

        ndtri = environment._ndtri
        monkeypatch.setattr(environment, "_ndtri", spy)
        force_jobs(1)
        run_ablation(config, [4, 8])
        levels = _mid_quantiles(ORACLE_LEVELS)
        on_levels = [q for q in calls if np.array_equal(q, levels)]
        draws = [q for q in calls if not np.array_equal(q, levels)]
        assert len(on_levels) == 2
        assert sum(q.size for q in draws) == config.trials * config.horizon * (4 + 8)
        assert all(q.ndim == 2 and q.shape[0] == config.trials for q in draws)


@pytest.mark.parametrize("run_pass", [
    lambda cost, noise, levels: optimal_action_series(
        cost, noise, action_grid(Box(0.0, 1.0), 10), 0.5, levels),
    lambda cost, noise, levels: dynamic_regret(
        np.zeros((2, 5)), cost, noise, 0.5, (np.zeros(5), np.zeros(5)), levels),
], ids=["search", "played"])
def test_both_passes_reject_a_cost_that_is_not_a_quadratic(monkeypatch, run_pass):
    noise = constant_uniform(5, 0.0, 1.0)

    def no_grid(*args):
        raise AssertionError("quantile or grid work for a rejected cost")

    monkeypatch.setattr(noise, "family",
                        dataclasses.replace(noise.family, quantile=no_grid))
    monkeypatch.setattr(noise, "_columns", no_grid)
    with pytest.raises(ConfigurationError, match="needs a Quadratic cost rule"):
        run_pass(IDENTITY_COST, noise, _mid_quantiles(1000))


class TestDynamicRegret:
    @pytest.mark.parametrize("trials", [0, 1, 10, 33, 100])
    @pytest.mark.parametrize("scenario", ["parking", "brownian", "custom"])
    def test_equals_the_exact_cvars_step_by_step(self, scenario, trials):
        # The played pass fills each call of its row buffer (65 rows at
        # 1,000 levels) with the rows of several steps, a step's trials
        # straddling two calls where they do not fit; each step's exact
        # CVaRs of all trials are the reference, matched bit for bit.
        scen = build_scenario(ExperimentConfig(scenario=scenario, horizon=40))
        low, high = scen.region.lower, scen.region.upper
        x_hat = np.random.default_rng(54).uniform(low, high, (trials, 40))
        report = regret(x_hat, scen.cost, scen.noise, scen.region, 0.5, k=50,
                        grid_n=1000)
        reference = np.array([_cvars(scen.cost, noise_grid(scen.noise, t, 1000),
                                     x_hat[:, t - 1], 0.5)
                              for t in range(1, 41)]).T.reshape(trials, 40)
        assert np.array_equal(report.played_cvar, reference)
        assert report.played_cvar.flags.c_contiguous
        assert np.array_equal(report.cumulative_regret,
                              np.cumsum(reference - report.optimal_cvar, axis=1))
        assert np.array_equal(report.accumulated_loss, np.cumsum(reference, axis=1))

    def test_a_float32_alpha_is_read_as_a_float(self):
        # 0.1 in float32 times 2,000 levels is 200 in float32 arithmetic but
        # 200.000003 in float64: both passes, like _cvars, take the 201
        # largest values.
        scen = pricing_scenario(horizon=20)
        x_hat = played(np.random.default_rng(55).uniform(1.0, 5.0, size=20))
        alpha = np.float32(0.1)
        report = regret(x_hat, scen.cost, scen.noise, scen.region, alpha, k=50,
                        grid_n=2000)
        x_ref, c_ref = scan_series(scen.cost, scen.noise, scen.region, alpha,
                                   range(20), k=50, grid_n=2000)
        reference = [_cvars(scen.cost, noise_grid(scen.noise, t, 2000),
                            x_hat[:, t - 1], alpha)[0] for t in range(1, 21)]
        assert np.array_equal(report.optimal_actions, x_ref)
        assert np.array_equal(report.optimal_cvar, c_ref)
        assert np.array_equal(report.played_cvar[0], reference)

    def test_equals_per_step_true_cvar_loop(self):
        # One trial, step by step through true_cvar: the public reference.
        scen = pricing_scenario(horizon=40)
        x_hat = played(np.random.default_rng(54).uniform(1.0, 5.0, size=40))
        report = regret(x_hat, scen.cost, scen.noise, scen.region, 0.5, k=50,
                        grid_n=1000)
        reference = [true_cvar(scen.cost, scen.noise, t, x_hat[0, t - 1], 0.5,
                               grid_n=1000) for t in range(1, 41)]
        assert np.array_equal(report.played_cvar[0], reference)

    @pytest.mark.parametrize("shape", [(10,), (1, 3), (1, 10, 1)])
    def test_rejects_played_actions_of_the_wrong_shape(self, shape):
        scen = pricing_scenario(horizon=10)
        with pytest.raises(ConfigurationError, match="played actions"):
            dynamic_regret(np.full(shape, 2.0), scen.cost, scen.noise, 0.5,
                           optima_series(scen.cost, scen.noise, scen.region,
                                         0.5, k=10, grid_n=1000),
                           _mid_quantiles(1000))

    def test_playing_the_optimum_gives_zero_regret(self):
        scen = pricing_scenario(horizon=30)
        x_star, c_star = optima_series(scen.cost, scen.noise, scen.region,
                                       0.5, k=50, grid_n=1000)
        report = regret(played(x_star), scen.cost, scen.noise, scen.region,
                        0.5, k=50, grid_n=1000)
        assert report.cumulative_regret[0, -1] == pytest.approx(0.0, abs=1e-12)
        assert report.optimal_actions == pytest.approx(x_star)

    def test_single_step_arithmetic(self):
        cost = CostModel(fn=Quadratic(slope=-1.0), bound=100.0, lipschitz=20.0)
        noise = constant_uniform(1, 1.0, 1.0)
        region = Box(0.0, 2.0)
        report = regret(played([0.0]), cost, noise, region, 0.5, k=101,
                        grid_n=1000)
        # played cost (0-1)^2 = 1; best grid cell center is at ~1.0 with cost ~0
        assert report.played_cvar[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert report.cumulative_regret[0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_per_step_regret_floor(self):
        # played - optimal >= -(grid spacing) * L0 for any played point
        scen = pricing_scenario(horizon=50)
        rng = np.random.default_rng(53)
        report = regret(played(rng.uniform(1.0, 5.0, size=50)), scen.cost,
                        scen.noise, scen.region, 0.5, k=100, grid_n=2000)
        spacing = 4.0 / 100
        gaps = report.played_cvar - report.optimal_cvar
        assert gaps.min() >= -spacing * scen.cost.lipschitz

    @pytest.mark.parametrize("scenario, trials", [
        pytest.param(scenario, trials, id=scenario + suffix)
        for trials, suffix in ((1, ""), (_BLOCK // 1000 + 5, "-two-blocks"))
        for scenario in ("parking", "brownian", "custom")])
    def test_inline_optima_equal_the_series(self, scenario, trials):
        # The report carries the search pass's series, evaluated beside one
        # block of played rows and beside several; the series on its own and
        # the exhaustive scan are the references.
        horizon = 120
        scen = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon))
        args = (scen.cost, scen.noise, scen.region, 0.5)
        x_star, c_star = optima_series(*args, k=40, grid_n=1000)
        x_ref, c_ref = scan_series(*args, range(horizon), k=40, grid_n=1000)
        low, high = scen.region.lower, scen.region.upper
        x_hat = np.random.default_rng(55).uniform(low, high, (trials, horizon))
        report = regret(x_hat, scen.cost, scen.noise, scen.region, 0.5, k=40,
                        grid_n=1000)
        for actions, values in ((x_star, c_star), (x_ref, c_ref)):
            assert np.array_equal(report.optimal_actions, actions)
            assert np.array_equal(report.optimal_cvar, values)


def test_the_oracle_forks_nothing(force_jobs, monkeypatch):
    # Both passes are serial: on two usable CPUs, with every fork refused,
    # they give the report of one CPU. The harness cuts the played trials.
    scen = pricing_scenario(horizon=40)
    x_hat = np.random.default_rng(56).uniform(1.0, 5.0, (5, 40))
    force_jobs(1)
    reference = regret(x_hat, scen.cost, scen.noise, scen.region, 0.5, k=40,
                       grid_n=1000)

    def no_fork():
        raise AssertionError("the oracle forked")

    monkeypatch.setattr(os, "fork", no_fork)
    force_jobs(2)
    report = regret(x_hat, scen.cost, scen.noise, scen.region, 0.5, k=40,
                    grid_n=1000)
    for field in dataclasses.fields(RegretReport):
        assert np.array_equal(getattr(report, field.name),
                              getattr(reference, field.name)), field.name


def bits(values):
    """The bytes of a float array: equal only if every value has the same bits."""
    return np.ascontiguousarray(values, dtype=float).tobytes()


class TestPointMassSteps:
    @pytest.mark.parametrize("grid_n", [1000, 2000, 10_000])
    @pytest.mark.parametrize("alpha", [1e-4, 0.3, 0.5, 1.0],
                             ids=["empty-tail", "0.3", "0.5", "k-equals-n"])
    def test_equals_the_tail_mean_of_the_placed_row(self, alpha, grid_n):
        # Point masses at 0.0 and -0.0 among others; each trial's CVaR at a
        # step is _tail_means over that step's full placed row, bit for bit.
        # At alpha = 1e-4, alpha * n < 1, so k = 1 and the tail is empty;
        # at 10,000 levels and alpha = 1 the tail is longer than numpy's
        # 8,192-value reduction buffer.
        locations = np.array([0.0, -0.0, 0.85, 1.1, -2.5])
        noise = UniformSeq(locations, locations)
        cost = pricing_scenario(10).cost
        z = noise.family.quantile(_mid_quantiles(grid_n))
        steps = np.arange(1, locations.size + 1)
        x = np.random.default_rng(57).uniform(-3.0, 5.0, (7, steps.size))
        x[0] = 0.0
        got = oracle._point_mass_cvars(cost.fn, locations, x, alpha, grid_n)
        reference = np.array([
            _tail_means(cost.rows(x[:, j], noise.place(t, z)[None, :]), alpha)
            for j, t in enumerate(steps)]).T
        assert got.shape == x.shape
        assert bits(got) == bits(reference)

    @pytest.mark.parametrize("trials", [0, 3, _BLOCK // 1000 + 5])
    @pytest.mark.parametrize("family", ["uniform", "gaussian"])
    @pytest.mark.parametrize("kind", ["none", "some", "all"])
    def test_played_pass_equals_the_grid_pass_over_every_step(
            self, kind, family, trials):
        # A sequence with no point-mass steps, some or only those: the
        # played pass equals _tail_means over each step's placed row, bit
        # for bit. Steps 4-7 sit at 0.0 and -0.0 (a Gaussian grid of zero
        # scale at -0.0 holds both zeros). Unless all are point masses,
        # steps 6-9 have a subnormal or tiny scale: a grid of one value
        # where the location absorbs it, yet no point mass.
        rng = np.random.default_rng(58)
        horizon = 31
        loc = rng.uniform(-1.0, 2.0, horizon)
        loc[3:7] = 0.0, -0.0, 0.0, -0.0
        point = {"none": np.zeros(horizon, bool), "all": np.ones(horizon, bool),
                 "some": rng.random(horizon) < 0.5}[kind]
        scale = np.where(point, 0.0, rng.random(horizon))
        if kind != "all":
            point[5:9] = False
            scale[5:9] = 5e-324, 1e-310, 5e-324, 1e-310
        noise = core.NoiseSequence(np.column_stack([loc, scale]), {
            "uniform": environment.UNIFORM, "gaussian": environment.GAUSSIAN}[family])
        assert np.array_equal(noise.table[:, 1] == 0, point)
        cost = pricing_scenario(10).cost
        x_hat = rng.uniform(-2.0, 3.0, (trials, horizon))
        levels = _mid_quantiles(1000)
        z = noise.family.quantile(levels)
        reference = np.array([
            _tail_means(cost.rows(x_hat[:, s], noise.place(s + 1, z)[None, :]), 0.5)
            for s in range(horizon)]).T.reshape(trials, horizon)
        report = dynamic_regret(x_hat, cost, noise, 0.5,
                                (np.zeros(horizon), np.zeros(horizon)), levels)
        assert bits(report.played_cvar) == bits(reference)
        assert bits(report.accumulated_loss) == bits(np.cumsum(reference, axis=1))

    def test_blocks_place_as_the_noise_does_into_one_buffer(self):
        # Each block of the grid passes is NoiseSequence.place's array to
        # the bit, written where the block before it was.
        noise = pricing_scenario(300).noise
        z = noise.family.quantile(_mid_quantiles(1000))
        buffers = set()
        for out, block, xi in oracle._blocks(noise, z, range(300), 1000):
            assert bits(xi) == bits(noise.place(block[:, None] + 1, z))
            assert np.array_equal(block, np.arange(300)[out])
            buffers.add(xi.__array_interface__["data"][0])
        assert len(buffers) == 1

    @pytest.mark.parametrize("shape, horizon, match", [
        ((2, 12), 12, "outside horizon"),
        ((2, 9), 10, r"must have shape \(trials, 10\)"),
        ((10,), 10, r"must have shape \(trials, 10\)"),
    ], ids=["optima-past-the-noise", "fewer-played-steps", "one-flat-row"])
    def test_the_played_pass_rejects_what_does_not_fit(self, shape, horizon, match):
        # The played pass against a 10-step noise: optima of 12 steps reach
        # past it, and played actions must be (trials, T) for the optima's T.
        scen = pricing_scenario(10)
        with pytest.raises(ConfigurationError, match=match):
            dynamic_regret(np.zeros(shape), scen.cost, scen.noise, 0.5,
                           (np.zeros(horizon), np.zeros(horizon)),
                           _mid_quantiles(1000))


class TestAccumulatedLoss:
    UNIT_BOX = Box(0.0, 1.0)

    def test_zero_cost(self):
        # xi^2 at a point mass at 0.
        cost = CostModel(fn=Quadratic(slope=0.0), bound=1.0, lipschitz=1.0)
        noise = constant_uniform(10, 0.0, 0.0)
        report = regret(played(np.full(10, 0.5)), cost, noise, self.UNIT_BOX,
                        0.5, k=10, grid_n=1000)
        assert report.accumulated_loss[0] == pytest.approx(np.zeros(10))

    def test_constant_cost_accumulates_linearly(self):
        # xi^2 + 12 x^2 is 3 at a point mass at 0 and x = 0.5.
        cost = CostModel(fn=Quadratic(slope=0.0, weight=12.0), bound=12.0,
                         lipschitz=24.0)
        noise = constant_uniform(10, 0.0, 0.0)
        got = regret(played(np.full(10, 0.5)), cost, noise, self.UNIT_BOX,
                     0.5, k=10, grid_n=1000).accumulated_loss[0]
        assert got == pytest.approx(3.0 * np.arange(1, 11))


class TestBatchVariationInequality:
    def test_batch_optimum_within_twice_batch_variation(self):
        # Sum over the batch of (C_t at the batch optimum - per-step optimum)
        # is at most 2 * batch_size * (summed sup-grid step variation). The
        # batch optimum is the first grid minimum of the summed CVaRs.
        rng = np.random.default_rng(54)
        k, grid_n = 60, 1000
        cost = CostModel(fn=lambda x, xi: (x - xi) ** 2, bound=100.0,
                         lipschitz=20.0)
        region = Box(-1.0, 3.0)
        xs = action_grid(region, k)
        for _ in range(100):
            batch = int(rng.integers(2, 7))
            a1, a2 = rng.uniform(-0.5, 1.5, size=2)
            w1, w2 = rng.uniform(0.1, 1.0, size=2)
            switch = int(rng.integers(2, batch + 1))
            before = np.arange(1, batch + 1) < switch
            noise = UniformSeq(np.where(before, a1, a2),
                               np.where(before, a1 + w1, a2 + w2))
            grid_cvars = np.array([
                [true_cvar(cost, noise, t, x, 0.5, grid_n) for x in xs]
                for t in range(1, batch + 1)
            ])
            batch_sum = grid_cvars.sum(axis=0).min()
            per_step_sum = grid_cvars.min(axis=1).sum()
            variation = np.abs(np.diff(grid_cvars, axis=0)).max(axis=1).sum()
            assert batch_sum - per_step_sum <= 2 * batch * variation + 1e-9

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvarlearn import oracle
from cvarlearn.core import Ball, Box, ConfigurationError, CostModel
from cvarlearn.environment import UniformSeq, constant_uniform
from cvarlearn.oracle import (
    _BLOCK,
    _first_grid_minimum,
    _grid_cvars,
    _quantile_grid,
    RegretReport,
    action_grid,
    batch_optimal_actions,
    dynamic_regret,
    optimal_action_series,
    true_cvar,
)
from cvarlearn.harness import ExperimentConfig, build_scenario


def played(*trials):
    """Played 1-D actions of each trial as the ``(trials, T, 1)`` array."""
    return np.asarray(trials, dtype=float)[:, :, None]


def pricing_scenario(horizon=6000):
    return build_scenario(ExperimentConfig(horizon=horizon))


def scan_series(cost, noise, region, alpha, horizon, k, grid_n):
    """Exhaustive reference: every grid action's CVaR, first ``np.argmin``."""
    xs = action_grid(region, k)
    x_star, c_star = np.empty(horizon), np.empty(horizon)
    for t in range(1, horizon + 1):
        cv = _grid_cvars(cost, _quantile_grid(noise, t, grid_n), xs, alpha)
        i = int(np.argmin(cv))
        x_star[t - 1], c_star[t - 1] = xs[i], cv[i]
    return x_star, c_star


IDENTITY_COST = CostModel(fn=lambda x, xi: 0.0 * x + xi, bound=10.0, lipschitz=1.0)


class TestTrueCvar:
    def test_point_mass_noise(self):
        noise = constant_uniform(5, 2.0, 2.0)
        cost = CostModel(fn=lambda x, xi: (x - xi) ** 2, bound=100.0, lipschitz=20.0)
        for alpha in (0.1, 0.5, 1.0):
            assert true_cvar(cost, noise, 1, [5.0], alpha, 1000) == pytest.approx(9.0)

    def test_alpha_one_uniform_mean(self):
        noise = constant_uniform(5, 0.0, 1.0)
        grid_n = 10_000
        got = true_cvar(IDENTITY_COST, noise, 1, [0.0], 1.0, grid_n)
        assert got == pytest.approx(0.5, abs=1 / (2 * grid_n))

    def test_uniform_tail_mean(self):
        # CVaR_alpha of U[0,1] under the identity cost is 1 - alpha/2.
        noise = constant_uniform(5, 0.0, 1.0)
        for alpha in (0.25, 0.5, 0.8):
            got = true_cvar(IDENTITY_COST, noise, 1, [0.0], alpha, 20_000)
            assert got == pytest.approx(1 - alpha / 2, abs=1e-4)

    def test_grid_self_convergence_on_pricing_cases(self):
        scen = pricing_scenario()
        rng = np.random.default_rng(51)
        for _ in range(100):
            t = int(rng.integers(1, 6001))
            x = [float(rng.uniform(1.0, 5.0))]
            coarse = true_cvar(scen.cost, scen.noise, t, x, 0.5, 10_000)
            fine = true_cvar(scen.cost, scen.noise, t, x, 0.5, 100_000)
            assert coarse == pytest.approx(fine, abs=1e-4)

    def test_monotone_in_alpha(self):
        scen = pricing_scenario()
        rng = np.random.default_rng(52)
        for _ in range(50):
            t = int(rng.integers(1, 6001))
            x = [float(rng.uniform(1.0, 5.0))]
            a1, a2 = np.sort(rng.uniform(0.05, 1.0, size=2))
            assert (true_cvar(scen.cost, scen.noise, t, x, a1, 2000)
                    >= true_cvar(scen.cost, scen.noise, t, x, a2, 2000) - 1e-12)

    def test_grid_floor(self):
        noise = constant_uniform(5, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            true_cvar(IDENTITY_COST, noise, 1, [0.0], 0.5, 100)


class TestActionGrid:
    def test_points_are_subinterval_centers(self):
        xs = action_grid(Box([0.0], [1.0]), 4)
        assert xs == pytest.approx([0.125, 0.375, 0.625, 0.875])

    def test_ball_support(self):
        xs = action_grid(Ball([1.0], 2.0), 2)
        assert xs == pytest.approx([0.0, 2.0])

    def test_rejects_multidimensional_sets(self):
        with pytest.raises(ConfigurationError):
            action_grid(Box([0.0, 0.0], [1.0, 1.0]), 10)


class TestOptimalActionGrid:
    # A batch of one step is that step's grid optimum and its CVaR.
    def test_deterministic_quadratic_hits_exact_minimizer(self):
        cost = CostModel(fn=lambda x, xi: (x - 3.0) ** 2 + 0.0 * xi, bound=100.0,
                         lipschitz=20.0)
        noise = constant_uniform(5, 0.0, 0.0)
        x_star, c_star = batch_optimal_actions(cost, noise, [1], Box([1.0], [5.0]),
                                               0.5, k=101, grid_n=1000)
        # grid contains the exact minimizer: centers of 101 cells include 3.0
        assert x_star == pytest.approx([3.0], abs=1e-12)
        assert c_star == pytest.approx(0.0, abs=1e-12)

    def test_monotone_cost_picks_lower_edge_cell(self):
        cost = CostModel(fn=lambda x, xi: x + 0.0 * xi, bound=10.0, lipschitz=1.0)
        noise = constant_uniform(5, 0.0, 1.0)
        x_star, _ = batch_optimal_actions(cost, noise, [1], Box([1.0], [5.0]),
                                          0.5, k=100, grid_n=1000)
        assert x_star == pytest.approx([1.0 + 4.0 / 200.0])

    def test_tie_breaks_toward_smaller_coordinate(self):
        cost = CostModel(fn=lambda x, xi: np.abs(x) * 0.0 + 0.0 * xi + 1.0,
                         bound=10.0, lipschitz=1.0)
        noise = constant_uniform(5, 0.0, 1.0)
        x_star, _ = batch_optimal_actions(cost, noise, [1], Box([1.0], [5.0]),
                                          0.5, k=10, grid_n=1000)
        assert x_star == pytest.approx([1.2])

    def test_pricing_reference_minimizer(self):
        # Exhaustive-grid oracle at the mid-horizon switch; regression anchor.
        scen = pricing_scenario()
        x_star, c_star = batch_optimal_actions(scen.cost, scen.noise, [3000],
                                               scen.region, 0.5, k=100,
                                               grid_n=10_000)
        assert x_star == pytest.approx([2.54], abs=1e-9)
        assert 0.0 < c_star < scen.cost.bound


# Costs convex in x for every noise value, keyed by family; ``c`` shifts and
# ``w`` scales or widens. Hinge costs have a flat bottom of exact zeros, and
# constant costs tie everywhere. Flat costs are constant in x too, but adding
# and subtracting x rounds differently at each action, so their grid CVaR is
# flat only up to rounding and has spurious local minima.
CONVEX_COSTS = {
    "flat": lambda c, w: lambda x, xi: (x + (4.0 + abs(c) + w * xi)) - x,
    "quadratic": lambda c, w: lambda x, xi: w * (x - c - xi) ** 2,
    "hinge": lambda c, w: lambda x, xi: np.maximum(np.abs(x - c - xi) - w, 0.0),
    "linear": lambda c, w: lambda x, xi: (c - 1.0) * x + w * xi,
    "constant": lambda c, w: lambda x, xi: 0.0 * x + 0.0 * xi + c,
}


class TestConvexSearch:
    @pytest.mark.parametrize("scenario, horizon",
                             [("parking", 1500), ("brownian", 500),
                              ("custom", 200)])
    def test_series_equals_exhaustive_scan(self, scenario, horizon):
        scen = build_scenario(ExperimentConfig(scenario=scenario,
                                               horizon=horizon))
        args = (scen.cost, scen.noise, scen.region, 0.5, horizon)
        x_star, c_star = optimal_action_series(*args, k=100, grid_n=2000)
        x_ref, c_ref = scan_series(*args, k=100, grid_n=2000)
        assert x_star == pytest.approx(x_ref, abs=0)
        assert c_star == pytest.approx(c_ref, abs=0)

    @given(family=st.sampled_from(sorted(CONVEX_COSTS)),
           c=st.floats(-2.0, 2.0), w=st.floats(0.0, 2.0),
           k=st.integers(2, 30), low=st.floats(-1.0, 1.0),
           width=st.floats(0.0, 1.0), alpha=st.floats(0.05, 1.0))
    @example(family="flat", c=0.5, w=1.0, k=30, low=0.0, width=0.5,
             alpha=0.25)  # a plain descent walk stops early from 20 starts
    @settings(max_examples=100, deadline=None)
    def test_every_start_finds_the_first_argmin(self, family, c, w, k, low,
                                                width, alpha):
        fn = CONVEX_COSTS[family](c, w)
        xi = _quantile_grid(constant_uniform(1, low, low + width), 1, 1000)
        xs = action_grid(Box([-1.0], [1.0]), k)
        bound = float(np.abs(fn(xs[:, None], xi[None, :])).max()) or 1.0
        cost = CostModel(fn=fn, bound=bound, lipschitz=1.0)
        scan = _grid_cvars(cost, xi, xs, alpha)
        for start in range(k):
            # Lazily from nothing, and seeded with the stencil around the
            # start, as the regret pass seeds it.
            lo = max(start - 1, 0)
            for memo in ({}, dict(enumerate(scan[lo:start + 2], start=lo))):
                i, value = _first_grid_minimum(
                    lambda i: _grid_cvars(cost, xi, xs[i:i + 1], alpha)[0],
                    k, start, 1e-9 * bound, memo)
                assert i == int(np.argmin(scan))
                assert value == scan[i]


class TestDynamicRegret:
    @pytest.mark.parametrize("vectorized, trials", [
        (True, 3), (False, 3), (True, _BLOCK // 1000 + 5), (False, _BLOCK // 1000 + 5),
    ], ids=["True", "False", "True-three-blocks", "False-three-blocks"])
    def test_equals_per_step_true_cvar_loop(self, vectorized, trials):
        # One quantile grid per step serves every trial, evaluated in blocks
        # of rows; the per-step, per-trial true_cvar loop is the reference,
        # matched bit for bit.
        scen = pricing_scenario(horizon=40)
        cost = dataclasses.replace(scen.cost, vectorized=vectorized)
        x_hat = played(*np.random.default_rng(54).uniform(1.0, 5.0,
                                                          size=(trials, 40)))
        report = dynamic_regret(x_hat, cost, scen.noise, scen.region, 0.5,
                                k=50, grid_n=1000)
        for i in range(trials):
            reference = np.array([true_cvar(cost, scen.noise, t, x_hat[i, t - 1],
                                            0.5, grid_n=1000)
                                  for t in range(1, 41)])
            assert np.array_equal(report.played_cvar[i], reference)
            assert np.array_equal(report.cumulative_regret[i],
                                  np.cumsum(reference - report.optimal_cvar))
            assert np.array_equal(report.accumulated_loss[i], np.cumsum(reference))

    @pytest.mark.parametrize("shape", [(3, 1), (1, 0, 1), (1, 3, 2)])
    def test_rejects_played_actions_of_the_wrong_shape(self, shape):
        scen = pricing_scenario(horizon=10)
        with pytest.raises(ConfigurationError, match="played actions"):
            dynamic_regret(np.full(shape, 2.0), scen.cost, scen.noise,
                           scen.region, 0.5, k=10, grid_n=1000)

    def test_playing_the_optimum_gives_zero_regret(self):
        scen = pricing_scenario(horizon=30)
        x_star, c_star = optimal_action_series(scen.cost, scen.noise, scen.region,
                                               0.5, 30, k=50, grid_n=1000)
        report = dynamic_regret(played(x_star), scen.cost, scen.noise,
                                scen.region, 0.5, k=50, grid_n=1000)
        assert report.cumulative_regret[0, -1] == pytest.approx(0.0, abs=1e-12)
        assert report.optimal_actions == pytest.approx(x_star)

    def test_single_step_arithmetic(self):
        cost = CostModel(fn=lambda x, xi: (x - xi) ** 2, bound=100.0, lipschitz=20.0)
        noise = constant_uniform(1, 1.0, 1.0)
        region = Box([0.0], [2.0])
        report = dynamic_regret(played([0.0]), cost, noise, region, 0.5,
                                k=101, grid_n=1000)
        # played cost (0-1)^2 = 1; best grid cell center is at ~1.0 with cost ~0
        assert report.played_cvar[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert report.cumulative_regret[0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_per_step_regret_floor(self):
        # played - optimal >= -(grid spacing) * L0 for any played point
        scen = pricing_scenario(horizon=50)
        rng = np.random.default_rng(53)
        report = dynamic_regret(played(rng.uniform(1.0, 5.0, size=50)),
                                scen.cost, scen.noise, scen.region, 0.5,
                                k=100, grid_n=2000)
        spacing = 4.0 / 100
        gaps = report.played_cvar - report.optimal_cvar
        assert gaps.min() >= -spacing * scen.cost.lipschitz

    @pytest.mark.parametrize("scenario, trials", [
        pytest.param(scenario, trials, id=scenario + suffix)
        for trials, suffix in ((1, ""), (_BLOCK // 1000 + 5, "-two-blocks"))
        for scenario in ("parking", "brownian", "custom")])
    def test_inline_optima_equal_the_series(self, scenario, trials):
        # The regret pass seeds each step's search with the stencil CVaRs of
        # its first block of rows; the lazy optimal_action_series and the
        # exhaustive scan are the references.
        horizon = 120
        scen = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon))
        args = (scen.cost, scen.noise, scen.region, 0.5, horizon)
        x_star, c_star = optimal_action_series(*args, k=40, grid_n=1000)
        x_ref, c_ref = scan_series(*args, k=40, grid_n=1000)
        low, high = scen.region.lower[0], scen.region.upper[0]
        x_hat = np.random.default_rng(55).uniform(low, high, (trials, horizon, 1))
        report = dynamic_regret(x_hat, scen.cost, scen.noise, scen.region, 0.5,
                                k=40, grid_n=1000)
        for actions, values in ((x_star, c_star), (x_ref, c_ref)):
            assert np.array_equal(report.optimal_actions, actions)
            assert np.array_equal(report.optimal_cvar, values)


class TestForkedRegret:
    @pytest.mark.parametrize("scenario, horizon, trials", [
        pytest.param(scenario, horizon, trials, id=f"{scenario}-T{horizon}-{trials}")
        for horizon, trials in ((37, 3), (41, _BLOCK // 1000 + 5))
        for scenario in ("parking", "brownian", "custom")])
    def test_reports_do_not_depend_on_the_job_count(
            self, force_jobs, monkeypatch, scenario, horizon, trials):
        # Each forked step range cold-starts its search; the serial pass,
        # warm-started throughout, is the reference, matched bit for bit.
        scen = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon))
        low, high = scen.region.lower[0], scen.region.upper[0]
        x_hat = np.random.default_rng(56).uniform(low, high, (trials, horizon, 1))
        job_counts = []
        fork_map = oracle.fork_map

        def spy(fn, jobs):
            job_counts.append(len(jobs))
            return fork_map(fn, jobs)

        monkeypatch.setattr(oracle, "fork_map", spy)
        reports = []
        for jobs in (1, 2, 3):
            force_jobs(jobs)
            reports.append(dynamic_regret(x_hat, scen.cost, scen.noise,
                                          scen.region, 0.5, k=40, grid_n=1000))
        assert job_counts == [1, 2, 3]
        for report in reports[1:]:
            for field in dataclasses.fields(RegretReport):
                assert np.array_equal(getattr(report, field.name),
                                      getattr(reports[0], field.name)), field.name


class TestAccumulatedLoss:
    UNIT_BOX = Box([0.0], [1.0])

    def test_zero_cost(self):
        cost = CostModel(fn=lambda x, xi: 0.0 * x + 0.0 * xi, bound=1.0,
                         lipschitz=1.0)
        noise = constant_uniform(10, 0.0, 1.0)
        report = dynamic_regret(played(np.full(10, 0.5)), cost, noise,
                                self.UNIT_BOX, 0.5, k=10, grid_n=1000)
        assert report.accumulated_loss[0] == pytest.approx(np.zeros(10))

    def test_constant_cost_accumulates_linearly(self):
        cost = CostModel(fn=lambda x, xi: 0.0 * x + 0.0 * xi + 3.0, bound=4.0,
                         lipschitz=1.0)
        noise = constant_uniform(10, 0.0, 1.0)
        got = dynamic_regret(played(np.full(10, 0.5)), cost, noise,
                             self.UNIT_BOX, 0.5, k=10, grid_n=1000).accumulated_loss[0]
        assert got == pytest.approx(3.0 * np.arange(1, 11))


class TestBatchOptimalActions:
    def test_static_batch_matches_per_step_optima(self):
        scen = build_scenario(ExperimentConfig(scenario="custom", horizon=20))
        x_batch, _ = batch_optimal_actions(scen.cost, scen.noise, range(1, 21),
                                           scen.region, 0.5, k=100, grid_n=2000)
        x_star, _ = batch_optimal_actions(scen.cost, scen.noise, [1],
                                          scen.region, 0.5, k=100, grid_n=2000)
        assert x_batch == pytest.approx(x_star, abs=0)

    def test_two_step_swap_minimizes_summed_cvar(self):
        noise = UniformSeq(2, left=lambda t: 0.0 if t == 1 else 1.0,
                           right=lambda t: 0.5 if t == 1 else 1.5)
        cost = CostModel(fn=lambda x, xi: (x - xi) ** 2, bound=100.0,
                         lipschitz=20.0)
        region = Box([0.0], [2.0])
        k, grid_n = 200, 2000
        x_batch, total = batch_optimal_actions(cost, noise, [1, 2], region, 0.5,
                                               k=k, grid_n=grid_n)
        xs = action_grid(region, k)
        sums = np.array([
            true_cvar(cost, noise, 1, [x], 0.5, grid_n)
            + true_cvar(cost, noise, 2, [x], 0.5, grid_n) for x in xs
        ])
        assert x_batch[0] == pytest.approx(xs[np.argmin(sums)], abs=0)
        assert total == pytest.approx(sums.min(), abs=1e-12)

    def test_empty_batch_rejected(self):
        scen = pricing_scenario(horizon=10)
        with pytest.raises(ConfigurationError):
            batch_optimal_actions(scen.cost, scen.noise, [], scen.region, 0.5)


class TestBatchVariationInequality:
    def test_batch_optimum_within_twice_batch_variation(self):
        # Sum over the batch of (C_t at the batch optimum - per-step optimum)
        # is at most 2 * batch_size * (summed sup-grid step variation).
        rng = np.random.default_rng(54)
        k, grid_n = 60, 1000
        cost = CostModel(fn=lambda x, xi: (x - xi) ** 2, bound=100.0,
                         lipschitz=20.0)
        region = Box([-1.0], [3.0])
        xs = action_grid(region, k)
        for _ in range(100):
            batch = int(rng.integers(2, 7))
            a1, a2 = rng.uniform(-0.5, 1.5, size=2)
            w1, w2 = rng.uniform(0.1, 1.0, size=2)
            switch = int(rng.integers(2, batch + 1))

            def left(t, a1=a1, a2=a2, switch=switch):
                return a1 if t < switch else a2

            def right(t, a1=a1, a2=a2, w1=w1, w2=w2, switch=switch):
                return a1 + w1 if t < switch else a2 + w2

            noise = UniformSeq(batch, left=left, right=right)
            grid_cvars = np.array([
                [true_cvar(cost, noise, t, [x], 0.5, grid_n) for x in xs]
                for t in range(1, batch + 1)
            ])
            x_batch, batch_sum = batch_optimal_actions(
                cost, noise, range(1, batch + 1), region, 0.5, k=k, grid_n=grid_n)
            per_step_sum = grid_cvars.min(axis=1).sum()
            variation = np.abs(np.diff(grid_cvars, axis=0)).max(axis=1).sum()
            assert batch_sum - per_step_sum <= 2 * batch * variation + 1e-9

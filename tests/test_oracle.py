import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvarlearn import environment, oracle
from cvarlearn.core import Box, ConfigurationError, CostModel, fork_map, fork_ranges
from cvarlearn.environment import UniformSeq, constant_uniform
from cvarlearn.oracle import (
    _BLOCK,
    _cvars,
    _first_grid_minimum,
    _mid_quantiles,
    RegretReport,
    action_grid,
    dynamic_regret,
    optimal_action_series,
    true_cvar,
)
from cvarlearn.harness import (
    ELASTICITY,
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


def scan_series(cost, noise, region, alpha, horizon, k, grid_n):
    """Exhaustive reference: every grid action's CVaR, first ``np.argmin``."""
    xs = action_grid(region, k)
    x_star, c_star = np.empty(horizon), np.empty(horizon)
    for t in range(1, horizon + 1):
        cv = _cvars(cost, noise_grid(noise, t, grid_n), xs, alpha)
        i = int(np.argmin(cv))
        x_star[t - 1], c_star[t - 1] = xs[i], cv[i]
    return x_star, c_star


def optima_series(cost, noise, region, alpha, horizon, k, grid_n):
    """The oracle's optima series: its search pass over steps ``1..horizon``."""
    return optimal_action_series(cost, noise, action_grid(region, k), alpha,
                                 range(horizon), _mid_quantiles(grid_n))


def regret(x_hat, cost, noise, region, alpha, k, grid_n):
    """The played pass of ``x_hat`` against the search pass's series."""
    optima = optima_series(cost, noise, region, alpha, x_hat.shape[1], k, grid_n)
    return dynamic_regret(x_hat, cost, noise, alpha, optima,
                          _mid_quantiles(grid_n))


def step_optimum(cost, noise, region, k, grid_n):
    """The oracle's grid optimum of a one-step sequence and its CVaR."""
    x_star, c_star = optima_series(cost, noise, region, 0.5, 1, k, grid_n)
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
            scen.cost, scen.noise, xs, alpha, range(horizon), _mid_quantiles(grid_n))
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



class TestOptimalActionGrid:
    def test_deterministic_quadratic_hits_exact_minimizer(self):
        cost = CostModel(fn=lambda x, xi: (x - 3.0) ** 2 + 0.0 * xi, bound=100.0,
                         lipschitz=20.0)
        noise = constant_uniform(5, 0.0, 0.0)
        x_star, c_star = step_optimum(cost, noise, Box(1.0, 5.0), k=101,
                                      grid_n=1000)
        # grid contains the exact minimizer: centers of 101 cells include 3.0
        assert x_star == pytest.approx(3.0, abs=1e-12)
        assert c_star == pytest.approx(0.0, abs=1e-12)

    def test_monotone_cost_picks_lower_edge_cell(self):
        cost = CostModel(fn=lambda x, xi: x + 0.0 * xi, bound=10.0, lipschitz=1.0)
        noise = constant_uniform(5, 0.0, 1.0)
        x_star, _ = step_optimum(cost, noise, Box(1.0, 5.0), k=100,
                                 grid_n=1000)
        assert x_star == pytest.approx(1.0 + 4.0 / 200.0)

    def test_tie_breaks_toward_smaller_coordinate(self):
        cost = CostModel(fn=lambda x, xi: np.abs(x) * 0.0 + 0.0 * xi + 1.0,
                         bound=10.0, lipschitz=1.0)
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
    def test_series_equals_exhaustive_scan(self, force_jobs, scenario, horizon):
        # The search pass, cut into 1, 2 and 3 step ranges run in forked
        # jobs, each range cold-started.
        scen = build_scenario(ExperimentConfig(scenario=scenario,
                                               horizon=horizon))
        args = (scen.cost, scen.noise, scen.region, 0.5)
        x_ref, c_ref = scan_series(*args, horizon, k=100, grid_n=2000)
        for jobs in (1, 2, 3):
            force_jobs(jobs)
            ranges = fork_ranges(horizon, 1.0)
            assert len(ranges) == jobs
            parts = fork_map(functools.partial(
                optimal_action_series, scen.cost, scen.noise,
                action_grid(scen.region, 100), 0.5, levels=_mid_quantiles(2000)),
                ranges)
            x_star, c_star = (np.concatenate(part) for part in zip(*parts))
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
        xi = noise_grid(constant_uniform(1, low, low + width), 1, 1000)
        xs = action_grid(Box(-1.0, 1.0), k)
        bound = float(np.abs(fn(xs[:, None], xi[None, :])).max()) or 1.0
        cost = CostModel(fn=fn, bound=bound, lipschitz=1.0)
        scan = _cvars(cost, xi, xs, alpha)
        for start in range(k):
            # Lazily from nothing, and seeded with the stencil around the
            # start, as the regret pass seeds it.
            lo = max(start - 1, 0)
            for memo in ({}, dict(enumerate(scan[lo:start + 2], start=lo))):
                i, value = _first_grid_minimum(
                    lambda i: _cvars(cost, xi, xs[i:i + 1], alpha)[0],
                    k, start, 1e-9 * bound, memo)
                assert i == int(np.argmin(scan))
                assert value == scan[i]


class TestPassQuantiles:
    def test_each_pass_makes_its_standard_quantiles_once(self, monkeypatch,
                                                         force_jobs):
        # Gaussian standard quantiles: every _ndtri call of an ablation is
        # one oracle pass's levels, or a block of the learners' draws. Each
        # pass cuts its 200 steps into four blocks of at most _BLOCK values.
        config = ExperimentConfig(scenario="brownian", horizon=200, batch_size=10,
                                  trials=2, oracle_k=20, oracle_grid=1000)
        calls = []

        def spy(q):
            calls.append(np.array(q))
            return ndtri(q)

        ndtri = environment._ndtri
        monkeypatch.setattr(environment, "_ndtri", spy)
        force_jobs(1)
        run_ablation(config, [4, 8], write=False)
        levels = _mid_quantiles(config.oracle_grid)
        on_levels = [q for q in calls if np.array_equal(q, levels)]
        draws = [q for q in calls if not np.array_equal(q, levels)]
        assert len(on_levels) == 2
        assert sum(q.size for q in draws) == config.trials * config.horizon * (4 + 8)
        assert all(q.ndim == 2 and q.shape[0] == config.trials for q in draws)


class TestDynamicRegret:
    @pytest.mark.parametrize("trials", [3, _BLOCK // 1000 + 5],
                             ids=["one-block", "three-blocks"])
    def test_equals_per_step_true_cvar_loop(self, trials):
        # One quantile grid per step serves every trial, evaluated in blocks
        # of rows; the per-step, per-trial true_cvar loop is the reference,
        # matched bit for bit.
        scen = pricing_scenario(horizon=40)
        x_hat = played(*np.random.default_rng(54).uniform(1.0, 5.0,
                                                          size=(trials, 40)))
        report = regret(x_hat, scen.cost, scen.noise, scen.region, 0.5, k=50,
                        grid_n=1000)
        for i in range(trials):
            reference = np.array([true_cvar(scen.cost, scen.noise, t,
                                            x_hat[i, t - 1], 0.5, grid_n=1000)
                                  for t in range(1, 41)])
            assert np.array_equal(report.played_cvar[i], reference)
            assert np.array_equal(report.cumulative_regret[i],
                                  np.cumsum(reference - report.optimal_cvar))
            assert np.array_equal(report.accumulated_loss[i], np.cumsum(reference))

    @pytest.mark.parametrize("shape", [(10,), (1, 3), (1, 10, 1)])
    def test_rejects_played_actions_of_the_wrong_shape(self, shape):
        scen = pricing_scenario(horizon=10)
        with pytest.raises(ConfigurationError, match="played actions"):
            dynamic_regret(np.full(shape, 2.0), scen.cost, scen.noise, 0.5,
                           optima_series(scen.cost, scen.noise, scen.region,
                                         0.5, 10, k=10, grid_n=1000),
                           _mid_quantiles(1000))

    def test_playing_the_optimum_gives_zero_regret(self):
        scen = pricing_scenario(horizon=30)
        x_star, c_star = optima_series(scen.cost, scen.noise, scen.region,
                                       0.5, 30, k=50, grid_n=1000)
        report = regret(played(x_star), scen.cost, scen.noise, scen.region,
                        0.5, k=50, grid_n=1000)
        assert report.cumulative_regret[0, -1] == pytest.approx(0.0, abs=1e-12)
        assert report.optimal_actions == pytest.approx(x_star)

    def test_single_step_arithmetic(self):
        cost = CostModel(fn=lambda x, xi: (x - xi) ** 2, bound=100.0, lipschitz=20.0)
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
        args = (scen.cost, scen.noise, scen.region, 0.5, horizon)
        x_star, c_star = optima_series(*args, k=40, grid_n=1000)
        x_ref, c_ref = scan_series(*args, k=40, grid_n=1000)
        low, high = scen.region.lower, scen.region.upper
        x_hat = np.random.default_rng(55).uniform(low, high, (trials, horizon))
        report = regret(x_hat, scen.cost, scen.noise, scen.region, 0.5, k=40,
                        grid_n=1000)
        for actions, values in ((x_star, c_star), (x_ref, c_ref)):
            assert np.array_equal(report.optimal_actions, actions)
            assert np.array_equal(report.optimal_cvar, values)


class TestForkedRegret:
    @pytest.mark.parametrize("scenario, horizon, trials", [
        pytest.param(scenario, horizon, trials, id=f"{scenario}-T{horizon}-{trials}")
        for horizon, trials in ((37, 3), (41, _BLOCK // 1000 + 5), (43, 0))
        for scenario in ("parking", "brownian", "custom")])
    def test_reports_do_not_depend_on_the_job_count(
            self, force_jobs, monkeypatch, scenario, horizon, trials):
        # The played pass cut into 1, 2 and 3 forked step ranges; the serial
        # pass is the reference, matched bit for bit. Zero trials give an
        # empty played pass.
        scen = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon))
        low, high = scen.region.lower, scen.region.upper
        x_hat = np.random.default_rng(56).uniform(low, high, (trials, horizon))
        job_counts = []
        fork_map = oracle.fork_map

        def spy(fn, jobs):
            job_counts.append(len(jobs))
            return fork_map(fn, jobs)

        monkeypatch.setattr(oracle, "fork_map", spy)
        reports = []
        for jobs in (1, 2, 3):
            force_jobs(jobs)
            reports.append(regret(x_hat, scen.cost, scen.noise, scen.region,
                                  0.5, k=40, grid_n=1000))
        assert job_counts == [1, 2, 3]
        assert reports[0].played_cvar.shape == (trials, horizon)
        for report in reports[1:]:
            for field in dataclasses.fields(RegretReport):
                assert np.array_equal(getattr(report, field.name),
                                      getattr(reports[0], field.name)), field.name


class TestAccumulatedLoss:
    UNIT_BOX = Box(0.0, 1.0)

    def test_zero_cost(self):
        cost = CostModel(fn=lambda x, xi: 0.0 * x + 0.0 * xi, bound=1.0,
                         lipschitz=1.0)
        noise = constant_uniform(10, 0.0, 1.0)
        report = regret(played(np.full(10, 0.5)), cost, noise, self.UNIT_BOX,
                        0.5, k=10, grid_n=1000)
        assert report.accumulated_loss[0] == pytest.approx(np.zeros(10))

    def test_constant_cost_accumulates_linearly(self):
        cost = CostModel(fn=lambda x, xi: 0.0 * x + 0.0 * xi + 3.0, bound=4.0,
                         lipschitz=1.0)
        noise = constant_uniform(10, 0.0, 1.0)
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

import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from cvarlearn.core import Box, ConfigurationError, CostModel
from cvarlearn import harness, learner
from cvarlearn._pcg64 import Stream
from cvarlearn.environment import BrownianSeq, constant_uniform, parking_noise
from cvarlearn.harness import ExperimentConfig, build_scenario
from cvarlearn.learner import LearnerConfig, Trace, _draws, run_trials
from cvarlearn.risk import cvar_of_values
from cvarlearn.schedule import batch_epoch, inverse_epoch_rates, polynomial_counts


def make_config(batch_size=10, count=4, eta=0.05, **overrides):
    """A learner config; unless ``counts`` or ``rates`` is given, the
    schedule is the constant ``count`` and ``eta`` columns of length
    ``batch_size``."""
    base = dict(delta=0.05, alpha=0.5, counts=np.full(batch_size, count),
                rates=np.full(batch_size, eta), x0=0.5)
    base.update(overrides)
    return LearnerConfig(**base)


def run(config, cost, noise, region, seed=0):
    """Single-trial trace of one seed."""
    return run_trials(config, cost, noise, region, [seed])


def step_costs(trace, config, cost, noise, seeds):
    """Each step's sampled costs ``(trials, n_t)`` at the played actions,
    rebuilt from the trials' generators step by step, each step's uniforms
    turned into noise on their own; checked bit for bit against the trace's
    directions and CVaR estimates."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    costs = []
    for s, n in enumerate(trace.n_samples):
        xi = np.empty((len(rngs), n))
        for i, rng in enumerate(rngs):
            assert trace.u[i, s] == (1.0 if rng.random() < 0.5 else -1.0)
            xi[i] = noise.quantile(trace.t[s], rng.random(n))
        costs.append(cost.rows(trace.x_hat[:, s], xi))
        assert np.array_equal(cvar_of_values(costs[-1], config.alpha),
                              trace.cvar_estimate[:, s])
    return costs


ZERO_COST = CostModel(fn=lambda x, xi: 0.0 * x + 0.0 * xi, bound=1.0, lipschitz=1.0)
QUADRATIC_COST = CostModel(fn=lambda x, xi: (x - 2.0) ** 2 + 0.0 * xi,
                           bound=100.0, lipschitz=20.0, strong_convexity=2.0)


class TestRunBasics:
    def test_zero_cost_is_a_fixed_point(self):
        region = Box(0.0, 4.0)
        noise = constant_uniform(50, 0.0, 1.0)
        trace = run(make_config(), ZERO_COST, noise, region)
        assert trace.x.shape == (1, 50)
        assert np.all(trace.cvar_estimate == 0.0)
        assert trace.gradient.ravel() == pytest.approx(np.zeros(50))
        assert trace.x.ravel() == pytest.approx(np.full(50, 0.5))

    def test_record_self_consistency(self):
        region = Box(1.0, 5.0)
        noise = parking_noise(100)
        config = make_config(batch_size=20, x0=1.5, count=8)
        trace = run_trials(config, pricing_cost(), noise, region, [0, 1])
        costs = step_costs(trace, config, pricing_cost(), noise, [0, 1])
        assert np.array_equal(trace.x_hat, trace.x + config.delta * trace.u)
        assert np.array_equal(
            trace.gradient, (1 / config.delta) * trace.cvar_estimate * trace.u)
        for step, n_t in zip(costs, trace.n_samples, strict=True):
            assert step.shape == (2, n_t)

    def test_exact_record_count_with_short_final_batch(self):
        region = Box(0.0, 4.0)
        noise = constant_uniform(25, 0.0, 1.0)
        trace = run(make_config(batch_size=10), ZERO_COST, noise,
                    region)
        assert trace.t.tolist() == list(range(1, 26))
        assert trace.batch[-1] == 3 and trace.epoch[-1] == 5

    def test_initial_point_projected_into_shrunk_set(self):
        region = Box(0.0, 4.0)
        noise = constant_uniform(10, 0.0, 1.0)
        trace = run(make_config(x0=0.0), ZERO_COST, noise, region)
        assert trace.x[0, 0] == pytest.approx(0.05)


@pytest.mark.parametrize("horizon", [1, 2, 37])
@pytest.mark.parametrize("scenario", ["parking", "custom", "brownian"])
def test_a_run_steps_through_every_step_of_its_noise(scenario, horizon):
    scen = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon))
    trace = run_trials(make_config(), scen.cost, scen.noise, scen.region, [0, 1, 2])
    assert np.array_equal(trace.t, np.arange(1, horizon + 1))
    for field in dataclasses.fields(Trace):
        column = getattr(trace, field.name)
        assert column.shape == ((horizon,) if column.ndim == 1 else (3, horizon))


def pricing_cost():
    def fn(x, xi):
        return (xi - 0.15 * x - 0.7) ** 2 + 0.0005 * x ** 2

    return CostModel(fn=fn, bound=0.41, lipschitz=0.2, strong_convexity=0.046)


class TestConvergence:
    def test_deterministic_quadratic_converges(self):
        # Effective step is eta*(d/delta)*J; 0.01*20 = 0.2 keeps the recursion
        # contractive from anywhere in the box, so the tail must settle at the
        # minimizer. (With eta = delta the step equals J itself and the
        # iterates bounce between the box faces instead of converging.)
        region = Box(0.0, 4.0)
        noise = constant_uniform(2000, 0.0, 1.0)
        config = make_config(batch_size=500, delta=0.05,
                             count=1, eta=0.01, x0=0.5)
        trace = run(config, QUADRATIC_COST, noise, region, seed=3)
        tail = trace.x[0, -100:]
        assert abs(tail.mean() - 2.0) <= 0.1

    def test_matches_independent_scalar_recursion(self):
        # The same recursion written out as plain scalar arithmetic, run on an
        # identical generator stream, must reproduce the trajectory bit for
        # bit (checked for two step sizes, including a non-contractive one).
        region = Box(0.0, 4.0)
        noise = constant_uniform(2000, 0.0, 1.0)
        for eta in (0.05, 0.01):
            config = make_config(batch_size=500, delta=0.05,
                                 count=1, eta=eta, x0=0.5)
            trace = run(config, QUADRATIC_COST, noise, region, seed=3)
            rng = np.random.default_rng(3)
            x = 0.5
            lo, hi = 0.05, 3.95
            oracle_traj = []
            for t in range(1, 2001):
                oracle_traj.append(x)
                u = 1.0 if rng.random() < 0.5 else -1.0
                rng.random(1)  # the noise draw the cost ignores
                x_hat = x + 0.05 * u
                grad = (1.0 / 0.05) * (x_hat - 2.0) ** 2 * u
                x = min(max(x - eta * grad, lo), hi)
            got = trace.x[0]
            assert got == pytest.approx(np.array(oracle_traj), abs=1e-12)

    def test_nonfinite_cost_rejected(self):
        region = Box(0.0, 4.0)
        noise = constant_uniform(10, 0.0, 1.0)
        bad = CostModel(fn=lambda x, xi: 0.0 * x + xi / xi - 1.0 + np.nan,
                        bound=1.0, lipschitz=1.0)
        with pytest.raises(ConfigurationError):
            run(make_config(), bad, noise, region)

    def test_feasibility_throughout(self):
        region = Box(1.0, 5.0)
        noise = parking_noise(400)
        config = make_config(batch_size=100, x0=1.0, count=8,
                             eta=0.03)
        trace = run(config, pricing_cost(), noise, region)
        inner = region.shrink(config.delta)
        assert inner.contains(trace.x[0])
        assert region.contains(trace.x_hat[0])


# Each schedule column: its builder over a batch of a given size, and the
# per-epoch Python formula of its entries.
COUNT_COLUMNS = {
    "constant": (lambda size: np.full(size, 4), lambda tau, size: 4),
    "polynomial": (lambda size: polynomial_counts(0.7, 1.5, size),
                   lambda tau, size: math.ceil(1.5 * (size - tau + 1) ** 0.7)),
}
RATE_COLUMNS = {
    "constant": (lambda size: np.full(size, 0.05), lambda tau: 0.05),
    "inverse": (lambda size: inverse_epoch_rates(0.3, size),
                lambda tau: 1.0 / (0.3 * tau)),
}


class TestDeterminismAndRestarts:
    def test_bit_identical_repeat(self):
        region = Box(1.0, 5.0)
        noise = parking_noise(120)
        config = make_config(batch_size=30, x0=1.2, count=5)
        first = run(config, pricing_cost(), noise, region, seed=11)
        second = run(config, pricing_cost(), noise, region, seed=11)
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.x_hat, second.x_hat)
        for a, b in zip(step_costs(first, config, pricing_cost(), noise, [11]),
                        step_costs(second, config, pricing_cost(), noise, [11]),
                        strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(first.cvar_estimate, second.cvar_estimate)

    def test_seed_changes_trajectory(self):
        region = Box(1.0, 5.0)
        noise = parking_noise(60)
        kwargs = dict(batch_size=30, x0=1.2, count=5)
        a = run(make_config(**kwargs), pricing_cost(), noise, region, seed=1)
        b = run(make_config(**kwargs), pricing_cost(), noise, region, seed=0)
        assert not np.array_equal(a.x_hat, b.x_hat)

    def test_schedule_resets_at_batch_boundaries(self):
        region = Box(0.0, 4.0)
        noise = constant_uniform(90, 0.0, 1.0)
        config = make_config(count=3,
                             rates=inverse_epoch_rates(2.0, 30), batch_size=30)
        trace = run(config, ZERO_COST, noise, region)
        for t, epoch, eta in zip(trace.t, trace.epoch, trace.eta):
            if t in (1, 31, 61):
                assert epoch == 1
                assert eta == pytest.approx(0.5)
        etas = dict(zip(trace.epoch.tolist(), trace.eta.tolist()))
        for tau, eta in etas.items():
            assert eta == pytest.approx(1.0 / (2.0 * tau))

    @pytest.mark.parametrize("rate", list(RATE_COLUMNS))
    @pytest.mark.parametrize("sampling", list(COUNT_COLUMNS))
    @pytest.mark.parametrize("batch_size", [2, 7, 200])
    def test_schedule_columns_equal_per_step_calls(self, batch_size, sampling,
                                                   rate):
        # The closed-form columns are the per-step batch_epoch values and the
        # per-epoch count and rate formulas, with the dtypes the CSV formats
        # them by.
        counts, count = COUNT_COLUMNS[sampling]
        rates, eta = RATE_COLUMNS[rate]
        for horizon in (1, batch_size - 1, batch_size, batch_size + 1, 6000):
            config = make_config(counts=counts(batch_size), rates=rates(batch_size))
            t = np.arange(1, horizon + 1)
            batch, epoch = np.array([batch_epoch(s, batch_size) for s in t]).T
            reference = (t, batch, epoch,
                         np.array([count(int(tau), batch_size) for tau in epoch]),
                         np.array([eta(int(tau)) for tau in epoch], dtype=float))
            columns = learner._schedule(config, horizon)
            for got, want in zip(columns, reference, strict=True):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_decision_carries_over_restarts(self):
        region = Box(1.0, 5.0)
        noise = parking_noise(60)
        config = make_config(batch_size=30, x0=1.5, count=4)
        trace = run(config, pricing_cost(), noise, region)
        boundary, before = 30, 29  # column indices of t = 31 and t = 30
        step = trace.eta[before] * trace.gradient[0, before]
        inner = region.shrink(config.delta)
        assert np.array_equal(trace.x[0, boundary],
                              inner.project(trace.x[0, before] - step))


def brownian_case():
    # 24 samples: a CVaR sums enough of them that the order of the sum, which
    # the costs' memory layout sets, shows in the last bits.
    horizon = 150
    cost = CostModel(fn=lambda x, xi: (x - xi) ** 2, bound=16.0, lipschitz=8.0,
                     strong_convexity=2.0)
    return (Box(-2.0, 2.0), cost, BrownianSeq(horizon, 1e-3),
            make_config(batch_size=50, x0=1.0, count=24,
                        eta=0.03))


LOCKSTEP_CASES = {
    "parking-box": lambda: (
        Box(1.0, 5.0), pricing_cost(), parking_noise(150),
        make_config(batch_size=50, x0=1.0, count=8, eta=0.03)),
    "polynomial": lambda: (
        Box(1.0, 5.0), pricing_cost(), parking_noise(120),
        make_config(x0=2.0, counts=polynomial_counts(0.5, 1.0, 40),
                    rates=inverse_epoch_rates(2.0, 40))),
    "brownian": brownian_case,
}


class TestLockstep:
    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_trial_equals_single_seed_run(self, case):
        # Trial i of a lockstep run is the run of seed base + i on its own.
        region, cost, noise, config = LOCKSTEP_CASES[case]()
        base = 5
        seeds = [base, base + 1, base + 2]
        together = run_trials(config, cost, noise, region, seeds)
        together_costs = step_costs(together, config, cost, noise, seeds)
        if case == "polynomial":
            assert len(set(together.n_samples.tolist())) > 1
        for i in range(3):
            alone = run(config, cost, noise, region, seed=base + i)
            for name in ("x", "u", "x_hat", "cvar_estimate", "gradient"):
                assert np.array_equal(getattr(together, name)[i],
                                      getattr(alone, name)[0]), name
            alone_costs = step_costs(alone, config, cost, noise, [base + i])
            for both, one in zip(together_costs, alone_costs, strict=True):
                assert np.array_equal(both[i], one[0])


# sha256 of the "polynomial" case's trace over seeds 5, 6 and 7: the dtype
# and bytes of every column, recorded from the per-epoch strategy classes
# that the schedule columns replaced.
POLYNOMIAL_TRACE_SHA256 = (
    "9b86eec89d8a5137782208c35f23a7651bb5faf2c6e3ab84a030b7b841917c16")


def test_polynomial_counts_and_inverse_rates_trace_is_pinned():
    region, cost, noise, config = LOCKSTEP_CASES["polynomial"]()
    trace = run_trials(config, cost, noise, region, [5, 6, 7])
    digest = hashlib.sha256()
    for field in dataclasses.fields(Trace):
        column = getattr(trace, field.name)
        digest.update(column.dtype.str.encode())
        digest.update(column.tobytes())
    assert digest.hexdigest() == POLYNOMIAL_TRACE_SHA256


class TestDraws:
    @pytest.mark.parametrize("counts", [np.full(25, 8), polynomial_counts(0.5, 1.0, 25)],
                             ids=["constant", "polynomial"])
    def test_one_dimensional_stream_equals_per_step_draws(self, monkeypatch,
                                                          counts):
        # One draw per block of a trial's stream, split at the step
        # boundaries and turned into noise in one call, gives each step's
        # direction and the noise of its uniforms as drawn step by step:
        # with one step per block, a few, and the whole stream in one. Each
        # trial's noise values lie next to each other (C order).
        n_samples = np.array([counts[batch_epoch(t, 25).epoch - 1]
                              for t in range(1, 61)])
        noise = parking_noise(60)  # t = 1, 2 are point masses
        seeds = [3, 4, 9]
        for block in (1, 100, 2 ** 62):
            monkeypatch.setattr(learner, "_BLOCK", block)
            steps = list(_draws([np.random.default_rng(s) for s in seeds],
                                n_samples, noise))
            assert len(steps) == n_samples.size
            rngs = [np.random.default_rng(s) for s in seeds]
            for t, ((u, xi), n) in enumerate(zip(steps, n_samples), start=1):
                assert u.shape == (3,) and xi.shape == (3, n)
                assert xi.strides[1] == xi.itemsize
                for i, rng in enumerate(rngs):
                    assert u[i] == (1.0 if rng.random() < 0.5 else -1.0)
                    assert np.array_equal(xi[i], noise.quantile(t, rng.random(n)))

    def test_a_block_of_short_steps_holds_little_beside_its_values(self):
        # One trial and one sample: a block of 2^16 values is 2^15 steps.
        # Each step's views are made as it is yielded, so the draws' traced
        # peak stays within the size check's bytes a block value; all of a
        # block's views made at once took twice that.
        steps = learner._BLOCK // 2
        noise = constant_uniform(steps, 0.85, 1.1)
        Stream(0).random(1)  # the table that every stream shares, built once
        tracemalloc.start()
        try:
            for _ in _draws([Stream(0)], np.ones(steps, dtype=np.int64), noise):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= harness._DRAW_BYTES * learner._BLOCK

    @pytest.mark.parametrize("block", [1, 100, 2 ** 62],
                             ids=["step", "hundred", "stream"])
    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_trace_does_not_depend_on_the_block_cap(self, monkeypatch, case,
                                                    block):
        # One step per block, a few, and the whole stream in one block give
        # the default blocks' trace, and the directions and CVaR estimates of
        # the draws made step by step.
        region, cost, noise, config = LOCKSTEP_CASES[case]()
        seeds = [5, 6, 7]
        reference = run_trials(config, cost, noise, region, seeds)
        monkeypatch.setattr(learner, "_BLOCK", block)
        trace = run_trials(config, cost, noise, region, seeds)
        for field in dataclasses.fields(Trace):
            assert np.array_equal(getattr(trace, field.name),
                                  getattr(reference, field.name)), field.name
        step_costs(trace, config, cost, noise, seeds)


class TestBounds:
    def test_cvar_estimate_within_declared_bound(self):
        region = Box(1.0, 5.0)
        noise = parking_noise(300)
        cost = pricing_cost()
        config = make_config(batch_size=100, x0=2.0, count=8)
        trace = run(config, cost, noise, region)
        assert np.abs(trace.cvar_estimate).max() <= cost.bound
        assert np.abs(trace.gradient).max() <= cost.bound / config.delta + 1e-12


class TestValidation:
    def test_delta_must_be_below_inradius(self):
        region = Box(0.0, 1.0)
        noise = constant_uniform(10, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            run(make_config(delta=0.6), ZERO_COST, noise, region)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            make_config(alpha=1.5)

    @pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_decision_rejected(self, x0):
        with pytest.raises(ConfigurationError, match="x0"):
            make_config(x0=x0)

    def test_a_played_action_outside_the_set_is_caught(self):
        # A set whose shrink does not shrink leaves an initial decision on
        # its edge there, so the first perturbation away from the set plays
        # outside it.
        class Unshrunk(Box):
            def shrink(self, delta):
                return self

        region = Unshrunk(0.0, 4.0)
        noise = constant_uniform(10, 0.0, 1.0)
        for x0 in (0.0, 4.0):
            with pytest.raises(RuntimeError, match=r"feasibility violated at t=1\b"):
                run_trials(make_config(x0=x0), ZERO_COST, noise,
                           region, range(8))

    def test_a_run_needs_a_seed(self):
        noise = constant_uniform(10, 0.0, 1.0)
        with pytest.raises(ConfigurationError, match="^a run needs at least one seed$"):
            run_trials(make_config(), ZERO_COST, noise, Box(0.0, 4.0), [])

    def test_trials_beyond_the_address_space_fail_before_any_stream(
            self, monkeypatch):
        # The trace's columns are allocated from the seed count before any
        # generator is seeded, so NumPy refuses such a count at once instead
        # of the run seeding streams until it is killed.
        built = []

        def counted(seed):
            built.append(seed)
            if len(built) >= 1000:
                raise AssertionError("streams seeded before the columns exist")
            return stream(seed)

        stream = learner.Stream
        monkeypatch.setattr(learner, "Stream", counted)
        noise = constant_uniform(10, 0.0, 1.0)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            run_trials(make_config(), ZERO_COST, noise, Box(0.0, 4.0),
                       range(10 ** 15))
        assert built == []

    @pytest.mark.parametrize("count", [2.5, 2.0])
    def test_float_count_column_rejected(self, count):
        # Rejected, never truncated, also where the values are integral.
        with pytest.raises(ConfigurationError, match="sample counts must be integers"):
            make_config(count=count)

    def test_count_below_one_names_the_first_bad_epoch(self):
        counts = np.array([3, 2, 0, 1, -1, 4, 4, 4, 4, 4])
        with pytest.raises(ConfigurationError,
                           match="sample count must be >= 1, got 0 at epoch 3$"):
            make_config(counts=counts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    def test_rate_that_is_not_positive_and_finite_rejected(self, bad):
        rates = np.full(10, 0.05)
        rates[[1, 6]] = bad
        with pytest.raises(ConfigurationError, match=re.escape(
                f"learning rate eta={bad} must be positive and finite at epoch 2")):
            make_config(rates=rates)

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "of one length, got (10,) sample counts and (9,) learning rates")):
            make_config(rates=np.full(9, 0.05))

    @pytest.mark.parametrize("size", [0, 1])
    def test_batch_below_two_rejected(self, size):
        with pytest.raises(ConfigurationError, match=f"batch size must be >= 2, got {size}"):
            make_config(batch_size=size)

    def test_a_column_of_two_dimensions_rejected(self):
        with pytest.raises(ConfigurationError, match="must be one-dimensional"):
            make_config(counts=np.full((2, 5), 4), rates=np.full((2, 5), 0.05))

    def test_columns_are_read_only_copies(self):
        counts, rates = np.full(10, 4), np.full(10, 0.05)
        config = make_config(counts=counts, rates=rates)
        counts[0], rates[0] = 9, 9.0
        assert config.counts[0] == 4 and config.rates[0] == 0.05
        for column in (config.counts, config.rates):
            with pytest.raises(ValueError):
                column[0] = 1

import dataclasses
import errno
import os
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarlearn import core, harness
from cvarlearn.core import (MEMBERSHIP_TOL, Box, ConfigurationError, CostModel,
                            Quadratic, fork_map, fork_ranges)
from cvarlearn.environment import (BrownianSeq, constant_uniform, parking_noise,
                                   parking_range, w1_numeric)
from cvarlearn.oracle import action_grid, true_cvar
from cvarlearn.risk import cvar_of_values, dkw_epsilon
from cvarlearn.schedule import (batch_epoch, check_sampling_requirement,
                                inverse_epoch_rates, polynomial_counts,
                                theorem1_params, theorem2_params)


def random_box(rng):
    lo = float(rng.uniform(-5, 5))
    return Box(lo, lo + float(rng.uniform(0.5, 4.0)))


class TestProject:
    def test_box_clamps_below(self):
        assert Box(1.0, 5.0).project(0.0) == 1.0

    def test_box_interior_fixed_point(self):
        box = Box(1.0, 5.0)
        assert box.project(3.0) == 3.0

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            region = random_box(rng)
            once = region.project(rng.uniform(-10, 10))
            assert region.project(once) == once

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            region = random_box(rng)
            x, y = rng.uniform(-10, 10, size=2)
            assert abs(region.project(x) - region.project(y)) <= abs(x - y)

    def test_rows_match_single_points(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            region = random_box(rng)
            points = rng.uniform(-10, 10, size=5)
            assert np.array_equal(region.project(points),
                                  np.array([region.project(x) for x in points]))
            assert region.contains(points) == all(region.contains(x) for x in points)
            inner = region.project(points)
            assert region.contains(inner)

    def test_same_bits_as_clip(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            region = random_box(rng)
            points = rng.uniform(-10, 10, size=50)
            assert np.array_equal(region.project(points),
                                  np.clip(points, region.lower, region.upper))

    def test_membership_tolerance(self):
        box = Box(1.0, 5.0)
        assert box.contains([1.0 - MEMBERSHIP_TOL / 2, 5.0 + MEMBERSHIP_TOL / 2])
        assert not box.contains(5.0 + 2 * MEMBERSHIP_TOL)
        assert not box.contains([3.0, np.nan])

    def test_result_is_member(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            region = random_box(rng)
            assert region.contains(region.project(rng.uniform(-10, 10)))


class TestShrunkSet:
    def test_box_scales_about_center(self):
        inner = Box(1.0, 5.0).shrink(0.5)
        assert inner.lower == pytest.approx(1.5)
        assert inner.upper == pytest.approx(4.5)

    def test_zero_delta_is_identity(self):
        box = Box(1.0, 5.0)
        inner = box.shrink(0.0)
        assert (inner.lower, inner.upper) == (box.lower, box.upper)

    def test_delta_at_inradius_rejected(self):
        with pytest.raises(ConfigurationError):
            Box(1.0, 5.0).shrink(2.0)

    def test_perturbations_stay_feasible(self):
        # Either delta-length perturbation of a shrunk-set point stays admissible.
        rng = np.random.default_rng(4)
        for _ in range(1000):
            region = random_box(rng)
            delta = float(rng.uniform(0.0, 0.95 * region.inradius))
            inner = region.shrink(delta)
            x = inner.project(rng.uniform(-10, 10))
            assert region.contains([x + delta, x - delta])

    def test_nesting(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            region = random_box(rng)
            d_small, d_big = np.sort(rng.uniform(0.0, 0.9 * region.inradius, size=2))
            bigger_shrink = region.shrink(d_big)
            smaller_shrink = region.shrink(d_small)
            point = bigger_shrink.project(rng.uniform(-10, 10))
            assert smaller_shrink.contains(point)


class TestDiameterAndInradius:
    def test_box_inradius_is_min_halfwidth(self):
        assert Box(0.0, 2.0).inradius == pytest.approx(1.0)

    @pytest.mark.parametrize("lower, upper", [
        (1.0, 1.0), (2.0, 1.0), (np.nan, 1.0), (0.0, np.nan),
        (-np.inf, 1.0), (0.0, np.inf),
    ], ids=["empty", "reversed", "nan-lower", "nan-upper", "inf-lower", "inf-upper"])
    def test_invalid_bounds_rejected(self, lower, upper):
        with pytest.raises(ConfigurationError):
            Box(lower, upper)


class TestCostModelRows:
    COST = CostModel(fn=lambda x, xi: (x - xi) ** 2, bound=1.0, lipschitz=1.0)

    def test_equals_one_call_per_row(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=4)
        for xi in (rng.uniform(-1, 1, size=(4, 6)), rng.uniform(-1, 1, size=(1, 6))):
            rows = np.broadcast_to(xi, (4, 6))
            assert np.array_equal(self.COST.rows(x, xi),
                                  np.array([self.COST(x[r], rows[r]) for r in range(4)]))

    @pytest.mark.parametrize("fn", [lambda x, xi: xi, lambda x, xi: 0.0],
                             ids=["ignores-decisions", "scalar"])
    def test_rejects_a_cost_of_the_wrong_shape(self, fn):
        cost = CostModel(fn=fn, bound=1.0, lipschitz=1.0)
        with pytest.raises(ConfigurationError, match="returned shape"):
            cost.rows(np.zeros(3), np.zeros((1, 5)))


def derivative(rule, x, xi):
    """``dJ/dx`` of a ``Quadratic`` rule, factored otherwise than ``model``'s."""
    return 2.0 * (rule.slope * (xi + rule.slope * x - rule.level) + rule.weight * x)


nonzero = st.floats(0.01, 10.0).flatmap(lambda v: st.sampled_from([v, -v]))
finite = st.floats(-10.0, 10.0)


class TestQuadraticModel:
    @given(slope=nonzero, level=finite, weight=st.floats(0.0, 10.0), lower=finite,
           width=st.floats(0.01, 10.0), xi_lower=finite, xi_width=st.floats(0.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bounds_hold_on_the_domain_and_are_reached_at_a_corner(
            self, slope, level, weight, lower, width, xi_lower, xi_width, seed):
        rule = Quadratic(slope, level, weight)
        region, xi_bounds = Box(lower, lower + width), (xi_lower, xi_lower + xi_width)
        model = rule.model(region, xi_bounds)
        assert model.fn is rule
        assert model.strong_convexity == 2.0 * slope ** 2 + 2.0 * weight
        rng = np.random.default_rng(seed)
        x = rng.uniform(region.lower, region.upper, 200)
        xi = rng.uniform(*xi_bounds, 200)
        assert np.all(np.abs(rule(x, xi)) <= model.bound * (1 + 1e-12))
        assert np.all(np.abs(derivative(rule, x, xi)) <= model.lipschitz * (1 + 1e-12))
        cx, cxi = np.meshgrid([region.lower, region.upper], xi_bounds)
        assert model.bound == np.abs(rule(cx, cxi)).max()
        assert model.lipschitz == pytest.approx(
            np.abs(derivative(rule, cx, cxi)).max(), rel=1e-12)

    @pytest.mark.parametrize("fields", [
        dict(slope=1.0, weight=-1e-300), dict(slope=1.0, weight=-1.0),
        *(dict({"slope": 1.0, name: bad}) for name in ("slope", "level", "weight")
          for bad in (np.nan, np.inf, -np.inf))])
    def test_a_negative_weight_or_a_non_finite_field_is_rejected(self, fields):
        with pytest.raises(ConfigurationError):
            Quadratic(**fields)

    def test_a_zero_weight_and_a_zero_slope_are_accepted(self):
        assert Quadratic(slope=0.0, level=1.0, weight=0.0)(2.0, 3.0) == 4.0


#: A call of every count or step argument of the library with a fractional value.
FRACTIONAL_COUNTS = {
    "polynomial-counts-batch": lambda: polynomial_counts(1.0, 1.0, 3.9),
    "inverse-rates-batch": lambda: inverse_epoch_rates(1.0, 2.9),
    "batch-epoch-step": lambda: batch_epoch(5.7, 200),
    "batch-epoch-batch": lambda: batch_epoch(5, 200.5),
    "action-grid": lambda: action_grid(Box(0.0, 1.0), 3.7),
    "dkw-epsilon": lambda: dkw_epsilon(8.9, 0.05),
    "true-cvar-grid": lambda: true_cvar(
        CostModel(fn=Quadratic(1.0), bound=4.0, lipschitz=4.0),
        constant_uniform(5, 0.0, 1.0), 1, 0.5, 0.5, grid_n=2000.5),
    "w1-numeric-grid": lambda: w1_numeric(np.sign, np.sign, (0.0, 1.0), grid=1000.5),
    "brownian-horizon": lambda: BrownianSeq(10.5, 1e-4),
    "parking-noise-horizon": lambda: parking_noise(5.5),
    "constant-uniform-horizon": lambda: constant_uniform(10.5, 0.85, 1.1),
    "parking-range-step": lambda: parking_range(1.5, 10),
    "parking-range-horizon": lambda: parking_range(3, 10.5),
    "theorem1-horizon": lambda: theorem1_params(100.5, 1.0, 0.5),
    "theorem2-horizon": lambda: theorem2_params(100.5, 1.0, 0.5, 1.0),
}


def typed(value) -> str:
    return f"{type(value).__name__}-{value}"


class TestIntegerRule:
    @pytest.mark.parametrize("call", FRACTIONAL_COUNTS.values(), ids=FRACTIONAL_COUNTS)
    def test_a_fractional_count_is_rejected_never_truncated(self, call):
        with pytest.raises(ConfigurationError, match="is not an integer"):
            call()

    @pytest.mark.parametrize("value", [
        2.5, np.float32(2.5), np.float64(2.5), Fraction(5, 2), Decimal("2.5"), "2.5",
        np.inf, np.nan, "inf"], ids=typed)
    def test_any_numeric_type_with_a_fractional_part_is_rejected(self, value):
        with pytest.raises(ConfigurationError, match="count .* is not an integer"):
            core._as_int(value, "count")

    @pytest.mark.parametrize("value", [
        7, 7.0, np.float32(7.0), np.int64(7), Fraction(14, 2), Decimal("7"), "7", "7e0"],
        ids=typed)
    def test_an_integral_value_is_accepted(self, value):
        assert core._as_int(value) == 7 and type(core._as_int(value)) is int

    def test_integral_floats_reach_the_integer_result(self):
        assert batch_epoch(5.0, 200.0) == batch_epoch(5, 200) == (1, 5)
        assert action_grid(Box(0.0, 1.0), 3.0).size == 3
        assert dkw_epsilon(8.0, 0.05) == dkw_epsilon(8, 0.05)
        assert polynomial_counts(1.0, 1.0, 3.0).tolist() == [3, 2, 1]
        assert np.array_equal(parking_noise(200.0).table, parking_noise(200).table)
        assert np.array_equal(constant_uniform(10.0, 0.85, 1.1).table,
                              constant_uniform(10, 0.85, 1.1).table)
        assert parking_range(2.0, 10.0) == parking_range(2, 10)


# Library checks fed a non-finite parameter or a 0-d value: each must raise a
# ConfigurationError, neither another error nor a result.
UNCHECKED_INPUTS = {
    "polynomial-a-nan": lambda: polynomial_counts(np.nan, 1.0, 5),
    "polynomial-b-inf": lambda: polynomial_counts(1.0, np.inf, 5),
    "requirement-a-nan": lambda: check_sampling_requirement([8, 8], np.nan, 10.0),
    "requirement-c-inf": lambda: check_sampling_requirement([8, 8], 2 / 3, np.inf),
    "cvar-0d": lambda: cvar_of_values(5.0, 0.5),
}


@pytest.mark.parametrize("call", UNCHECKED_INPUTS.values(), ids=UNCHECKED_INPUTS)
def test_a_library_check_rejects_non_finite_and_0d_inputs(call):
    with pytest.raises(ConfigurationError):
        call()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkRanges:
    def test_one_cpu_is_one_range(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
        assert fork_ranges(10) == [range(10)]

    @pytest.mark.parametrize("n, cpus, expected", [
        (10, 2, [range(0, 5), range(5, 10)]),
        (7, 3, [range(0, 2), range(2, 4), range(4, 7)]),
        (2, 4, [range(0, 1), range(1, 2)]),
    ])
    def test_one_contiguous_range_per_cpu(self, monkeypatch, n, cpus, expected):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        assert fork_ranges(n) == expected


class TwoArgError(Exception):
    """Pickled by its first argument only, so it cannot be rebuilt."""

    def __init__(self, first, second):
        super().__init__(first)


def small_trace():
    config = harness.make_config({"horizon": 40, "batch_size": 5, "trials": 3})
    return harness._learner(config, harness.build_scenario(config))[0]()


_RNG = np.random.default_rng(7)
# Results whose arrays must come back as they were sent: the out-of-band
# buffers of C- and Fortran-ordered arrays, a pickled copy of a view.
ARRAY_RESULTS = {
    "float64-3x5000": _RNG.standard_normal((3, 5000)),
    "int64-column": np.arange(-7, 4993, dtype=np.int64),
    "empty-0x7": np.empty((0, 7)),
    "fortran": np.asfortranarray(_RNG.standard_normal((300, 41))),
    "view": _RNG.standard_normal((40, 90))[1:, ::3],
}


def assert_same_array(got, sent):
    # A view arrives as the contiguous copy that pickling makes of it.
    order = np.array(sent, order="K").flags
    assert got.dtype == sent.dtype and got.shape == sent.shape
    assert got.tobytes() == sent.tobytes()
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
        order.c_contiguous, order.f_contiguous)
    assert got.flags.writeable and got.flags.aligned


class TestForkMap:
    @pytest.mark.parametrize("name", ARRAY_RESULTS)
    def test_an_array_comes_back_as_it_was_sent(self, name):
        sent = ARRAY_RESULTS[name]
        results = fork_map(lambda job: sent, range(2))
        assert_same_array(results[1], sent)
        assert_no_child_left()

    def test_a_trace_comes_back_as_it_was_sent(self):
        sent = small_trace()
        got = fork_map(lambda job: sent, range(2))[1]
        assert type(got) is type(sent)
        for field in dataclasses.fields(sent):
            assert_same_array(getattr(got, field.name), getattr(sent, field.name))

    def test_a_large_result_is_received_without_a_copy(self):
        # Job 0's result and the one received, about 2.0 times the size; a
        # received pickle and its unpickled copy take it past 3.
        size = 8 * 2 ** 20
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            results = fork_map(lambda job: np.full(size // 8, float(job)), range(2))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert results[1].nbytes == size and (results[1] == 1.0).all()
        assert peak < 2.5 * size

    @pytest.mark.parametrize("job_zero", ["returns", "raises"])
    def test_a_result_beyond_the_pipe_buffer_arrives_whole(self, job_zero):
        # The child fills the pipe while job 0 still runs, and then waits
        # for it to be read: also when job 0 fails.
        sent = np.arange(2 ** 20, dtype=np.float64)

        def fn(job):
            if job == 0:
                time.sleep(0.2)
                if job_zero == "raises":
                    raise ConfigurationError("job 0 is bad")
            return sent

        if job_zero == "raises":
            with pytest.raises(ConfigurationError, match="job 0 is bad"):
                fork_map(fn, range(3))
        else:
            for got in fork_map(fn, range(3))[1:]:
                assert_same_array(got, sent)
        assert_no_child_left()

    @pytest.mark.parametrize("fault, printed", [
        ("unpicklable", "Can't pickle local object"), ("system-exit", "SystemExit: 0")])
    def test_a_child_that_cannot_send_raises_runtime_error(self, capfd, fault,
                                                            printed):
        # The child prints its traceback, since the parent sees only its code.
        parent = os.getpid()

        def fn(job):
            if os.getpid() == parent:
                return job
            if fault == "system-exit":
                raise SystemExit(0)  # must not return into the caller's stack
            return lambda: job  # a local function cannot be pickled

        with pytest.raises(RuntimeError, match="exited with code 1 before returning"):
            fork_map(fn, range(3))
        assert_no_child_left()
        assert capfd.readouterr().err.count(printed) == 2

    def test_an_error_that_cannot_be_rebuilt_still_reaps_every_child(self):
        def fn(job):
            if job == 1:
                raise TwoArgError("first", "second")
            return np.zeros(2 ** 17)  # beyond the pipe buffer

        with pytest.raises(TypeError, match="second"):
            fork_map(fn, range(3))
        assert_no_child_left()

    def test_results_in_job_order(self):
        parent = os.getpid()
        results = fork_map(lambda job: (job * job, os.getpid() == parent), range(4))
        assert results == [(0, True), (1, False), (4, False), (9, False)]
        assert_no_child_left()

    def test_one_job_runs_here(self):
        parent = os.getpid()
        assert fork_map(lambda job: os.getpid() == parent, ["only"]) == [True]

    @pytest.mark.parametrize("failing_job", [0, 2])
    def test_an_error_is_raised_as_its_own_type(self, failing_job):
        def fn(job):
            if job == failing_job:
                raise ConfigurationError(f"job {job} is bad")
            return job

        with pytest.raises(ConfigurationError, match=f"job {failing_job} is bad"):
            fork_map(fn, range(3))
        assert_no_child_left()

    def test_a_failed_fork_closes_its_pipe_and_reaps_every_child(self, monkeypatch):
        # The second fork fails as at a process limit: the error propagates,
        # the first child is reaped and no pipe end is left open.
        fork, forks = os.fork, []

        def fork_once():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        fds = len(os.listdir("/dev/fd"))
        with pytest.raises(BlockingIOError, match="fork refused"):
            fork_map(lambda job: job, range(3))
        assert_no_child_left()
        assert len(os.listdir("/dev/fd")) == fds

    def test_a_dead_child_raises_runtime_error(self):
        parent = os.getpid()

        def fn(job):
            if os.getpid() != parent:
                os._exit(3)
            return job

        with pytest.raises(RuntimeError, match="exited with code 3"):
            fork_map(fn, range(2))
        assert_no_child_left()

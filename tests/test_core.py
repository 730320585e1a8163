import os

import numpy as np
import pytest

from cvarlearn import core
from cvarlearn.core import (MEMBERSHIP_TOL, Box, ConfigurationError, CostModel,
                            fork_map, fork_ranges)


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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkRanges:
    def test_small_work_is_one_range(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 4)
        assert fork_ranges(10, core._FORK_MIN_S / 2) == [range(10)]

    def test_one_cpu_is_one_range(self, monkeypatch):
        monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
        assert fork_ranges(10, 100.0) == [range(10)]

    @pytest.mark.parametrize("n, cpus, expected", [
        (10, 2, [range(0, 5), range(5, 10)]),
        (7, 3, [range(0, 2), range(2, 4), range(4, 7)]),
        (2, 4, [range(0, 1), range(1, 2)]),
    ])
    def test_one_contiguous_range_per_cpu(self, monkeypatch, n, cpus, expected):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        assert fork_ranges(n, 100.0) == expected


class TestForkMap:
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

    def test_a_dead_child_raises_runtime_error(self):
        parent = os.getpid()

        def fn(job):
            if os.getpid() != parent:
                os._exit(3)
            return job

        with pytest.raises(RuntimeError, match="exited with code 3"):
            fork_map(fn, range(2))
        assert_no_child_left()

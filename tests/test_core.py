import os

import numpy as np
import pytest

from cvarlearn import core
from cvarlearn.core import Ball, Box, ConfigurationError, fork_map, fork_ranges


def random_set(rng):
    d = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        lo = rng.uniform(-5, 5, size=d)
        return Box(lo, lo + rng.uniform(0.5, 4.0, size=d))
    return Ball(rng.uniform(-5, 5, size=d), float(rng.uniform(0.5, 4.0)))


class TestProject:
    def test_box_clamps_below(self):
        assert Box([1.0], [5.0]).project([0.0]) == pytest.approx([1.0])

    def test_box_interior_fixed_point(self):
        box = Box([1.0], [5.0])
        assert box.project([3.0]) == pytest.approx([3.0])

    def test_ball_radial_scaling(self):
        got = Ball([0.0, 0.0], 1.0).project([3.0, 4.0])
        assert got == pytest.approx([0.6, 0.8])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            Box([0.0], [1.0]).project([0.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            region = random_set(rng)
            x = rng.uniform(-10, 10, size=region.dim)
            once = region.project(x)
            assert np.array_equal(region.project(once), once)

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            region = random_set(rng)
            x = rng.uniform(-10, 10, size=region.dim)
            y = rng.uniform(-10, 10, size=region.dim)
            px, py = region.project(x), region.project(y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_rows_match_single_points(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            region = random_set(rng)
            points = rng.uniform(-10, 10, size=(5, region.dim))
            assert np.array_equal(region.project(points),
                                  np.array([region.project(x) for x in points]))
            assert region.contains(points) == all(region.contains(x) for x in points)
            inner = region.project(points)
            assert region.contains(inner)

    def test_result_is_member(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            region = random_set(rng)
            x = rng.uniform(-10, 10, size=region.dim)
            assert region.contains(region.project(x))


class TestShrunkSet:
    def test_box_scales_about_center(self):
        inner = Box([1.0], [5.0]).shrink(0.5)
        assert inner.lower == pytest.approx([1.5])
        assert inner.upper == pytest.approx([4.5])

    def test_ball_radius_shrinks_by_delta(self):
        inner = Ball([2.0, -1.0], 1.5).shrink(0.4)
        assert inner.radius == pytest.approx(1.1)
        assert inner.center == pytest.approx([2.0, -1.0])

    def test_zero_delta_is_identity(self):
        box = Box([0.0, 1.0], [2.0, 5.0])
        inner = box.shrink(0.0)
        assert np.array_equal(inner.lower, box.lower)
        assert np.array_equal(inner.upper, box.upper)

    def test_delta_at_inradius_rejected(self):
        with pytest.raises(ConfigurationError):
            Box([1.0], [5.0]).shrink(2.0)
        with pytest.raises(ConfigurationError):
            Ball([0.0], 1.0).shrink(1.5)

    def test_perturbations_stay_feasible(self):
        # Any delta-length perturbation of a shrunk-set point stays admissible.
        rng = np.random.default_rng(4)
        for _ in range(1000):
            region = random_set(rng)
            delta = float(rng.uniform(0.0, 0.95 * region.inradius))
            inner = region.shrink(delta)
            x = inner.project(rng.uniform(-10, 10, size=region.dim))
            u = rng.standard_normal(region.dim)
            u /= np.linalg.norm(u)
            assert region.contains(x + delta * u, tol=1e-12)

    def test_nesting(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            region = random_set(rng)
            d_small, d_big = np.sort(rng.uniform(0.0, 0.9 * region.inradius, size=2))
            bigger_shrink = region.shrink(d_big)
            smaller_shrink = region.shrink(d_small)
            point = bigger_shrink.project(rng.uniform(-10, 10, size=region.dim))
            assert smaller_shrink.contains(point)


class TestDiameterAndInradius:
    def test_interval(self):
        assert Box([1.0], [5.0]).diameter == pytest.approx(4.0)

    def test_ball(self):
        assert Ball([0.0, 0.0], 2.0).diameter == pytest.approx(4.0)

    def test_box_diagonal(self):
        assert Box([0.0, 0.0], [3.0, 4.0]).diameter == pytest.approx(5.0)

    def test_box_inradius_is_min_halfwidth(self):
        assert Box([0.0, 0.0], [2.0, 10.0]).inradius == pytest.approx(1.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Box([1.0], [1.0])
        with pytest.raises(ConfigurationError):
            Ball([0.0], 0.0)


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

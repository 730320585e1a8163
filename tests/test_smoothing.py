import math

import numpy as np
import pytest

from cvarlearn.core import ConfigurationError, CostModel
from cvarlearn.environment import constant_uniform
from cvarlearn.smoothing import directions, gradient_estimate, smoothed_cvar


def deterministic_cost(fn, bound, lipschitz, m=0.0):
    return CostModel(fn=fn, bound=bound, lipschitz=lipschitz, strong_convexity=m)


QUADRATIC = deterministic_cost(lambda x, xi: x ** 2 + 0.0 * xi, bound=100.0,
                               lipschitz=20.0, m=2.0)
POINT_NOISE = constant_uniform(10, 0.0, 0.0)


class TestSampleUnitSphere:
    def test_one_dimension_is_sign(self):
        rng = np.random.default_rng(41)
        assert set(directions(rng.random(200)).tolist()) == {-1.0, 1.0}

    def test_unit_norm(self):
        # +1 exactly where the uniform is below 1/2, in the uniforms' shape.
        q = np.array([[0.0, 0.25, 0.5 - 2 ** -53], [0.5, 0.75, 1.0 - 2 ** -53]])
        u = directions(q)
        assert u.shape == q.shape
        assert np.array_equal(u, [[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])


class TestGradientEstimate:
    def test_one_dimensional_formula(self):
        assert gradient_estimate(2.0, 1.0, 0.1) == pytest.approx(20.0)

    def test_zero_cvar_gives_zero_vector(self):
        assert np.array_equal(gradient_estimate(0.0, [1.0, -1.0], 0.5), [0.0, 0.0])

    def test_direction_scaling(self):
        assert gradient_estimate(3.0, -1.0, 0.5) == pytest.approx(-6.0)

    def test_rows_of_one_dimensional_directions(self):
        # One estimate per row, as the learner calls it, in the operation
        # order (1 / delta) * cvar * u, on which its trace depends bit for bit.
        rng = np.random.default_rng(43)
        cvars = rng.uniform(-1, 1, size=6)
        u = np.where(rng.random(6) < 0.5, 1.0, -1.0)
        assert np.array_equal(gradient_estimate(cvars, u, 0.1),
                              [(1.0 / 0.1) * c * s for c, s in zip(cvars, u)])

    def test_invalid_radius(self):
        for delta in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                gradient_estimate(1.0, 1.0, delta)

    def test_norm_bound(self):
        rng = np.random.default_rng(44)
        for _ in range(500):
            delta = float(rng.uniform(0.01, 1.0))
            bound = float(rng.uniform(0.5, 5.0))
            cv = float(rng.uniform(-bound, bound))
            g = gradient_estimate(cv, directions(rng.random()), delta)
            assert abs(g) <= bound / delta + 1e-12


class TestSmoothedCvar:
    def test_zero_radius_returns_plain_cvar(self):
        got = smoothed_cvar(QUADRATIC, POINT_NOISE, 1, 1.5, 0.0, 0.5,
                            n_noise=1000)
        assert got == pytest.approx(1.5 ** 2, abs=1e-12)

    def test_quadratic_two_direction_average(self):
        # (1/2)[(x+delta)^2 + (x-delta)^2] = x^2 + delta^2
        for x in (-1.0, 0.0, 0.7, 2.0):
            got = smoothed_cvar(QUADRATIC, POINT_NOISE, 1, x, 0.1, 0.5,
                                n_noise=1000)
            assert got == pytest.approx(x ** 2 + 0.01, abs=1e-12)

    def test_lipschitz_distance_to_unsmoothed(self):
        # |smoothed - plain| <= delta * L0 for a Lipschitz cost.
        lip = 2.0
        cost = deterministic_cost(lambda x, xi: lip * np.abs(x) + 0.0 * xi,
                                  bound=100.0, lipschitz=lip)
        noise = constant_uniform(5, -1.0, 1.0)
        rng = np.random.default_rng(45)
        for _ in range(20):
            x = float(rng.uniform(-3, 3))
            delta = float(rng.uniform(0.01, 0.5))
            smoothed = smoothed_cvar(cost, noise, 1, x, delta, 0.5, n_noise=1000)
            plain = smoothed_cvar(cost, noise, 1, x, 0.0, 0.5, n_noise=1000)
            assert abs(smoothed - plain) <= delta * lip + 1e-9

    def test_negative_radius_rejected(self):
        for delta in (-0.1, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                smoothed_cvar(QUADRATIC, POINT_NOISE, 1, 1.0, delta, 0.5, n_noise=1000)

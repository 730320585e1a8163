import numpy as np
import pytest

from cvarlearn.core import ConfigurationError, CostModel
from cvarlearn.environment import constant_uniform
from cvarlearn.smoothing import (
    gradient_estimate,
    sample_unit_sphere,
    smoothed_cvar,
)


def deterministic_cost(fn, bound, lipschitz, m=0.0):
    return CostModel(fn=fn, bound=bound, lipschitz=lipschitz, strong_convexity=m)


QUADRATIC = deterministic_cost(lambda x, xi: x ** 2 + 0.0 * xi, bound=100.0,
                               lipschitz=20.0, m=2.0)
POINT_NOISE = constant_uniform(10, 0.0, 0.0)


class TestSampleUnitSphere:
    def test_one_dimension_is_sign(self):
        rng = np.random.default_rng(41)
        draws = {float(sample_unit_sphere(1, rng)[0]) for _ in range(200)}
        assert draws == {-1.0, 1.0}

    def test_unit_norm(self):
        rng = np.random.default_rng(42)
        for d in (2, 3, 5, 10):
            for _ in range(50):
                u = sample_unit_sphere(d, rng)
                assert abs(np.linalg.norm(u) - 1.0) <= 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            sample_unit_sphere(0, np.random.default_rng(0))


class TestGradientEstimate:
    def test_one_dimensional_formula(self):
        g = gradient_estimate(2.0, [1.0], 0.1)
        assert g == pytest.approx([20.0])

    def test_zero_cvar_gives_zero_vector(self):
        assert gradient_estimate(0.0, [0.0, 1.0], 0.5) == pytest.approx([0.0, 0.0])

    def test_direction_scaling(self):
        g = gradient_estimate(3.0, [0.0, 1.0], 0.5)
        assert g == pytest.approx([0.0, 12.0])

    def test_rows_of_one_dimensional_directions(self):
        # One estimate per row, as the learner calls it: directions (trials, 1).
        rng = np.random.default_rng(43)
        cvars = rng.uniform(-1, 1, size=6)
        u = np.where(rng.random(6) < 0.5, 1.0, -1.0)
        rows = gradient_estimate(cvars, u[:, None], 0.1)[:, 0]
        assert np.array_equal(rows, [gradient_estimate(c, [s], 0.1)[0]
                                     for c, s in zip(cvars, u)])

    def test_invalid_radius(self):
        with pytest.raises(ConfigurationError):
            gradient_estimate(1.0, [1.0], 0.0)

    def test_norm_bound(self):
        rng = np.random.default_rng(44)
        for _ in range(500):
            d = int(rng.integers(1, 6))
            delta = float(rng.uniform(0.01, 1.0))
            bound = float(rng.uniform(0.5, 5.0))
            cv = float(rng.uniform(-bound, bound))
            g = gradient_estimate(cv, sample_unit_sphere(d, rng), delta)
            assert np.linalg.norm(g) <= d * bound / delta + 1e-12


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
        with pytest.raises(ConfigurationError):
            smoothed_cvar(QUADRATIC, POINT_NOISE, 1, 1.0, -0.1, 0.5, n_noise=1000)

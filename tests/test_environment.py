import logging
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from cvarlearn.core import ConfigurationError
from cvarlearn.environment import (
    BrownianSeq,
    UniformSeq,
    constant_uniform,
    parking_noise,
    parking_range,
    variation_budget,
    variation_profile,
    w1_gaussian,
    w1_numeric,
    w1_uniform,
)
from cvarlearn.risk import cvar_of_values


def random_interval(rng, min_width=0.01):
    a = float(rng.uniform(-3, 3))
    return a, a + float(rng.uniform(min_width, 4.0))


class TestParkingRange:
    def test_early_sqrt_branch(self):
        lo, hi = parking_range(4, 6000)
        assert lo == pytest.approx(0.85)
        assert hi == pytest.approx(1.15 - 0.25, abs=1e-12)

    def test_switch_point(self):
        lo, hi = parking_range(3000, 6000)
        assert hi == pytest.approx(1.1)
        assert lo == pytest.approx(0.85 + 0.5 * 3000 ** -0.1, abs=1e-12)
        assert lo == pytest.approx(1.0745, abs=1e-4)

    def test_late_first_branch(self):
        lo, hi = parking_range(2704, 6000)
        assert lo == pytest.approx(0.85)
        assert hi == pytest.approx(1.15 - 0.5 / 52.0, abs=1e-12)
        assert hi == pytest.approx(1.14038, abs=1e-5)

    def test_first_steps_are_degenerate(self):
        for t in (1, 2):
            lo, hi = parking_range(t, 6000)
            assert hi <= lo

    def test_out_of_range_step(self):
        with pytest.raises(ConfigurationError):
            parking_range(0, 100)
        with pytest.raises(ConfigurationError):
            parking_range(101, 100)


class TestUniformSeq:
    def test_degenerate_step_collapses_to_point_mass(self, caplog):
        noise = parking_noise(6000)
        with caplog.at_level(logging.WARNING):
            lo, hi = noise.bounds(1)
        assert lo == hi == 0.85
        assert noise.quantile(1, 0.3) == 0.85
        assert noise.cdf(1, 0.849) == 0.0
        assert noise.cdf(1, 0.85) == 1.0
        assert any("point mass" in rec.message for rec in caplog.records)

    def test_a_repeated_degenerate_range_warns_once(self, caplog):
        # Each horizon's table logs its first degenerate step; the message
        # is the same, so a process logs it once.
        with caplog.at_level(logging.WARNING):
            parking_noise(6000).bounds_table()
            parking_noise(6000).bounds_table()
        assert sum(rec.getMessage().startswith("degenerate uniform range")
                   for rec in caplog.records) == 1

    def test_bounds_table_equals_the_endpoint_formulas(self):
        # Every step of the parking study, the degenerate t = 1, 2 included:
        # the raw formulas, a crossing collapsed to the left endpoint.
        noise = parking_noise(6000)
        table = noise.bounds_table()
        assert table.shape == (6000, 2) and not table.flags.writeable
        for t in range(1, 6001):
            lo, hi = parking_range(t, 6000)
            expected = (lo, lo) if hi <= lo else (lo, hi)
            assert noise.bounds(t) == expected
            assert tuple(table[t - 1].tolist()) == expected

    def test_non_finite_endpoint_rejected(self):
        noise = UniformSeq(3, left=lambda t: 0.0,
                           right=lambda t: math.inf if t == 3 else 1.0)
        with pytest.raises(ConfigurationError, match="t=3"):
            noise.bounds(1)

    def test_cdf_quantile_consistency(self):
        noise = parking_noise(6000)
        rng = np.random.default_rng(31)
        for t in rng.integers(3, 6001, size=50):
            q = rng.random(16)
            y = noise.quantile(int(t), q)
            assert noise.cdf(int(t), y) == pytest.approx(q, abs=1e-12)

    def test_sampling_respects_bounds(self):
        noise = parking_noise(6000)
        rng = np.random.default_rng(32)
        for t in (3, 500, 2999, 3000, 6000):
            draws = noise.sample(t, 200, rng)
            lo, hi = noise.bounds(t)
            assert draws.min() >= lo and draws.max() <= hi


class TestBrownianSeq:
    def test_variance_grows(self):
        noise = BrownianSeq(100, diffusivity=0.5)
        sigmas = [noise.sigma(t) for t in range(1, 101)]
        assert all(s1 < s2 for s1, s2 in zip(sigmas, sigmas[1:]))
        assert sigmas[0] == pytest.approx(1.0)

    def test_quantile_inverts_cdf(self):
        noise = BrownianSeq(10, diffusivity=0.2)
        q = np.linspace(0.01, 0.99, 25)
        y = noise.quantile(5, q)
        assert noise.cdf(5, y) == pytest.approx(q, abs=1e-12)

    def test_budget_scales_with_sigma_span(self):
        noise = BrownianSeq(400, diffusivity=0.1)
        expected = math.sqrt(2 / math.pi) * (noise.sigma(400) - noise.sigma(1))
        assert variation_budget(noise, 400) == pytest.approx(expected, rel=1e-12)


class TestW1Uniform:
    def test_identity(self):
        assert w1_uniform(0.2, 1.3, 0.2, 1.3) == 0.0

    def test_pure_translation(self):
        assert w1_uniform(0, 1, 1, 2) == pytest.approx(1.0)

    def test_nested_intervals(self):
        # Independent oracle: quadrature of |F - G| over [0, 2].
        y = np.linspace(0, 2, 400_001)
        f = np.clip(y, 0, 1)
        g = np.clip(y / 2, 0, 1)
        assert w1_uniform(0, 1, 0, 2) == pytest.approx(
            trapezoid(np.abs(f - g), y), abs=1e-9)
        assert w1_uniform(0, 1, 0, 2) == pytest.approx(0.5)

    def test_point_masses(self):
        assert w1_uniform(1.0, 1.0, 3.0, 3.0) == pytest.approx(2.0)
        assert w1_uniform(0.0, 2.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_shared_endpoint_halves_shift(self):
        assert w1_uniform(0.5, 1.0, 0.5, 1.2) == pytest.approx(0.1)

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            w1_uniform(1.0, 0.5, 0.0, 1.0)

    def test_metric_axioms(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            i1, i2, i3 = (random_interval(rng) for _ in range(3))
            d12 = w1_uniform(*i1, *i2)
            assert d12 >= 0.0
            assert d12 == pytest.approx(w1_uniform(*i2, *i1), abs=1e-12)
            assert w1_uniform(*i1, *i1) <= 1e-12
            assert d12 <= w1_uniform(*i1, *i3) + w1_uniform(*i3, *i2) + 1e-10

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(34)
        for _ in range(500):
            i1, i2 = random_interval(rng), random_interval(rng)
            s1 = constant_uniform(1, *i1)
            s2 = constant_uniform(1, *i2)
            support = (min(i1[0], i2[0]), max(i1[1], i2[1]))
            numeric = w1_numeric(lambda y: s1.cdf(1, y), lambda y: s2.cdf(1, y),
                                 support, grid=200_000)
            assert w1_uniform(*i1, *i2) == pytest.approx(numeric, abs=1e-6)


class TestW1Gaussian:
    def test_translation(self):
        assert w1_gaussian(0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_equal_means_scales(self):
        assert w1_gaussian(0.0, 1.0, 0.0, 3.0) == pytest.approx(
            2.0 * math.sqrt(2 / math.pi))

    def test_matches_quadrature(self):
        from scipy.special import ndtr

        rng = np.random.default_rng(35)
        for _ in range(50):
            mu1, mu2 = rng.uniform(-2, 2, size=2)
            s1, s2 = rng.uniform(0.2, 2.0, size=2)
            span = 10 * max(s1, s2)
            numeric = w1_numeric(
                lambda y: ndtr((y - mu1) / s1), lambda y: ndtr((y - mu2) / s2),
                (min(mu1, mu2) - span, max(mu1, mu2) + span), grid=400_000)
            assert w1_gaussian(mu1, s1, mu2, s2) == pytest.approx(numeric, abs=1e-5)


class TestW1Numeric:
    def test_identical_cdfs(self):
        s = constant_uniform(1, 0.0, 1.0)
        assert w1_numeric(lambda y: s.cdf(1, y), lambda y: s.cdf(1, y),
                          (-1, 2)) == 0.0

    def test_gaussian_translation(self):
        from scipy.special import ndtr

        got = w1_numeric(lambda y: ndtr(y), lambda y: ndtr(y - 1.0),
                         (-10.0, 11.0), grid=1_000_000)
        assert got == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("pair", ["uniforms", "gaussians", "mixed"])
    def test_equals_scipy_trapezoid(self, pair):
        # The numpy trapezoid rule is SciPy's, bit for bit.
        uniform = UniformSeq(2, left=lambda t: 0.1 * t, right=lambda t: 1.0 + 0.3 * t)
        gauss = BrownianSeq(2, 0.05)
        cdfs = {"uniforms": (uniform, uniform), "gaussians": (gauss, gauss),
                "mixed": (uniform, gauss)}[pair]
        support = (-3.0, 2.5)
        y = np.linspace(*support, 4321)
        gap = np.abs(cdfs[0].cdf(1, y) - cdfs[1].cdf(2, y))
        got = w1_numeric(lambda v: cdfs[0].cdf(1, v), lambda v: cdfs[1].cdf(2, v),
                         support, grid=4321)
        assert got > 0.0
        assert got == float(trapezoid(gap, y))

    def test_requires_finite_support(self):
        with pytest.raises(ConfigurationError):
            w1_numeric(lambda y: y, lambda y: y, (0.0, math.inf))

    def test_requires_minimum_grid(self):
        with pytest.raises(ConfigurationError):
            w1_numeric(lambda y: y, lambda y: y, (0.0, 1.0), grid=10)


class TestVariationBudget:
    def test_static_sequence_is_zero(self):
        noise = constant_uniform(100, 0.0, 1.0)
        assert variation_budget(noise, 100) == 0.0

    def test_two_step_translation(self):
        noise = UniformSeq(2, left=lambda t: float(t - 1),
                           right=lambda t: float(t))
        assert variation_budget(noise, 2) == pytest.approx(1.0)

    def test_parking_profile_matches_quadrature_spot_checks(self):
        horizon = 6000
        noise = parking_noise(horizon)
        profile = variation_profile(noise, horizon)
        assert profile.shape == (horizon - 1,)
        rng = np.random.default_rng(36)
        for t in rng.integers(3, horizon + 1, size=50):
            t = int(t)
            b_prev, b_curr = noise.bounds(t - 1), noise.bounds(t)
            lo = min(b_prev[0], b_curr[0]) - 1e-3
            hi = max(b_prev[1], b_curr[1]) + 1e-3
            numeric = w1_numeric(lambda y: noise.cdf(t - 1, y),
                                 lambda y: noise.cdf(t, y), (lo, hi),
                                 grid=200_000)
            assert profile[t - 2] == pytest.approx(numeric, abs=1e-6)

    def test_parking_budget_is_sublinear(self):
        rates = [variation_budget(parking_noise(h), h) / h
                 for h in (1500, 3000, 6000)]
        assert rates[0] > rates[1] > rates[2]

    def test_horizon_too_short(self):
        with pytest.raises(ConfigurationError):
            variation_budget(constant_uniform(5, 0, 1), 1)


class TestCvarWassersteinInequality:
    def test_lipschitz_pushforward_bound(self):
        # |CVaR[f(X)] - CVaR[f(Y)]| <= (L0/alpha) W1 for f(x) = L0 * x,
        # CVaRs evaluated on dense quantile grids.
        rng = np.random.default_rng(37)
        q = (np.arange(100_000) + 0.5) / 100_000
        for _ in range(200):
            i1, i2 = random_interval(rng), random_interval(rng)
            lip = float(rng.uniform(0.1, 5.0))
            alpha = float(rng.uniform(0.05, 1.0))
            c1 = cvar_of_values(lip * (i1[0] + q * (i1[1] - i1[0])), alpha)
            c2 = cvar_of_values(lip * (i2[0] + q * (i2[1] - i2[0])), alpha)
            assert abs(c1 - c2) <= lip / alpha * w1_uniform(*i1, *i2) + 1e-6

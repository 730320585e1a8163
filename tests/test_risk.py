import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarlearn.core import ConfigurationError
from cvarlearn.risk import (
    build_ecdf,
    cvar_discrete,
    cvar_error_bound,
    cvar_of_values,
    dkw_epsilon,
    empirical_quantile,
    ru_functional,
    sup_cdf_distance,
)


def ru_grid_min(samples, alpha, grid=100_000):
    """Brute-force oracle: minimize the augmented functional on a fine v-grid."""
    s = np.asarray(samples, dtype=float)
    v = np.linspace(s.min(), s.max(), grid)
    values = v + np.maximum(s[None, :] - v[:, None], 0.0).mean(axis=1) / alpha
    return float(values.min())


class TestBuildEcdf:
    def test_sorts_input(self):
        e = build_ecdf([3, 1, 2])
        assert list(e.samples) == [1, 2, 3]
        assert e.n == 3

    def test_single_sample(self):
        e = build_ecdf([5])
        assert list(e.samples) == [5] and e.n == 1

    def test_duplicates_retained(self):
        e = build_ecdf([2, 2, 2])
        assert list(e.samples) == [2, 2, 2] and e.n == 3

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            build_ecdf([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigurationError):
            build_ecdf([1.0, np.nan])
        with pytest.raises(ConfigurationError, match="quantile level nan"):
            empirical_quantile(build_ecdf([1.0, 2.0]), math.nan)


class TestEcdfEval:
    def test_fraction_at_interior_point(self):
        assert build_ecdf([1, 2, 3]).evaluate(2) == pytest.approx(2 / 3)

    def test_below_min_is_zero(self):
        assert build_ecdf([1, 2, 3]).evaluate(0.5) == 0.0

    def test_at_or_above_max_is_one(self):
        e = build_ecdf([1, 2, 3])
        assert e.evaluate(3) == 1.0
        assert e.evaluate(99) == 1.0

    @pytest.mark.parametrize("q", [0.0, -0.5, -math.inf])
    def test_quantile_at_or_below_zero_is_the_minimum(self, q):
        assert empirical_quantile(build_ecdf([3.0, 1.0, 2.0]), q) == 1.0

    def test_step_range(self):
        e = build_ecdf([0.0, 1.0, 2.0, 3.0])
        values = set(float(e.evaluate(y)) for y in np.linspace(-1, 4, 101))
        assert values <= {0.0, 0.25, 0.5, 0.75, 1.0}


class TestCvarDiscrete:
    def test_half_level(self):
        # Frozen from the v-grid minimization oracle below.
        e = build_ecdf([1, 2, 3, 4])
        assert cvar_discrete(e, 0.5) == pytest.approx(3.5, abs=1e-12)
        assert ru_grid_min([1, 2, 3, 4], 0.5) == pytest.approx(3.5, abs=1e-4)

    def test_alpha_one_is_mean(self):
        assert cvar_discrete(build_ecdf([1, 2, 3, 4]), 1.0) == pytest.approx(2.5)

    def test_single_atom(self):
        for alpha in (0.1, 0.5, 1.0):
            assert cvar_discrete(build_ecdf([7]), alpha) == pytest.approx(7.0)

    def test_fractional_tail_weight(self):
        e = build_ecdf([1, 2, 3, 4])
        expected = (4 + 0.2 * 3) / 1.2
        assert cvar_discrete(e, 0.3) == pytest.approx(expected, abs=1e-12)
        assert ru_grid_min([1, 2, 3, 4], 0.3) == pytest.approx(expected, abs=1e-4)

    @pytest.mark.parametrize("alpha", [1e-17, 1e-12, 0.01, 0.2, 1 / 3])
    def test_tail_within_the_maximum_is_the_maximum(self, alpha):
        # alpha * n <= 1: the whole tail weight sits on the largest value.
        assert cvar_of_values(np.array([1.0, 2.0, 3.0]), alpha) == pytest.approx(
            3.0, rel=1e-15)
        rows = np.array([[1.0, 2.0, 3.0], [-4.0, 0.5, -1.0], [7.0, 7.0, -7.0]])
        np.testing.assert_allclose(cvar_of_values(rows, alpha), [3.0, 0.5, 7.0],
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("rows", [1, 3, 10])
    @pytest.mark.parametrize("n", [8, 24, 100, 2000])
    def test_bits_do_not_depend_on_the_layout(self, n, rows, alpha):
        values = np.random.default_rng(n * rows).normal(size=(rows, n))
        wide = np.zeros((rows, 2 * n))
        wide[:, ::2] = values
        reversed_rows = values[::-1].copy()[::-1]
        expected = cvar_of_values(values, alpha)
        assert expected.tobytes() == np.array(
            [cvar_of_values(row, alpha) for row in values]).tobytes()
        for layout in (np.asfortranarray(values), wide[:, ::2], reversed_rows):
            assert cvar_of_values(layout, alpha).tobytes() == expected.tobytes()

    def test_invalid_alpha(self):
        e = build_ecdf([1.0])
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                cvar_discrete(e, alpha)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.floats(0.05, 1.0), st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, values, alpha, c):
        base = cvar_discrete(build_ecdf(values), alpha)
        shifted = cvar_discrete(build_ecdf(np.asarray(values) + c), alpha)
        assert shifted == pytest.approx(base + c, abs=1e-9)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.floats(0.05, 1.0), st.floats(0.01, 20))
    @settings(max_examples=200, deadline=None)
    def test_positive_homogeneity(self, values, alpha, lam):
        base = cvar_discrete(build_ecdf(values), alpha)
        scaled = cvar_discrete(build_ecdf(lam * np.asarray(values)), alpha)
        assert scaled == pytest.approx(lam * base, abs=1e-9 * max(1.0, lam))


class TestRuFunctional:
    def test_alpha_one_v_zero_is_mean(self):
        assert ru_functional(build_ecdf([1, 2, 3, 4]), 1.0, 0.0) == pytest.approx(2.5)

    def test_v_at_max_has_no_excess(self):
        e = build_ecdf([1, 2, 3, 4])
        for alpha in (0.1, 0.5, 1.0):
            assert ru_functional(e, alpha, 4.0) == pytest.approx(4.0)

    def test_hand_summed_value(self):
        e = build_ecdf([1, 2, 3, 4])
        assert ru_functional(e, 0.5, 3.0) == pytest.approx(3.5)

    def test_upper_bounds_cvar(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            e = build_ecdf(rng.normal(size=int(rng.integers(1, 30))))
            alpha = float(rng.uniform(0.05, 1.0))
            v = float(rng.uniform(-3, 3))
            assert ru_functional(e, alpha, v) >= cvar_discrete(e, alpha) - 1e-12


class TestSupCdfDistance:
    def test_identical(self):
        e = build_ecdf([1, 2, 3])
        assert sup_cdf_distance(e, e) == 0.0

    def test_disjoint_point_masses(self):
        assert sup_cdf_distance(build_ecdf([0]), build_ecdf([1])) == 1.0

    def test_two_point_overlap(self):
        # Enumerated by hand at the jump points 0, 1, 2.
        assert sup_cdf_distance(build_ecdf([0, 1]), build_ecdf([0, 2])) == 0.5

    def test_matches_dense_grid_evaluation(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            f = build_ecdf(rng.normal(size=int(rng.integers(1, 20))))
            g = build_ecdf(rng.normal(size=int(rng.integers(1, 20))))
            lo = min(f.samples[0], g.samples[0]) - 1
            hi = max(f.samples[-1], g.samples[-1]) + 1
            y = np.linspace(lo, hi, 20_001)
            approx = np.max(np.abs(f.evaluate(y) - g.evaluate(y)))
            exact = sup_cdf_distance(f, g)
            assert exact >= approx - 1e-12
            assert exact <= approx + 0.2  # grid misses jumps by at most cell mass

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            f = build_ecdf(rng.normal(size=int(rng.integers(1, 20))))
            g = build_ecdf(rng.normal(size=int(rng.integers(1, 20))))
            d = sup_cdf_distance(f, g)
            assert 0.0 <= d <= 1.0
            assert d == sup_cdf_distance(g, f)


class TestDkwEpsilon:
    def test_boundary_confidence_gives_zero(self):
        assert dkw_epsilon(10, 2.0) == 0.0

    def test_reference_value(self):
        assert dkw_epsilon(50, 0.05) == pytest.approx(
            math.sqrt(math.log(40.0) / 100.0), abs=1e-15)
        assert dkw_epsilon(50, 0.05) == pytest.approx(0.19206, abs=1e-5)

    def test_root_n_scaling(self):
        assert dkw_epsilon(200, 0.1) == pytest.approx(
            dkw_epsilon(100, 0.1) / math.sqrt(2.0), abs=1e-15)

    def test_invalid_confidence(self):
        for gamma in (0.0, -1.0, 2.5):
            with pytest.raises(ConfigurationError):
                dkw_epsilon(10, gamma)


class TestCvarErrorBound:
    def test_zero_distance(self):
        assert cvar_error_bound(3.0, 0.2, 0.0) == 0.0

    def test_direct_product(self):
        assert cvar_error_bound(2.0, 0.5, 0.1) == pytest.approx(0.4)

    def test_alpha_one(self):
        assert cvar_error_bound(1.0, 1.0, 0.3) == pytest.approx(0.3)

    @pytest.mark.parametrize("bound, alpha, kolmogorov", [
        (0.0, 0.5, 0.1), (math.inf, 0.5, 0.1), (math.nan, 0.5, 0.1),
        (1.0, math.nan, 0.1), (1.0, 0.5, math.nan), (1.0, 0.5, math.inf)])
    def test_invalid_inputs_rejected(self, bound, alpha, kolmogorov):
        with pytest.raises(ConfigurationError):
            cvar_error_bound(bound, alpha, kolmogorov)

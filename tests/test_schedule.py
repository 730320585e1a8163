import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarlearn.core import ConfigurationError
from cvarlearn.schedule import (
    CONVEX_SAMPLING_LIMIT,
    STRONGLY_CONVEX_SAMPLING_LIMIT,
    batch_epoch,
    check_sampling_requirement,
    inverse_epoch_rates,
    polynomial_counts,
    theorem1_params,
    theorem2_params,
)

mpmath.mp.dps = 50


class TestBatchEpoch:
    def test_first_step(self):
        assert batch_epoch(1, 200) == (1, 1)

    def test_last_epoch_of_first_batch(self):
        assert batch_epoch(200, 200) == (1, 200)

    def test_restart_boundary(self):
        assert batch_epoch(201, 200) == (2, 1)

    def test_batch_size_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            batch_epoch(5, 1)

    @pytest.mark.parametrize("batch_size", [2, 3, 7, 200])
    def test_an_array_of_steps_equals_the_per_step_calls(self, batch_size):
        t = np.arange(1, 1001)
        batch, epoch = batch_epoch(t, batch_size)
        assert list(zip(batch.tolist(), epoch.tolist())) == [
            batch_epoch(s, batch_size) for s in range(1, 1001)]

    @pytest.mark.parametrize("t", [np.array([1.0, 2.0]), np.array([0, 1])],
                             ids=["float-array", "step-zero"])
    def test_an_array_of_steps_is_checked(self, t):
        with pytest.raises(ConfigurationError):
            batch_epoch(t, 5)

    @given(st.integers(1, 10**6), st.sampled_from([2, 3, 7, 200, 1024, 99_991]))
    @settings(max_examples=500, deadline=None)
    def test_round_trip(self, t, batch_size):
        j, tau = batch_epoch(t, batch_size)
        assert (j - 1) * batch_size + tau == t
        assert 1 <= tau <= batch_size


class TestPolynomialCounts:
    def test_base_of_decay(self):
        for a in (0.5, 1.0, 2.0):
            assert polynomial_counts(a, 1.0, 3)[2] == 1

    def test_linear_case(self):
        assert polynomial_counts(1.0, 1.0, 3)[0] == 3

    def test_high_precision_reference(self):
        expected = int(mpmath.ceil(10 * mpmath.mpf(200) ** mpmath.mpf("2/3")))
        assert polynomial_counts(2.0 / 3.0, 10.0, 200)[0] == expected == 342

    def test_nonincreasing_in_epoch(self):
        for a, b in ((0.5, 2.0), (1.3, 0.7), (2.0, 10.0)):
            counts = polynomial_counts(a, b, 50)
            assert counts.shape == (50,) and counts.dtype == np.int64
            assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))
            assert all(c >= 1 for c in counts)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            polynomial_counts(1.0, 1.0, 1)
        with pytest.raises(ConfigurationError):
            polynomial_counts(0.0, 1.0, 10)
        with pytest.raises(ConfigurationError):
            polynomial_counts(1.0, -1.0, 10)

    @pytest.mark.parametrize("a, b, batch_size", [
        (1.0, 1e308, 5),  # b * B**a is inf
        (400.0, 1.0, 10),  # the power itself overflows
        (30.0, 1.0, 10),  # finite, but above int64
    ])
    def test_an_overflowing_count_names_its_parameters(self, a, b, batch_size):
        named = f"overflow with a={a}, b={b} and batch size {batch_size}"
        with pytest.raises(ConfigurationError, match=re.escape(named) + "$"):
            polynomial_counts(a, b, batch_size)


class TestSamplingRequirement:
    def test_parking_configuration_satisfies(self):
        check = check_sampling_requirement(np.full(200, 8), 2.0 / 3.0, 10.0)
        assert check.satisfied
        assert check.achieved == pytest.approx(200 / math.sqrt(8), abs=1e-9)
        assert check.allowed == pytest.approx(10 * 200 ** (2.0 / 3.0), abs=1e-9)

    def test_single_sample_fails_tight_budget(self):
        check = check_sampling_requirement(np.full(4, 1), 2.0, 1.0)
        assert not check.satisfied
        assert check.achieved == pytest.approx(4.0)
        assert check.allowed == pytest.approx(1.0)

    def test_nonpositive_a_rejected(self):
        with pytest.raises(ConfigurationError):
            check_sampling_requirement(np.full(4, 1), 0.0, 1.0)

    def test_agrees_with_direct_summation(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            batch = int(rng.integers(2, 300))
            if rng.random() < 0.5:
                n = int(rng.integers(1, 50))
                counts, phi = np.full(batch, n), [n] * batch
            else:
                pa, pb = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 5.0))
                counts = polynomial_counts(pa, pb, batch)
                phi = [math.ceil(pb * (batch - tau + 1) ** pa)
                       for tau in range(1, batch + 1)]
            a = float(rng.uniform(0.2, 2.0))
            c = float(rng.uniform(0.5, 20.0))
            check = check_sampling_requirement(counts, a, c)
            direct = sum(1.0 / math.sqrt(n) for n in phi)
            assert check.achieved == pytest.approx(direct, rel=1e-12)
            assert check.satisfied == (direct <= c * batch ** (1 - a / 2))


class TestLearningRate:
    def test_inverse_epoch_first(self):
        assert inverse_epoch_rates(1.0, 5)[0] == 1.0

    def test_inverse_epoch_decay(self):
        assert inverse_epoch_rates(4.0, 25)[24] == pytest.approx(0.01)
        assert inverse_epoch_rates(2.0, 5)[4] == pytest.approx(0.1)

    def test_positivity_validation(self):
        for modulus in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                inverse_epoch_rates(modulus, 5)


def mp_theorem1(horizon, budget, a):
    ratio = mpmath.mpf(budget) / mpmath.mpf(horizon)
    if a <= 1.0:
        e_delta = mpmath.mpf(a) / (4 + mpmath.mpf(a))
        e_eta = 3 * mpmath.mpf(a) / (4 + mpmath.mpf(a))
        e_batch = mpmath.mpf(4) / (4 + mpmath.mpf(a))
    else:
        e_delta, e_eta, e_batch = (mpmath.mpf(1) / 5, mpmath.mpf(3) / 5,
                                   mpmath.mpf(4) / 5)
    raw_batch = (1 / ratio) ** e_batch
    return (ratio ** e_delta, ratio ** e_eta,
            max(2, int(mpmath.floor(raw_batch + mpmath.mpf("0.5")))))


def mp_theorem2(horizon, budget, a):
    ratio = mpmath.mpf(budget) / mpmath.mpf(horizon)
    if a <= 4.0 / 3.0:
        e_delta = mpmath.mpf(a) / (4 + mpmath.mpf(a))
        e_batch = mpmath.mpf(4) / (4 + mpmath.mpf(a))
    else:
        e_delta, e_batch = mpmath.mpf(1) / 4, mpmath.mpf(3) / 4
    raw_batch = (1 / ratio) ** e_batch
    return ratio ** e_delta, max(2, int(mpmath.floor(raw_batch + mpmath.mpf("0.5"))))


class TestTheoremParams:
    def test_theorem1_reference_point(self):
        p = theorem1_params(10_000, 10.0, 1.0)
        assert p.delta == pytest.approx(0.251189, abs=1e-6)
        assert p.eta == pytest.approx(0.0158489, abs=1e-7)
        assert p.batch_size == 251

    def test_theorem1_large_a_branch_is_a_independent(self):
        assert theorem1_params(10_000, 10.0, 2.0) == theorem1_params(10_000, 10.0, 1.5)

    def test_theorem1_unit_ratio_limit(self):
        p = theorem1_params(10_000, 10_000 * (1 - 1e-12), 1.0)
        assert p.delta == pytest.approx(1.0, abs=1e-9)
        assert p.eta == pytest.approx(1.0, abs=1e-9)
        assert p.batch_size == 2

    def test_theorem2_reference_point(self):
        p = theorem2_params(10_000, 10.0, 2.0, 1.0)
        assert p.delta == pytest.approx(0.177828, abs=1e-6)
        assert p.batch_size == 178

    def test_theorem2_boundary_uses_small_a_branch(self):
        a = 4.0 / 3.0
        p = theorem2_params(10_000, 10.0, a, 1.0)
        ratio = 10.0 / 10_000
        assert p.delta == pytest.approx(ratio ** (a / (4 + a)), rel=1e-12)

    @pytest.mark.parametrize("a", [CONVEX_SAMPLING_LIMIT,
                                   np.nextafter(CONVEX_SAMPLING_LIMIT, 2.0), 3.0])
    def test_theorem1_at_and_beyond_its_limit_has_the_frozen_exponents(self, a):
        # The capped formula gives the 1/5, 3/5 and 4/5 exponents bit for bit.
        ratio = 10.0 / 10_000
        assert theorem1_params(10_000, 10.0, a) == (
            ratio ** 0.2, ratio ** 0.6, math.floor((1.0 / ratio) ** 0.8 + 0.5))

    @pytest.mark.parametrize("a", [STRONGLY_CONVEX_SAMPLING_LIMIT,
                                   np.nextafter(STRONGLY_CONVEX_SAMPLING_LIMIT, 2.0),
                                   3.0])
    def test_theorem2_at_and_beyond_its_limit_has_the_frozen_exponents(self, a):
        ratio = 10.0 / 10_000
        p = theorem2_params(10_000, 10.0, a, 1.0)
        assert (p.delta, p.batch_size) == (
            ratio ** 0.25, math.floor((1.0 / ratio) ** 0.75 + 0.5))

    def test_theorem2_rate_rule(self):
        p = theorem2_params(10_000, 10.0, 1.0, 2.0)
        assert p.rates.shape == (p.batch_size,)
        assert p.rates[4] == pytest.approx(0.1)

    def test_budget_must_be_below_horizon(self):
        with pytest.raises(ConfigurationError):
            theorem1_params(100, 100.0, 1.0)
        with pytest.raises(ConfigurationError):
            theorem2_params(100, 150.0, 1.0, 1.0)

    @pytest.mark.parametrize("budget", [100.0, 150.0])
    @pytest.mark.parametrize("select", [
        lambda budget: theorem1_params(100, budget, 1.0),
        lambda budget: theorem2_params(100, budget, 1.0, 1.0)],
        ids=["theorem1", "theorem2"])
    def test_budget_not_below_the_horizon_is_named(self, select, budget):
        # The selectors are the only guard left against a budget that reaches
        # the horizon: no scenario's budget does, and compute_budget passes
        # any positive one straight on.
        with pytest.raises(ConfigurationError, match=re.escape(
                f"variation budget {budget} must be below the horizon 100")):
            select(budget)

    def test_matches_high_precision_evaluation(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            horizon = int(rng.integers(10, 10**6))
            budget = float(rng.uniform(1e-3, 0.9)) * horizon
            a = float(rng.choice([rng.uniform(0.05, 1.0), rng.uniform(1.0, 3.0)]))
            p1 = theorem1_params(horizon, budget, a)
            d_mp, e_mp, b_mp = mp_theorem1(horizon, budget, a)
            assert p1.delta == pytest.approx(float(d_mp), rel=1e-12)
            assert p1.eta == pytest.approx(float(e_mp), rel=1e-12)
            assert p1.batch_size == b_mp
            a2 = float(rng.choice([rng.uniform(0.05, 4.0 / 3.0), rng.uniform(4.0 / 3.0, 3.0)]))
            p2 = theorem2_params(horizon, budget, a2, 1.0)
            d_mp2, b_mp2 = mp_theorem2(horizon, budget, a2)
            assert p2.delta == pytest.approx(float(d_mp2), rel=1e-12)
            assert p2.batch_size == b_mp2

    def test_emitted_values_positive_and_delta_below_one(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            horizon = int(rng.integers(10, 10**5))
            budget = float(rng.uniform(0.01, 0.99)) * horizon
            a = float(rng.uniform(0.05, 3.0))
            p = theorem1_params(horizon, budget, a)
            assert p.delta > 0 and p.eta > 0 and p.batch_size >= 2
            assert p.delta < 1.0

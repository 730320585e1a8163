import logging
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import ndtri

from cvarlearn._pcg64 import Stream
from cvarlearn.core import ConfigurationError, CostModel, NoiseSequence
from cvarlearn.environment import (
    GAUSSIAN,
    UNIFORM,
    BrownianSeq,
    UniformSeq,
    _ndtri,
    constant_uniform,
    parking_noise,
    parking_range,
    variation_budget,
    variation_profile,
    w1_gaussian,
    w1_numeric,
    w1_uniform,
)
from cvarlearn.harness import ExperimentConfig, build_scenario
from cvarlearn.oracle import _mid_quantiles, true_cvar


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
    def test_degenerate_step_collapses_to_point_mass(self):
        noise = parking_noise(6000)
        lo, hi = noise.support(1)
        assert lo == hi == 0.85
        assert noise.quantile(1, 0.3) == 0.85
        assert noise.cdf(1, 0.849) == 0.0
        assert noise.cdf(1, 0.85) == 1.0

    def test_building_a_sequence_logs_nothing(self, caplog):
        # The harness reports point masses once per scenario build
        # (tests/test_harness.py::TestScenarioBounds).
        with caplog.at_level(logging.DEBUG):
            parking_noise(6000)
            parking_noise(1500)
            constant_uniform(10, 1.0, 1.0)
        assert caplog.records == []

    def test_table_equals_the_endpoint_formulas(self):
        # Every step of the parking study, the degenerate t = 1, 2 included,
        # at horizons of either parity, below and above 2,048: the raw
        # formulas, a crossing collapsed to the left endpoint. A row is the
        # location and the scale, and their sum is the upper endpoint to the
        # bit.
        for horizon in (1, 2, 500, 2049, 6000):
            noise = parking_noise(horizon)
            table = noise.table
            assert table.shape == (horizon, 2) and not table.flags.writeable
            for t in range(1, horizon + 1):
                lo, hi = parking_range(t, horizon)
                expected = (lo, lo) if hi <= lo else (lo, hi)
                assert noise.support(t) == expected
                loc, scale = table[t - 1].tolist()
                assert (loc, loc + scale) == expected
                assert scale == expected[1] - expected[0]

    @pytest.mark.parametrize("horizon, steps", [
        (500, [1, 2, *range(250, 501)]), (1500, [1, 2, *range(750, 1025)]),
        (6000, [1, 2])])
    def test_point_mass_steps_are_the_stated_ones(self, horizon, steps):
        # README's count: 253 of 500 steps, 277 of 1,500, and t = 1-2 at
        # T = 6,000.
        point = np.flatnonzero(parking_noise(horizon).table[:, 1] == 0) + 1
        assert point.tolist() == steps
        assert len(steps) == {500: 253, 1500: 277, 6000: 2}[horizon]

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_an_empty_horizon_is_rejected(self, horizon):
        with pytest.raises(ConfigurationError, match=r"got \(0, 2\)"):
            parking_noise(horizon)

    def test_non_finite_endpoint_rejected(self):
        with pytest.raises(ConfigurationError, match="t=3"):
            UniformSeq([0.0, 0.0, 0.0], [1.0, 1.0, math.inf])

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
            draws = noise.quantile(t, rng.random(200))
            lo, hi = noise.support(t)
            assert draws.min() >= lo and draws.max() <= hi


class TestBrownianSeq:
    def test_variance_grows(self):
        noise = BrownianSeq(100, diffusivity=0.5)
        sigmas = [noise.table[t - 1, 1] for t in range(1, 101)]
        assert all(s1 < s2 for s1, s2 in zip(sigmas, sigmas[1:]))
        assert sigmas[0] == pytest.approx(1.0)

    def test_quantile_inverts_cdf(self):
        noise = BrownianSeq(10, diffusivity=0.2)
        q = np.linspace(0.01, 0.99, 25)
        y = noise.quantile(5, q)
        assert noise.cdf(5, y) == pytest.approx(q, abs=1e-12)

    def test_budget_scales_with_sigma_span(self):
        noise = BrownianSeq(400, diffusivity=0.1)
        expected = math.sqrt(2 / math.pi) * (noise.table[399, 1] - noise.table[0, 1])
        assert variation_budget(noise) == pytest.approx(expected, rel=1e-12)


class TestSequenceChecks:
    @pytest.mark.parametrize("table, match", [
        (np.zeros((0, 2)), r"shape \(T >= 1, 2\), got \(0, 2\)"),
        (np.zeros((3, 3)), r"shape \(T >= 1, 2\), got \(3, 3\)"),
        (np.zeros(4), r"shape \(T >= 1, 2\), got \(4,\)"),
        (np.zeros((2, 2, 1)), r"shape \(T >= 1, 2\), got \(2, 2, 1\)"),
        ([[0.0, 1.0], [math.nan, 1.0]], "non-finite location or scale at t=2"),
        ([[0.0, math.inf], [0.0, 1.0]], "non-finite location or scale at t=1"),
        ([[0.0, 1.0], [-math.inf, 1.0], [0.0, math.nan]],
         "non-finite location or scale at t=2"),
        ([[0.0, 1.0], [0.0, 0.0], [0.0, -0.5]], "negative scale -0.5 at t=3"),
    ], ids=["empty", "three-columns", "1-d", "3-d", "nan-location", "inf-scale",
            "first-named", "negative-scale"])
    def test_bad_table_rejected(self, table, match):
        with pytest.raises(ConfigurationError, match=match):
            NoiseSequence(table, GAUSSIAN)

    def test_table_is_copied_and_frozen(self):
        table = np.array([[0.0, 1.0], [1.0, 0.0]])
        noise = NoiseSequence(table, UNIFORM)
        assert table.flags.writeable and not noise.table.flags.writeable
        table[0, 0] = 5.0
        assert noise.support(1) == (0.0, 1.0) and noise.support(2) == (1.0, 1.0)

    @pytest.mark.parametrize("diffusivity, rule", [
        (math.inf, "finite, got inf"), (-math.inf, "finite, got -inf"),
        (math.nan, "finite, got nan"), (0, "positive, got 0.0"),
        (-1e-4, "positive, got -0.0001")])
    def test_bad_diffusivity_named(self, diffusivity, rule):
        with pytest.raises(ConfigurationError, match=f"^diffusivity must be {rule}$"):
            BrownianSeq(10, diffusivity)

    def test_crossed_constant_band_named(self):
        with pytest.raises(ConfigurationError,
                           match=r"^constant uniform needs lo <= hi, got 1\.1 > 0\.85$"):
            constant_uniform(10, 1.1, 0.85)

    def test_overflowing_scale_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="non-finite location or scale at t=1"):
            BrownianSeq(10, 1e308)

    @pytest.mark.parametrize("lower, upper, shapes", [
        ([0.0, 0.0, 0.0], [1.0, 1.0], r"\(3,\) and \(2,\)"),
        ([[0.0, 0.0]], [[1.0, 1.0]], r"\(1, 2\) and \(1, 2\)"),
        (0.0, 1.0, r"\(\) and \(\)"),
        ([0.0, 0.0], 1.0, r"\(2,\) and \(\)"),
    ], ids=["lengths", "2-d", "scalars", "scalar-upper"])
    def test_endpoint_shapes_named(self, lower, upper, shapes):
        with pytest.raises(ConfigurationError,
                           match=f"1-D arrays of one length, got shapes {shapes}"):
            UniformSeq(lower, upper)

    @pytest.mark.parametrize("lower, upper", [
        ([0.0, 0.0], [1.0, math.nan]), ([0.0, 0.0], [1.0, -math.inf]),
        ([0.0, math.inf], [1.0, 1.0]), ([0.0, math.nan], [1.0, math.nan])])
    def test_non_finite_endpoint_is_not_a_point_mass(self, lower, upper):
        # Each second step would cross (or compare false) and collapse.
        with pytest.raises(ConfigurationError,
                           match="non-finite uniform endpoints at t=2"):
            UniformSeq(lower, upper)


def _uniform_endpoints(lower, upper):
    """The endpoint table as sequences held it before the location-scale
    table: a crossing collapsed to the left endpoint."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    return lower, np.where(upper <= lower, lower, upper)


def _parking_reference(horizon):
    lower, upper = np.array([parking_range(t, horizon)
                             for t in range(1, horizon + 1)]).T
    return parking_noise(horizon), "uniform", _uniform_endpoints(lower, upper)


BROWNIAN_D = 1e-4

LOCATION_SCALE_CASES = {
    "parking-60": lambda: _parking_reference(60),
    "parking-1500": lambda: _parking_reference(1500),
    "parking-6000": lambda: _parking_reference(6000),
    "custom": lambda: (constant_uniform(6000, 0.85, 1.1), "uniform",
                       _uniform_endpoints(np.full(6000, 0.85), np.full(6000, 1.1))),
    "brownian": lambda: (BrownianSeq(2000, BROWNIAN_D), "gaussian",
                         np.sqrt(2.0 * BROWNIAN_D * np.arange(1, 2001))),
}


def _reference_quantiles(family, reference, steps, q):
    """Each family's quantile as a formula of its old parameters: the
    endpoints ``lo + q (hi - lo)``, or ``sigma_t * ndtri(q)`` clipped."""
    if family == "uniform":
        lo, hi = (end[steps - 1] for end in reference)
        return lo + q * (hi - lo)
    q = np.clip(q, 1e-300, np.nextafter(1.0, 0.0))
    return reference[steps - 1] * _ndtri(q)


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


class TestLocationScaleBits:
    """The location-scale table gives the old per-family formulas' bits."""

    @pytest.mark.parametrize("case", list(LOCATION_SCALE_CASES))
    def test_quantiles_at_the_oracle_levels(self, case):
        noise, family, reference = LOCATION_SCALE_CASES[case]()
        q = np.concatenate([[0.0, 0.5, 1.0], _mid_quantiles(2000)])
        z = noise.family.quantile(q)
        for start in range(0, noise.horizon, 500):
            steps = np.arange(start + 1, min(start + 500, noise.horizon) + 1)[:, None]
            want = _reference_quantiles(family, reference, steps, q)
            assert _same_bits(noise.quantile(steps, q), want)
            assert _same_bits(noise.place(steps, z), want)

    @pytest.mark.parametrize("case", list(LOCATION_SCALE_CASES))
    def test_quantiles_of_uniform_draws(self, case):
        noise, family, reference = LOCATION_SCALE_CASES[case]()
        q = Stream(23).random(10**6)
        steps = 1 + (Stream(29).random(10**6) * noise.horizon).astype(int)
        assert _same_bits(noise.quantile(steps, q),
                          _reference_quantiles(family, reference, steps, q))

    @pytest.mark.parametrize("case", list(LOCATION_SCALE_CASES))
    def test_step_w1_and_support(self, case):
        noise, family, reference = LOCATION_SCALE_CASES[case]()
        steps = np.arange(2, noise.horizon + 1)
        if family == "uniform":
            lo, hi = reference
            want = w1_uniform(lo[:-1], hi[:-1], lo[1:], hi[1:])
            supports = np.column_stack((lo, hi))
        else:
            want = w1_gaussian(0.0, reference[:-1], 0.0, reference[1:])
            supports = np.column_stack((-10.0 * reference, 10.0 * reference))
        assert _same_bits(noise.step_w1(steps), want)
        assert _same_bits(noise.step_w1(steps[:, None]), want[:, None])
        got = np.array([noise.support(t) for t in range(1, noise.horizon + 1)])
        assert _same_bits(got, supports)
        lo, hi = noise.support(steps[:, None])
        assert _same_bits(np.column_stack((lo[:, 0], hi[:, 0])), supports[1:])


def _ndtri_edges():
    """The clip edges of ``BrownianSeq.quantile``, and each branch edge of
    ``_ndtri`` with both neighbours."""
    edges = [1e-300, np.nextafter(1.0, 0.0)]
    for edge in (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)):
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    return np.array(edges)


def _log_uniform_and_complements(rng):
    small = 10.0 ** rng.uniform(-300.0, 0.0, 10**5)
    return np.concatenate([small, np.minimum(1.0 - small, np.nextafter(1.0, 0.0))])


NDTRI_CASES = {
    "uniforms": lambda rng: rng.random(10**6),
    "uniforms-2d": lambda rng: rng.random((300, 400)),
    "mid-quantiles": lambda rng: np.concatenate(
        [_mid_quantiles(n) for n in (1000, 2000, 10_000)]),
    "log-uniform": _log_uniform_and_complements,
    "edges": lambda rng: _ndtri_edges(),
    "scalar-central": lambda rng: np.float64(0.3),
    "scalar-lower-tail": lambda rng: np.float64(1e-300),
    "scalar-upper-tail": lambda rng: np.float64(0.99),
}


class TestNdtri:
    @pytest.mark.parametrize("case", list(NDTRI_CASES))
    def test_bits_equal_scipy(self, case):
        # Compared as int64 bit patterns: every value, not just to a tolerance.
        q = NDTRI_CASES[case](np.random.default_rng(37))
        got, want = _ndtri(q), np.asarray(ndtri(q))
        assert got.shape == want.shape == np.shape(q)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


STEP_ARRAY_CASES = {
    # T = 1500 has point masses at t = 1, 2 and a stretch after the switch.
    "parking": lambda: parking_noise(1500),
    "custom": lambda: constant_uniform(200, 0.85, 1.1),
    "brownian": lambda: BrownianSeq(500, 1e-4),
}


class TestStepArrays:
    @pytest.mark.parametrize("case", sorted(STEP_ARRAY_CASES))
    def test_block_quantiles_equal_per_step_calls(self, case):
        noise = STEP_ARRAY_CASES[case]()
        q = np.concatenate([[0.0, 1.0], np.random.default_rng(33).random(300)])
        steps = np.arange(1, noise.horizon + 1)
        if case == "parking":
            point_masses = noise.table[:, 1] == 0.0
            assert point_masses[:2].all() and point_masses[2:].any()
        block = noise.quantile(steps[:, None], q)
        assert np.array_equal(block, np.array([noise.quantile(t, q) for t in steps]))

    @pytest.mark.parametrize("case", sorted(STEP_ARRAY_CASES))
    def test_step_outside_the_horizon_is_named(self, case):
        noise = STEP_ARRAY_CASES[case]()
        for bad in (0, noise.horizon + 1):
            steps = np.array([[2], [bad], [3]])
            with pytest.raises(ConfigurationError, match=f"step {bad} outside"):
                noise.quantile(steps, np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("case", sorted(STEP_ARRAY_CASES))
    @pytest.mark.parametrize("step, named", [
        (2.9, "2.9"), (2.5, "2.5"), (np.float64(1.5), "1.5"), (math.nan, "nan"),
        (np.array([2.5]), "2.5"), (np.array([[2.0], [1.5], [3.5]]), "1.5"),
    ], ids=["2.9", "2.5", "float64", "nan", "array", "column"])
    def test_non_integer_step_is_named_not_truncated(self, case, step, named):
        noise = STEP_ARRAY_CASES[case]()
        match = f"step {named} is not an integer"
        with pytest.raises(ConfigurationError, match=match):
            noise.quantile(step, 0.9)
        with pytest.raises(ConfigurationError, match=match):
            noise.step_w1(step)
        if np.ndim(step) == 0:
            with pytest.raises(ConfigurationError, match=match):
                noise.cdf(step, 1.0)
            with pytest.raises(ConfigurationError, match=match):
                true_cvar(CostModel(fn=lambda x, xi: x + xi, bound=1.0, lipschitz=1.0),
                          noise, step, 0.0, 0.5, 1000)

    @pytest.mark.parametrize("case", sorted(STEP_ARRAY_CASES))
    def test_integral_float_steps_are_steps(self, case):
        noise = STEP_ARRAY_CASES[case]()
        q = np.linspace(0.0, 1.0, 7)
        assert np.array_equal(noise.quantile(2.0, q), noise.quantile(2, q))
        assert np.array_equal(noise.quantile(np.array([[2.0], [3.0]]), q),
                              noise.quantile(np.array([[2], [3]]), q))

    @pytest.mark.parametrize("case", sorted(STEP_ARRAY_CASES))
    def test_cdf_of_an_array_equals_per_step_calls(self, case):
        # A step array broadcasts against y, point-mass steps included; the
        # values at 0.0, 0.85 and 1.1 sit on a point mass or a support end.
        noise = STEP_ARRAY_CASES[case]()
        steps = np.arange(1, noise.horizon + 1)
        if case == "parking":
            assert (noise.table[:2, 1] == 0.0).all()
        y = np.append(np.linspace(-1.0, 2.0, 31), [0.0, 0.85, 1.1])
        single = np.array([noise.cdf(int(t), y) for t in steps])
        got = noise.cdf(steps[:, None], y)
        assert np.array_equal(got.view(np.int64), single.view(np.int64))
        pair = noise.cdf(np.array([3, 4]), 1.0)
        assert np.array_equal(pair, [noise.cdf(3, 1.0), noise.cdf(4, 1.0)])

    @pytest.mark.parametrize("case", sorted(STEP_ARRAY_CASES))
    def test_step_w1_of_an_array_equals_per_step_calls(self, case):
        noise = STEP_ARRAY_CASES[case]()
        steps = np.arange(2, noise.horizon + 1)
        single = [noise.step_w1(int(t)) for t in steps]
        assert all(type(w) is float for w in single)
        got = noise.step_w1(steps)
        assert np.array_equal(got.view(np.int64), np.array(single).view(np.int64))
        assert np.array_equal(noise.step_w1(steps.reshape(-1, 1))[:, 0], got)
        with pytest.raises(ConfigurationError, match="step 0 outside"):
            noise.step_w1(np.array([3, 1]))


def w1_uniform_branches(a1, b1, a2, b2):
    """``w1_uniform``'s closed form, branch by branch, on Python floats."""
    c0 = a1 - a2
    c1 = (b1 - a1) - (b2 - a2)
    if c1 == 0.0:
        return abs(c0)
    root = -c0 / c1
    if 0.0 < root < 1.0:
        return 0.5 * (abs(c0) * root + abs(c0 + c1) * (1.0 - root))
    return abs(c0 + 0.5 * c1)


def w1_gaussian_branches(mu1, sigma1, mu2, sigma2):
    """``w1_gaussian``'s closed form, branch by branch, on Python floats."""
    dm, ds = mu1 - mu2, abs(sigma1 - sigma2)
    if ds == 0.0:
        return abs(dm)
    z = dm / ds
    return (ds * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z)
            + dm * math.erf(z / math.sqrt(2.0)))


def endpoint_draws(rng, size):
    """Endpoints with shared values, point masses, nested and crossing pairs."""
    starts = rng.choice(np.linspace(-1.0, 1.0, 9), size=(2, size))
    widths = rng.choice([0.0, 0.25, 0.5, 1.0], size=(2, size))
    jitter = rng.uniform(-1.0, 1.0, size=(2, size)) * (rng.random((2, size)) < 0.5)
    return starts + jitter, starts + jitter + widths


class TestW1Broadcast:
    def test_uniform_array_equals_scalar_branches(self):
        (a1, a2), (b1, b2) = endpoint_draws(np.random.default_rng(38), 20_000)
        got = w1_uniform(a1, b1, a2, b2)
        want = np.array([w1_uniform_branches(*v) for v in zip(
            a1.tolist(), b1.tolist(), a2.tolist(), b2.tolist())])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert type(w1_uniform(a1[0], b1[0], a2[0], b2[0])) is float

    def test_gaussian_array_equals_scalar_branches(self):
        rng = np.random.default_rng(39)
        mu1, mu2 = rng.choice([0.0, 0.5], size=(2, 20_000)) + rng.uniform(
            -1.0, 1.0, size=(2, 20_000)) * (rng.random((2, 20_000)) < 0.5)
        s1 = rng.uniform(0.0, 2.0, size=20_000)
        s2 = np.where(rng.random(20_000) < 0.2, s1, rng.uniform(0.0, 2.0, size=20_000))
        got = w1_gaussian(mu1, s1, mu2, s2)
        want = np.array([w1_gaussian_branches(*v) for v in zip(
            mu1.tolist(), s1.tolist(), mu2.tolist(), s2.tolist())])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert type(w1_gaussian(0.0, 1.0, 0.0, 2.0)) is float

    def test_one_bad_entry_rejects_the_array(self):
        with pytest.raises(ConfigurationError, match="a <= b"):
            w1_uniform(np.array([0.0, 1.0]), np.array([1.0, 0.5]), 0.0, 1.0)
        with pytest.raises(ConfigurationError, match="scales"):
            w1_gaussian(0.0, np.array([1.0, -1.0]), 0.0, 1.0)


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
        t = np.arange(1, 3)
        uniform = UniformSeq(0.1 * t, 1.0 + 0.3 * t)
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
        assert variation_budget(noise) == 0.0

    def test_two_step_translation(self):
        noise = UniformSeq([0.0, 1.0], [1.0, 2.0])
        assert variation_budget(noise) == pytest.approx(1.0)

    def test_parking_profile_matches_quadrature_spot_checks(self):
        horizon = 6000
        noise = parking_noise(horizon)
        profile = variation_profile(noise)
        assert profile.shape == (horizon - 1,)
        rng = np.random.default_rng(36)
        for t in rng.integers(3, horizon + 1, size=50):
            t = int(t)
            b_prev, b_curr = noise.support(t - 1), noise.support(t)
            lo = min(b_prev[0], b_curr[0]) - 1e-3
            hi = max(b_prev[1], b_curr[1]) + 1e-3
            numeric = w1_numeric(lambda y: noise.cdf(t - 1, y),
                                 lambda y: noise.cdf(t, y), (lo, hi),
                                 grid=200_000)
            assert profile[t - 2] == pytest.approx(numeric, abs=1e-6)

    @pytest.mark.parametrize("horizon", [2, 37])
    @pytest.mark.parametrize("scenario", ["parking", "custom", "brownian"])
    def test_profile_covers_every_step_of_its_noise(self, scenario, horizon):
        noise = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon)).noise
        profile = variation_profile(noise)
        assert profile.shape == (horizon - 1,)
        assert np.array_equal(profile, noise.step_w1(np.arange(2, horizon + 1)))
        assert variation_budget(noise) == float(profile.sum())

    def test_horizon_too_short(self):
        with pytest.raises(ConfigurationError):
            variation_budget(constant_uniform(1, 0, 1))

"""Experiment harness: configuration, seeded multi-trial runs, CSV output.

A flat key-value config file (plus CLI flag overrides) selects a scenario and
all run parameters. Each trial ``i`` runs with seed ``base_seed + i``; all
trials of an experiment step in lockstep, and a trial's output depends only
on its seed. An experiment runs in three phases: the learner, in this
process; then one oracle pass that finds the per-step optima and evaluates
every trial, its steps cut into ranges; then the CSVs, the trial files cut
by trial. The ranges of the last two phases run at the same time in forked
processes, one per usable CPU, or as one job in this process when there is
one CPU or too little work for a fork to pay; the output is the same byte
for byte. An ablation runs every count's learner first and evaluates all of
their trials in one oracle pass, so a failure writes nothing. All output is CSV (17-significant-digit floats, LF endings, UTF-8);
each file is formatted from one template, in which the columns shared by
every trial are formatted once, and is renamed into place only when whole.
Plotting is left to external tools.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import environment, learner, oracle, schedule
from .core import (AdmissibleSet, Box, ConfigurationError, CostModel,
                   NoiseSequence, fork_map, fork_ranges)
from .schedule import (
    ConstantRate,
    ConstantSampling,
    InverseEpochRate,
    check_sampling_requirement,
    theorem1_params,
    theorem2_params,
)

__all__ = [
    "ExperimentConfig",
    "Scenario",
    "TrialAggregate",
    "BudgetReport",
    "load_config_file",
    "make_config",
    "build_scenario",
    "run_experiment",
    "run_ablation",
    "compute_budget",
]

logger = logging.getLogger(__name__)

SCENARIOS = ("parking", "brownian", "custom")

TRAJECTORY_HEADER = "t,j,tau,x,x_hat,n_t,cvar_est,grad,eta,c_hat,c_star,dr,acc_loss"
AGGREGATE_COLUMNS = ("x", "c_hat", "dr", "acc_loss")


@dataclass
class ExperimentConfig:
    """All knobs of an experiment; defaults reproduce the parking-lot study."""

    scenario: str = "parking"
    horizon: int = 6000
    batch_size: int = 200
    delta: float = 0.05
    alpha: float = 0.5
    samples: int = 8
    eta: float = 0.03
    rate_rule: str = "constant"  # "constant" or "inverse" (1/(m*tau))
    x0: float = 1.0
    trials: int = 10
    base_seed: int = 0
    oracle_k: int = 100
    oracle_grid: int = 2000
    out_prefix: str = "ra"
    # declared sampling-requirement parameters
    sampling_a: float = 2.0 / 3.0
    sampling_c: float = 10.0
    # parking / custom pricing scenario
    elasticity: float = -0.15
    regularization: float = 0.001
    target_occupancy: float = 0.7
    price_low: float = 1.0
    price_high: float = 5.0
    # custom scenario: static uniform noise band
    noise_low: float = 0.85
    noise_high: float = 1.1
    # brownian scenario
    diffusivity: float = 1e-4
    track_low: float = -2.0
    track_high: float = 2.0

    def validate(self) -> "ExperimentConfig":
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and not math.isfinite(value):
                raise ConfigurationError(f"{field.name} must be finite, got {value!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if self.batch_size < 2:
            raise ConfigurationError("batch size must be >= 2")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(f"risk level alpha={self.alpha} must lie in (0, 1]")
        if self.delta <= 0:
            raise ConfigurationError("smoothing radius must be positive")
        if self.eta <= 0:
            raise ConfigurationError("learning rate must be positive")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.base_seed < 0:
            raise ConfigurationError("base seed must be >= 0")
        if self.rate_rule not in ("constant", "inverse"):
            raise ConfigurationError("rate_rule must be 'constant' or 'inverse'")
        if self.samples < 1:
            raise ConfigurationError("samples must be >= 1")
        if self.oracle_k < 2:
            raise ConfigurationError("oracle action grid needs >= 2 points")
        if self.oracle_grid < 1000:
            raise ConfigurationError("oracle quantile grid needs >= 1000 points")
        return self


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` config file (# starts a comment)."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _as_int(value) -> int:
    """An integer, also from ``"6e3"`` or ``6000.0``; never by truncation."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def make_config(*sources: dict) -> ExperimentConfig:
    """Build a validated config from dicts of increasing precedence.

    String values are coerced to the field's type, and an integer field
    rejects a value with a fractional part; the ``RA_SEED``
    environment variable, when set, overrides the base seed last.
    """
    merged: dict = {}
    for source in sources:
        for key, value in source.items():
            if value is None:
                continue
            if key not in _FIELD_TYPES:
                raise ConfigurationError(f"unknown configuration key {key!r}")
            merged[key] = value
    coerced = {}
    for key, value in merged.items():
        ftype = _FIELD_TYPES[key]
        try:
            if ftype == "int":
                coerced[key] = _as_int(value)
            elif ftype == "float":
                coerced[key] = float(value)
            else:
                coerced[key] = str(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad value for {key!r}: {value!r}") from exc
    config = ExperimentConfig(**coerced)
    env_seed = os.environ.get("RA_SEED")
    if env_seed is not None:
        try:
            config.base_seed = int(env_seed)
        except ValueError as exc:
            raise ConfigurationError(f"RA_SEED must be an integer, got {env_seed!r}") from exc
    return config.validate()


@dataclass(frozen=True)
class Scenario:
    cost: CostModel
    noise: NoiseSequence
    region: AdmissibleSet


def _pricing_cost(a_el: float, nu: float, target: float,
                  x_bounds: tuple[float, float],
                  xi_bounds: tuple[float, float]) -> CostModel:
    """Quadratic occupancy-tracking cost with exact corner bounds.

    ``J(x, xi) = (xi + a_el * x - target)^2 + nu/2 * x^2``. Both ``|J|`` and
    ``|dJ/dx|`` are convex in ``(x, xi)``, so their maxima over the
    box-times-interval domain sit at corners.
    """

    def fn(x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return (xi + a_el * x - target) ** 2 + 0.5 * nu * x ** 2

    corners = [(x, xi) for x in x_bounds for xi in xi_bounds]
    bound = max(abs(float(fn(np.array(x), np.array(xi)))) for x, xi in corners)
    lipschitz = max(
        abs(2.0 * a_el * (xi + a_el * x - target) + nu * x) for x, xi in corners
    )
    return CostModel(fn=fn, bound=bound, lipschitz=lipschitz,
                     strong_convexity=2.0 * a_el ** 2 + nu)


def _tracking_cost(x_bounds: tuple[float, float],
                   xi_bounds: tuple[float, float]) -> CostModel:
    """Plain tracking cost ``(x - xi)^2`` with corner-exact bounds."""

    def fn(x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return (x - xi) ** 2

    span = max(abs(x - xi) for x in x_bounds for xi in xi_bounds)
    return CostModel(fn=fn, bound=span ** 2, lipschitz=2.0 * span,
                     strong_convexity=2.0)


def build_scenario(config: ExperimentConfig) -> Scenario:
    """Assemble cost, noise, and admissible set for the configured scenario.

    The cost's U and L0 are computed from the admissible set and the noise
    support (the Gaussian support is taken as its +/-10 sigma truncation)
    and logged, since the sampling-requirement constant and the DKW
    diagnostics reference them. A smoothing radius at or above the decision
    set's inradius is rejected here, before any oracle or learner work.
    """
    config.validate()
    horizon = config.horizon
    if config.scenario == "parking":
        noise: NoiseSequence = environment.parking_noise(horizon)
        region: AdmissibleSet = Box([config.price_low], [config.price_high])
        bounds = noise.bounds_table()
        xi_lo, xi_hi = float(bounds[:, 0].min()), float(bounds[:, 1].max())
        cost = _pricing_cost(config.elasticity, config.regularization,
                             config.target_occupancy,
                             (config.price_low, config.price_high),
                             (xi_lo, xi_hi))
    elif config.scenario == "custom":
        if config.noise_high < config.noise_low:
            raise ConfigurationError("custom scenario needs noise_low <= noise_high")
        noise = environment.constant_uniform(horizon, config.noise_low,
                                             config.noise_high)
        noise.bounds_table()  # here, so that a point mass warns at build
        region = Box([config.price_low], [config.price_high])
        cost = _pricing_cost(config.elasticity, config.regularization,
                             config.target_occupancy,
                             (config.price_low, config.price_high),
                             (config.noise_low, config.noise_high))
    else:  # brownian
        noise = environment.BrownianSeq(horizon, config.diffusivity)
        region = Box([config.track_low], [config.track_high])
        xi_lo, xi_hi = noise.support(horizon)
        cost = _tracking_cost((config.track_low, config.track_high),
                              (xi_lo, xi_hi))
    if config.delta >= region.inradius:
        raise ConfigurationError(
            f"smoothing radius {config.delta} must be below the inradius "
            f"{region.inradius} of the decision set")
    logger.info("scenario %s: U=%.6g L0=%.6g m=%.6g", config.scenario,
                cost.bound, cost.lipschitz, cost.strong_convexity)
    return Scenario(cost=cost, noise=noise, region=region)


def _learner_config(config: ExperimentConfig,
                    scenario: Scenario) -> learner.LearnerConfig:
    if config.rate_rule == "inverse":
        modulus = scenario.cost.strong_convexity
        if modulus <= 0:
            raise ConfigurationError(
                "the inverse-epoch rate needs a strictly convex cost (m > 0)")
        rate: schedule.LearningRateSchedule = InverseEpochRate(modulus)
    else:
        rate = ConstantRate(config.eta)
    return learner.LearnerConfig(
        horizon=config.horizon,
        batch_size=config.batch_size,
        delta=config.delta,
        alpha=config.alpha,
        sampling=ConstantSampling(config.samples),
        rate=rate,
        x0=np.array([config.x0]),
    )


@dataclass
class TrialAggregate:
    """Per-step statistics across trials (population standard deviation)."""

    t: np.ndarray
    x: np.ndarray            # (trials, T) pre-perturbation decisions
    x_hat: np.ndarray        # (trials, T) played (perturbed) actions
    played_cvar: np.ndarray  # (trials, T)
    regret: np.ndarray       # (trials, T) cumulative
    acc_loss: np.ndarray     # (trials, T) cumulative
    optimal_actions: np.ndarray  # (T,)
    optimal_cvar: np.ndarray     # (T,)

    def column(self, name: str) -> np.ndarray:
        return {"x": self.x, "c_hat": self.played_cvar, "dr": self.regret,
                "acc_loss": self.acc_loss}[name]

    def mean(self, name: str) -> np.ndarray:
        return self.column(name).mean(axis=0)

    def std(self, name: str) -> np.ndarray:
        return self.column(name).std(axis=0)


#: Slot of one float cell in a CSV template: 17 significant digits.
_FLOAT = "%.17g"

#: Serial seconds to format and write one trajectory row: the estimate from
#: which ``fork_ranges`` decides whether a fork pays.
_ROW_S = 8e-6


def _template(header: str, columns) -> str:
    """A whole CSV file as one ``%`` template: the header and one line per row.

    A column given as values is formatted into the template, integers as
    integers and floats with 17 significant digits. A column given as
    ``None`` is left as float slots, which ``_write_csv`` fills.
    """
    rows = next(len(c) for c in columns if c is not None)
    cells = [[_FLOAT] * rows if c is None else _cells(c) for c in columns]
    return header + "\n" + "".join(",".join(row) + "\n" for row in zip(*cells))


def _cells(column) -> list[str]:
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return [_FLOAT % v for v in column.tolist()]


def _write_csv(path: Path, template: str, columns) -> None:
    """Fill the slots of ``template``, row by row, from the float ``columns``
    and replace ``path`` with the result.

    The text goes to a temporary file beside ``path`` that is then renamed
    over it, so a failure leaves the old file whole and no temporary file.
    """
    text = template % tuple(np.column_stack(columns).ravel().tolist())
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def run_experiment(config: ExperimentConfig, write: bool = True) -> TrialAggregate:
    """Run all trials, write per-trial and aggregate CSVs, return the aggregate.

    Trial ``i`` uses seed ``base_seed + i``. The per-step optimal-action
    series is trajectory-independent: it is found once, in the same oracle
    pass that evaluates every trial.
    """
    traces, aggs = _experiments(build_scenario(config), [config])
    if write:
        _write_experiments([config.out_prefix], traces, aggs)
    return aggs[0]


def _run_learner(config: ExperimentConfig, scenario: Scenario) -> learner.Trace:
    check = check_sampling_requirement(ConstantSampling(config.samples),
                                       config.batch_size, config.sampling_a,
                                       config.sampling_c)
    if not check.satisfied:
        logger.warning(
            "sampling requirement violated for n=%d: sum 1/sqrt(phi)=%.4g exceeds "
            "%.4g; proceeding anyway", config.samples, check.achieved, check.allowed)
    seeds = range(config.base_seed, config.base_seed + config.trials)
    return learner.run_trials(_learner_config(config, scenario), scenario.cost,
                              scenario.noise, scenario.region, seeds)


def _experiments(scenario: Scenario, configs: list[ExperimentConfig]
                 ) -> tuple[list[learner.Trace], list[TrialAggregate]]:
    """Every config's learner, then one oracle pass over all of their trials.

    The configs differ at most in the learner's settings; the first one's
    risk level and oracle grids serve all.
    """
    traces = [_run_learner(config, scenario) for config in configs]
    first = configs[0]
    report = oracle.dynamic_regret(
        np.concatenate([trace.x_hat for trace in traces]), scenario.cost,
        scenario.noise, scenario.region, first.alpha, k=first.oracle_k,
        grid_n=first.oracle_grid)
    starts = np.cumsum([config.trials for config in configs])[:-1]
    rows = zip(*(np.split(column, starts) for column in (
        report.played_cvar, report.cumulative_regret, report.accumulated_loss)))
    aggs = [TrialAggregate(
        t=trace.t,
        x=trace.x[:, :, 0],
        x_hat=trace.x_hat[:, :, 0],
        played_cvar=played,
        regret=regret,
        acc_loss=acc_loss,
        optimal_actions=report.optimal_actions,
        optimal_cvar=report.optimal_cvar,
    ) for trace, (played, regret, acc_loss) in zip(traces, rows)]
    return traces, aggs


def _write_experiments(prefixes: list[str], traces: list[learner.Trace],
                       aggs: list[TrialAggregate]) -> None:
    """Each experiment's trajectory CSVs, one per trial, and its aggregate CSV.

    The trial files of all experiments are written together, cut by trial
    across forked processes (``fork_ranges``); then this process writes the
    aggregates.
    """
    writes = []
    for prefix, trace, agg in zip(map(Path, prefixes), traces, aggs):
        if prefix.parent != Path("."):
            prefix.parent.mkdir(parents=True, exist_ok=True)
        # The columns shared by every trial are formatted once, into the template.
        template = _template(TRAJECTORY_HEADER, (
            trace.t, trace.batch, trace.epoch, None, None, trace.n_samples, None,
            None, trace.eta, None, agg.optimal_cvar, None, None))
        writes += [(Path(f"{prefix}_trial{i}.csv"), template, (
            agg.x[i], agg.x_hat[i], trace.cvar_estimate[i],
            trace.gradient[i, :, 0], agg.played_cvar[i], agg.regret[i],
            agg.acc_loss[i])) for i in range(len(agg.x))]
    work_s = sum(agg.x.size for agg in aggs) * _ROW_S
    fork_map(lambda part: [_write_csv(*writes[w]) for w in part],
             fork_ranges(len(writes), work_s))
    header = "t," + ",".join(f"mean_{c},std_{c}" for c in AGGREGATE_COLUMNS)
    for prefix, trace, agg in zip(prefixes, traces, aggs):
        stats = [s for c in AGGREGATE_COLUMNS for s in (agg.mean(c), agg.std(c))]
        _write_csv(Path(f"{prefix}_aggregate.csv"),
                   _template(header, (trace.t, *[None] * len(stats))), stats)


def run_ablation(config: ExperimentConfig, sample_counts,
                 write: bool = True) -> dict[int, TrialAggregate]:
    """Re-run the experiment for each sample count and tabulate final losses.

    Counts violating the declared sampling requirement produce a warning but
    still run. Every count is checked before any learner or oracle work.
    Every count's learner runs first; then one oracle pass evaluates all of
    their trials against one optimal-action series; only then are the files
    written: one trajectory set and aggregate per count plus a comparison
    table.
    """
    try:
        counts = [_as_int(n) for n in sample_counts]
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"sample counts must be integers: {exc}") from exc
    if len(counts) < 2 or len(set(counts)) < len(counts):
        raise ConfigurationError(f"ablation needs two or more distinct counts: {counts}")
    subs = [dataclasses.replace(config, samples=n,
                                out_prefix=f"{config.out_prefix}_n{n}").validate()
            for n in counts]
    traces, aggs = _experiments(build_scenario(config), subs)
    if write:
        _write_experiments([sub.out_prefix for sub in subs], traces, aggs)
        checks = [check_sampling_requirement(ConstantSampling(n), config.batch_size,
                                             config.sampling_a, config.sampling_c)
                  for n in counts]
        template = _template(
            "n,mean_final_loss,std_final_loss,requirement_ok,"
            "requirement_achieved,requirement_allowed",
            (counts, None, None, [int(c.satisfied) for c in checks], None, None))
        final_losses = [agg.acc_loss[:, -1] for agg in aggs]
        _write_csv(Path(f"{config.out_prefix}_ablation.csv"), template, (
            [f.mean() for f in final_losses], [f.std() for f in final_losses],
            [c.achieved for c in checks], [c.allowed for c in checks]))
    return dict(zip(counts, aggs))


@dataclass
class BudgetReport:
    budget: float
    profile: np.ndarray  # W1(D_{t-1}, D_t) for t = 2..horizon
    theorem1: schedule.Theorem1Params | None
    theorem2: schedule.Theorem2Params | None


def compute_budget(config: ExperimentConfig, write: bool = True) -> BudgetReport:
    """Variation budget of the configured scenario plus parameter suggestions.

    A zero budget (static sequence) degenerates the batch-size formulas, so
    no suggestions are emitted in that case.
    """
    scenario = build_scenario(config)
    profile = environment.variation_profile(scenario.noise, config.horizon)
    budget = float(profile.sum())
    if budget <= 0.0:
        logger.warning("variation budget is zero (static distribution); "
                       "batch-size selection formulas degenerate")
        t1 = t2 = None
    elif budget >= config.horizon:
        logger.warning("variation budget %.4g is not below the horizon %d; "
                       "no sub-linear selection exists", budget, config.horizon)
        t1 = t2 = None
    else:
        t1 = theorem1_params(config.horizon, budget, config.sampling_a)
        modulus = scenario.cost.strong_convexity
        t2 = (theorem2_params(config.horizon, budget, config.sampling_a, modulus)
              if modulus > 0 else None)
    if write:
        _write_csv(Path(f"{config.out_prefix}_budget.csv"),
                   _template("t,w1", (np.arange(2, config.horizon + 1), None)),
                   (profile,))
    return BudgetReport(budget=budget, profile=profile, theorem1=t1, theorem2=t2)

"""Experiment harness: configuration, seeded multi-trial runs, CSV output.

A flat key-value config file (plus CLI flag overrides) selects a scenario,
one table row of a noise sequence, a decision interval and a ``Quadratic``
cost rule, and all run parameters; ``build_scenario`` logs the cost's
constants and, in one warning, the noise's point-mass steps. Trial ``i`` runs
with seed ``base_seed + i``; all trials of an experiment step in lockstep.
An experiment runs the learner beside the oracle's search for the per-step
optima, then the oracle's played pass over every trial; these tasks, the
played pass's steps and the trial files are cut into ranges that run in
forked processes, one per usable CPU, or in this process on one CPU or
where the platform cannot fork, with the same bytes either way. A run
returns one ``ExperimentResult`` per experiment (its ``Trace``, its trials'
rows of the ``RegretReport`` and its sampling-requirement check) and writes
no file; the ``write_*`` functions write the CSVs from these records as
they are. An ablation evaluates every count's trials in one played pass,
after all of their learners, so a failure leaves nothing to write. All output
is CSV (17-significant-digit floats, LF endings, UTF-8), each file formatted
from templates of a block of rows each and renamed into place, its directory
created, only when whole. Plotting is left to external tools.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import environment, learner, oracle, schedule
from .core import (Box, ConfigurationError, CostModel, NoiseSequence, Quadratic,
                   _as_int, fork_map, fork_ranges)
from .schedule import check_sampling_requirement, theorem1_params, theorem2_params

__all__ = [
    "ExperimentConfig",
    "Scenario",
    "ExperimentResult",
    "BudgetReport",
    "load_config_file",
    "make_config",
    "build_scenario",
    "run_experiment",
    "run_ablation",
    "compute_budget",
    "write_experiments",
    "write_ablation",
    "write_budget",
]

logger = logging.getLogger(__name__)

#: The pricing study's constants (``parking`` and ``custom``): the price
#: elasticity of occupancy, the regularization weight, the occupancy target
#: and the interval of admissible prices.
ELASTICITY, REGULARIZATION, TARGET_OCCUPANCY = -0.15, 0.001, 0.7
PRICES = Box(1.0, 5.0)

#: The interval of ``brownian``'s tracked decisions.
TRACK = Box(-2.0, 2.0)

#: ``custom``'s static uniform noise band and ``brownian``'s diffusivity.
CUSTOM_BAND, DIFFUSIVITY = (0.85, 1.1), 1e-4

#: The evaluation oracle's grids, fixed by the protocol for every scenario:
#: the action-grid size and the number of mid-quantile noise levels.
ORACLE_ACTIONS, ORACLE_LEVELS = 100, 2000

#: Each scenario's noise sequence, built from the horizon, its decision
#: interval and its cost rule: the pricing cost ``(xi + elasticity * x -
#: target)^2 + regularization/2 * x^2``, or ``brownian``'s ``(x - xi)^2`` as
#: ``(xi + (-x))^2``, the same bits: IEEE subtraction is antisymmetric.
_PRICING = Quadratic(slope=ELASTICITY, level=TARGET_OCCUPANCY,
                     weight=0.5 * REGULARIZATION)
_SCENARIO_TABLE = {
    "parking": (environment.parking_noise, PRICES, _PRICING),
    "brownian": (lambda horizon: environment.BrownianSeq(horizon, DIFFUSIVITY),
                 TRACK, Quadratic(slope=-1.0)),
    "custom": (lambda horizon: environment.constant_uniform(horizon, *CUSTOM_BAND),
               PRICES, _PRICING),
}
SCENARIOS = tuple(_SCENARIO_TABLE)

TRAJECTORY_HEADER = "t,j,tau,x,x_hat,n_t,cvar_est,grad,eta,c_hat,c_star,dr,acc_loss"
AGGREGATE_COLUMNS = ("x", "c_hat", "dr", "acc_loss")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of an experiment, frozen; defaults reproduce the parking-lot study."""

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
    out_prefix: str = "ra"
    # declared sampling-requirement parameters
    sampling_a: float = 2.0 / 3.0
    sampling_c: float = 10.0

    def __post_init__(self):
        """Convert every field to its type, an integer by ``_as_int``'s rule,
        and check, at every build (``dataclasses.replace`` too), the rules
        that no object built from the config owns, and the horizon, which
        ``constant_uniform``'s ``np.full`` reads unchecked. This is the one
        converter of config values: a file's, a flag's, an ``ablate --counts``
        entry; a value that does not convert is a bad value."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            try:
                if value is None:  # str() would convert it
                    raise TypeError(field.name)
                value = (_as_int(value, field.name) if field.type == "int"
                         else float(value) if field.type == "float" else str(value))
            except ConfigurationError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(
                    f"bad value for {field.name!r}: {value!r}") from exc
            if field.type == "float" and not math.isfinite(value):
                raise ConfigurationError(f"{field.name} must be finite, got {value!r}")
            object.__setattr__(self, field.name, value)
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if self.base_seed < 0:
            raise ConfigurationError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.rate_rule not in ("constant", "inverse"):
            raise ConfigurationError("rate_rule must be 'constant' or 'inverse'")


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` config file (# starts a comment); a key
    may appear once."""
    values: dict = {}
    lines: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ConfigurationError(
                f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


def make_config(*sources: dict) -> ExperimentConfig:
    """Build a config from dicts of increasing precedence.

    A ``None`` value is skipped and an unknown key is rejected. The layered
    values, strings or numbers, are ``ExperimentConfig``'s to convert and
    check. The sources are the only input: no environment variable changes
    the built config.
    """
    names = {field.name for field in dataclasses.fields(ExperimentConfig)}
    merged = {key: value for source in sources
              for key, value in source.items() if value is not None}
    for key in merged:
        if key not in names:
            raise ConfigurationError(f"unknown configuration key {key!r}")
    return ExperimentConfig(**merged)


@dataclass(frozen=True)
class Scenario:
    cost: CostModel
    noise: NoiseSequence
    region: Box


def build_scenario(config: ExperimentConfig) -> Scenario:
    """Assemble cost, noise, and admissible set for the configured scenario.

    The cost's U, L0 and m come from its rule over the admissible set and
    the span of every step's noise support (a Gaussian's truncated at +/-10
    sigma), and are logged: the sampling-requirement constant and the DKW
    diagnostics reference them. The learner's and the oracle's parameters
    are checked by ``_experiments``; its size, by ``_check_sizes`` before
    this is called.
    """
    make_noise, region, rule = _SCENARIO_TABLE[config.scenario]
    noise = make_noise(config.horizon)
    lo, hi = noise.support(np.arange(1, noise.horizon + 1))
    cost = rule.model(region, (float(lo.min()), float(hi.max())))
    _warn_point_masses(noise.table[:, 1])
    logger.info("scenario %s: U=%.6g L0=%.6g m=%.6g", config.scenario,
                cost.bound, cost.lipschitz, cost.strong_convexity)
    return Scenario(cost=cost, noise=noise, region=region)


def _warn_point_masses(scale: np.ndarray) -> None:
    """Log, in one warning, how many steps of a noise sequence are point
    masses (zero scale) and their contiguous step ranges."""
    steps = np.flatnonzero(scale == 0) + 1
    if steps.size:
        runs = np.split(steps, np.flatnonzero(np.diff(steps) > 1) + 1)
        logger.warning(
            "degenerate uniform range at %d of %d steps (t=%s); emitting a "
            "point mass at the left endpoint", steps.size, len(scale),
            ", ".join(f"{r[0]}" if r.size == 1 else f"{r[0]}-{r[-1]}"
                      for r in runs))


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment: its config, its trials' learner trace and oracle
    report, and the sampling-requirement check of the counts that ran."""

    config: ExperimentConfig
    trace: learner.Trace
    report: oracle.RegretReport
    requirement: schedule.RequirementCheck


def _learner(config: ExperimentConfig, scenario: Scenario
             ) -> tuple[functools.partial[learner.Trace], schedule.RequirementCheck]:
    """``config``'s learner, as a call that runs every trial, its settings
    checked by their owners, and the sampling-requirement check of the
    counts it runs, which logs a violation and goes on."""
    size = schedule._check_batch_size(config.batch_size)  # before np.full reads it
    settings = learner.LearnerConfig(
        delta=config.delta,
        alpha=config.alpha,
        counts=np.full(size, config.samples),
        rates=(schedule.inverse_epoch_rates(scenario.cost.strong_convexity, size)
               if config.rate_rule == "inverse" else np.full(size, config.eta)),
        x0=config.x0,
    )
    scenario.region.shrink(config.delta)  # the learner's radius check, before phase 1
    check = check_sampling_requirement(settings.counts, config.sampling_a,
                                       config.sampling_c)
    if not check.satisfied:
        logger.warning(
            "sampling requirement violated for n=%d: sum 1/sqrt(phi)=%.4g exceeds "
            "%.4g; proceeding anyway", config.samples, check.achieved, check.allowed)
    seeds = range(config.base_seed, config.base_seed + config.trials)
    return functools.partial(learner.run_trials, settings, scenario.cost,
                             scenario.noise, scenario.region, seeds), check


#: Bytes that a run holds at its peak, pinned by tracemalloc (Python 3.11,
#: numpy 2.4) where measured: a step of ``build_scenario``'s noise table,
#: 56 to 59 at T = 100,000; an epoch of ``_learner``'s columns and their
#: checked copies, 40 at B = 1e5 and 1e6; a value of one step's draws, noise
#: and costs, 51 to 61 at T = 2; a seeded ``_pcg64.Stream``, 185. A step of
#: a config's schedule columns, step indices, oracle series and CSV
#: templates takes about 300. A trial-step takes 15 float64s: the eight
#: result columns, held to the end, and at most seven more at once (a forked
#: job's trace, held by the child and the parent; the played pass's parts and
#: temporaries; or a trial file's columns, stacked while it is written). A
#: config's draws fill a block, ``learner._BLOCK`` values, and the oracle's
#: and a CSV writer's reused buffers take about 1.45 MB.
_BUILD_STEP_BYTES, _EPOCH_BYTES, _DRAW_BYTES, _STREAM_BYTES = 64, 64, 64, 256
_STEP_BYTES, _TRIAL_STEP_BYTES, _BUFFER_BYTES = 512, 120, 2 ** 21


def _physical_memory() -> int:
    """Bytes of physical memory; the address space where the platform cannot tell."""
    return (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            if hasattr(os, "sysconf") else sys.maxsize)


def _check_sizes(horizon: int, configs: list[ExperimentConfig]) -> int:
    """An upper estimate of the bytes that a command of ``configs`` at
    ``horizon`` holds at once, from the configs alone, before
    ``build_scenario`` runs; with no configs, the build's. Its terms, in the
    order of allocation, are clamped at zero (a negative size, refused
    later, offsets nothing); a total beyond memory is refused, naming the
    term that passes it."""
    terms = [(f"horizon {horizon} is too large for its noise table",
              _BUILD_STEP_BYTES * horizon)]
    for config in configs:
        terms += [
            (f"batch size {config.batch_size} is too large for its per-epoch columns",
             _EPOCH_BYTES * config.batch_size),
            (f"horizon {horizon} is too large for its per-step columns",
             _STEP_BYTES * horizon),
            (f"trials {config.trials} are too many for their (trials, T) columns",
             (_TRIAL_STEP_BYTES * horizon + _STREAM_BYTES) * config.trials),
            (f"samples {config.samples} are too many for one step's draws",
             _DRAW_BYTES * (learner._BLOCK + config.trials * (1 + config.samples))
             + _BUFFER_BYTES)]
    sizes, memory = [max(0, size) for _, size in terms], _physical_memory()
    for i, (what, _) in enumerate(terms):
        if sum(sizes[:i + 1]) > memory:
            raise ConfigurationError(f"{what}: the run would take {sum(sizes)} "
                                     f"bytes, more than the {memory} bytes of memory")
    return sum(sizes)


#: Slot of one float cell in a CSV template: 17 significant digits.
_FLOAT = "%.17g"

#: Rows per ``%`` template: a cap keeps the text and the values of one
#: fill small, whatever the file's length.
_BLOCK_ROWS = 512


def _template(header: str, columns) -> list[str]:
    """A whole CSV file as ``%`` templates of ``_BLOCK_ROWS`` rows each, the
    first one headed by the header line.

    A column given as values is formatted into the templates, integers as
    integers and floats with 17 significant digits. A column given as
    ``None`` is left as float slots, which ``_write_csv`` fills.
    """
    rows, blocks = next(len(c) for c in columns if c is not None), []
    for i in range(0, rows, _BLOCK_ROWS):  # one block's cells at a time
        cells = [[_FLOAT] * min(_BLOCK_ROWS, rows - i) if c is None
                 else _cells(c[i:i + _BLOCK_ROWS]) for c in columns]
        blocks.append("".join(",".join(row) + "\n" for row in zip(*cells)))
    return [header + "\n" + (blocks[0] if blocks else ""), *blocks[1:]]


def _cells(column) -> list[str]:
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    return [_FLOAT % v for v in column.tolist()]


def _write_csv(path: Path, templates: list[str], columns) -> None:
    """Fill the slots of ``templates``, row by row, from the float ``columns``
    and replace ``path`` with the result.

    Each template is filled and written on its own. The text goes to a
    temporary file beside ``path`` that is then renamed over it, so a
    failure leaves the old file whole and no temporary file. The parent
    directory is created first if it is missing.
    """
    values = np.column_stack(columns)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for i, template in enumerate(templates):
                rows = values[i * _BLOCK_ROWS:(i + 1) * _BLOCK_ROWS]
                fh.write(template % tuple(rows.ravel().tolist()))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials and return the result; ``write_experiments`` writes it.

    Trial ``i`` uses seed ``base_seed + i``. The per-step optimal-action
    series is trajectory-independent: the search pass finds it once, for
    the played pass of every trial.
    """
    return _experiments([config])[0]


def _experiments(configs: list[ExperimentConfig]) -> list[ExperimentResult]:
    """Phase 1: every config's learner beside the oracle's search pass, as
    tasks cut across forked processes by ``fork_ranges``; phase 2: one
    played pass over all of their trials.

    The configs differ at most in the learner's settings; the first one's
    scenario and risk level serve all. The study is sized before its
    scenario is built, and every learner built, which checks it, and a
    sampling-requirement violation logged, before any fork. Each result's
    report holds its own trials' rows. An initial decision outside the shrunk
    set is projected into it, which is logged once, from the first run.
    """
    first = configs[0]
    _check_sizes(first.horizon, configs)
    scenario = build_scenario(first)
    learners = [_learner(config, scenario) for config in configs]
    actions = oracle.action_grid(scenario.region, ORACLE_ACTIONS)
    levels = oracle._mid_quantiles(ORACLE_LEVELS)
    tasks = [functools.partial(
        oracle.optimal_action_series, scenario.cost, scenario.noise, actions,
        first.alpha, levels), *(run for run, _ in learners)]
    optima, *traces = (out for part in fork_map(
        lambda part: [tasks[i]() for i in part],
        fork_ranges(len(tasks))) for out in part)
    x0, x = first.x0, traces[0].x[0, 0]
    if x != x0:
        logger.info("initial decision projected into the shrunk set: %s -> %s", x0, x)
    report = oracle.dynamic_regret(
        np.concatenate([trace.x_hat for trace in traces]), scenario.cost,
        scenario.noise, first.alpha, optima, levels)
    results, start = [], 0
    for config, trace, (_, check) in zip(configs, traces, learners):
        rows = slice(start, start + config.trials)
        start = rows.stop
        own = dataclasses.replace(
            report, played_cvar=report.played_cvar[rows],
            cumulative_regret=report.cumulative_regret[rows],
            accumulated_loss=report.accumulated_loss[rows])
        results.append(ExperimentResult(config, trace, own, check))
    return results


def write_experiments(results: list[ExperimentResult]) -> None:
    """Each experiment's trajectory CSVs, one per trial, and its aggregate CSV.

    The trial files of all experiments are written together, cut by trial
    across forked processes (``fork_ranges``); then this process writes the
    aggregates: the mean and population standard deviation across trials
    of each step's decision, played CVaR, dynamic regret and accumulated
    loss.
    """
    writes = []
    for result in results:
        prefix, trace, report = result.config.out_prefix, result.trace, result.report
        # The columns shared by every trial are formatted once, into the templates.
        templates = _template(TRAJECTORY_HEADER, (
            trace.t, trace.batch, trace.epoch, None, None, trace.n_samples, None,
            None, trace.eta, None, report.optimal_cvar, None, None))
        writes += [(Path(f"{prefix}_trial{i}.csv"), templates, (
            trace.x[i], trace.x_hat[i], trace.cvar_estimate[i],
            trace.gradient[i], report.played_cvar[i],
            report.cumulative_regret[i], report.accumulated_loss[i]))
            for i in range(result.config.trials)]
    fork_map(lambda part: [_write_csv(*writes[w]) for w in part],
             fork_ranges(len(writes)))
    header = "t," + ",".join(f"mean_{c},std_{c}" for c in AGGREGATE_COLUMNS)
    for result in results:
        report = result.report
        # Read C-ordered: from 8 trials up, an axis-0 reduction of a
        # Fortran-ordered column gives other bits.
        columns = [np.ascontiguousarray(c) for c in (
            result.trace.x, report.played_cvar, report.cumulative_regret,
            report.accumulated_loss)]
        stats = [s for c in columns for s in (c.mean(axis=0), c.std(axis=0))]
        _write_csv(Path(f"{result.config.out_prefix}_aggregate.csv"),
                   _template(header, (result.trace.t, *[None] * len(stats))), stats)


def run_ablation(config: ExperimentConfig, sample_counts) -> dict[int, ExperimentResult]:
    """Re-run the experiment for each sample count: each count's result,
    in count order, its prefix ``<out_prefix>_n<count>``.

    Each count is ``dataclasses.replace(config, samples=n)``'s ``samples``,
    so ``"08"`` and ``8.0`` repeat 8. Counts violating the declared sampling
    requirement produce a warning but still run. Every count is checked and
    sized, and ``samples`` only checked, before any learner or oracle work.
    Every count's learner runs beside one optimal-action search; then one
    played pass evaluates all of their trials against that series.
    ``write_experiments`` writes each count's trajectory set and aggregate,
    and ``write_ablation`` the comparison table.
    """
    counts = [dataclasses.replace(config, samples=n).samples for n in sample_counts]
    if len(counts) < 2 or len(set(counts)) < len(counts):
        raise ConfigurationError(f"ablation needs two or more distinct counts: {counts}")
    schedule._check_counts([config.samples])  # replaced by the counts, yet checked
    subs = [dataclasses.replace(config, samples=n, out_prefix=f"{config.out_prefix}_n{n}")
            for n in counts]
    return dict(zip(counts, _experiments(subs)))


def write_ablation(prefix: str, results: dict[int, ExperimentResult]) -> None:
    """``<prefix>_ablation.csv``: each count's mean and population standard
    deviation of the final accumulated loss across trials, and its
    sampling-requirement check, from ``run_ablation``'s results."""
    checks = [result.requirement for result in results.values()]
    templates = _template(
        "n,mean_final_loss,std_final_loss,requirement_ok,"
        "requirement_achieved,requirement_allowed",
        (list(results), None, None, [int(c.satisfied) for c in checks], None, None))
    final_losses = [result.report.accumulated_loss[:, -1]
                    for result in results.values()]
    _write_csv(Path(f"{prefix}_ablation.csv"), templates, (
        [f.mean() for f in final_losses], [f.std() for f in final_losses],
        [c.achieved for c in checks], [c.allowed for c in checks]))


@dataclass(frozen=True, eq=False)
class BudgetReport:
    budget: float
    profile: np.ndarray  # W1(D_{t-1}, D_t) for t = 2..horizon
    theorem1: schedule.Theorem1Params | None
    theorem2: schedule.Theorem2Params | None
    modulus: float  # the cost's strong-convexity modulus m of theorem2's rates


def compute_budget(config: ExperimentConfig) -> BudgetReport:
    """Variation budget of the configured scenario plus parameter suggestions.

    A zero budget (static sequence) degenerates the batch-size formulas, so
    no suggestions are emitted in that case. Only the build is sized.
    """
    _check_sizes(config.horizon, [])
    scenario = build_scenario(config)
    modulus = scenario.cost.strong_convexity
    horizon = scenario.noise.horizon
    profile = environment.variation_profile(scenario.noise)
    budget = float(profile.sum())
    if budget <= 0.0:
        logger.warning("variation budget is zero (static distribution); "
                       "batch-size selection formulas degenerate")
        t1 = t2 = None
    else:
        t1 = theorem1_params(horizon, budget, config.sampling_a)
        t2 = (theorem2_params(horizon, budget, config.sampling_a, modulus)
              if modulus > 0 else None)
    return BudgetReport(budget=budget, profile=profile, theorem1=t1, theorem2=t2,
                        modulus=modulus)


def write_budget(prefix: str, report: BudgetReport) -> None:
    """``<prefix>_budget.csv``: the report's W1 profile by step ``t``, from 2."""
    _write_csv(Path(f"{prefix}_budget.csv"),
               _template("t,w1", (np.arange(2, report.profile.size + 2), None)),
               (report.profile,))

import argparse
import ast
import contextlib
import dataclasses
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvarlearn
import cvarlearn.cli as cli
import cvarlearn.core as core
import cvarlearn.environment as environment
import cvarlearn.harness as harness
import cvarlearn.learner as learner
import cvarlearn.oracle as oracle
import cvarlearn.verify as verify
from cvarlearn._pcg64 import Stream
from cvarlearn.core import ConfigurationError
from cvarlearn.harness import (
    ExperimentConfig,
    TRAJECTORY_HEADER,
    build_scenario,
    compute_budget,
    load_config_file,
    make_config,
    run_ablation,
    run_experiment,
)
from cvarlearn.risk import cvar_discrete
from cvarlearn.schedule import theorem1_params, theorem2_params


ROOT = Path(__file__).parents[1]


def bench_workloads() -> dict:
    """Each benchmark workload's CLI arguments, scenario and horizon by name,
    read from the ``WORKLOADS`` table of ``perfbench/run.py`` with ``ast``:
    the first three arguments of each ``Workload(...)`` call."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    table = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["WORKLOADS"])
    return {ast.literal_eval(key): tuple(map(ast.literal_eval, call.args[:3]))
            for key, call in zip(table.keys, table.values)}


BENCH_WORKLOADS = bench_workloads()


#: The head of a ``python -c`` script: the package sees ``{}`` usable CPUs.
USABLE_CPUS = "import cvarlearn.core as core; core._usable_cpus = lambda: {}\n"


def forbid_oracle_and_learner(monkeypatch):
    """Make every call into the oracle or the learner fail the test."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle ran on an invalid configuration")

    def no_learner(*args, **kwargs):
        raise AssertionError("learner ran on an invalid configuration")

    monkeypatch.setattr(oracle, "optimal_action_series", no_oracle)
    monkeypatch.setattr(oracle, "_played_cvars", no_oracle)
    monkeypatch.setattr(learner, "run_trials", no_learner)


def small_config(tmp_path, **overrides):
    base = dict(horizon=10, batch_size=5, trials=1, out_prefix=str(tmp_path / "ra"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    # A Windows editor may save the file with a byte-order mark and CRLF ends.
    @pytest.mark.parametrize("encoding, newline", [
        ("utf-8", "\n"), ("utf-8-sig", "\r\n")], ids=["plain", "bom-crlf"])
    def test_file_plus_overrides(self, tmp_path, encoding, newline):
        path = tmp_path / "exp.cfg"
        path.write_text("horizon = 100  # steps\nalpha = 0.25\n\n# comment\n",
                        encoding=encoding, newline=newline)
        config = make_config(load_config_file(path), {"alpha": 0.5})
        assert config.horizon == 100
        assert config.alpha == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            make_config({"not_a_key": 1})

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("horizon = soon\n")
        with pytest.raises(ConfigurationError):
            make_config(load_config_file(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("horizon 100\n")
        with pytest.raises(ConfigurationError):
            load_config_file(path)

    @pytest.mark.parametrize("value", ["6000", "6e3", "6000.0", 6000.0], ids=repr)
    def test_integral_int_spellings_accepted(self, value):
        assert make_config({"horizon": value}).horizon == 6000

    @pytest.mark.parametrize("value", ["40.7", 40.7, "1e400", "nan"], ids=repr)
    def test_fractional_int_rejected(self, value):
        with pytest.raises(ConfigurationError):
            make_config({"horizon": value})

    @pytest.mark.parametrize("field", ["delta", "eta", "x0", "sampling_a"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            make_config({field: value})

    def test_repeated_key_rejected(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("horizon = 100\n# shorter\nalpha = 0.25\nhorizon = 7\n")
        with pytest.raises(ConfigurationError,
                           match=r"exp\.cfg:4: key 'horizon' repeats line 1"):
            load_config_file(path)
        forbid_oracle_and_learner(monkeypatch)
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "x")]) == 1
        assert "repeats line 1" in capsys.readouterr().err

    def test_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            make_config({"scenario": "casino"})

    def test_config_is_frozen(self):
        config = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.horizon = 10
        assert not hasattr(config, "validate")

    def test_every_built_config_is_checked(self):
        with pytest.raises(ConfigurationError, match="horizon must be >= 1, got 0"):
            dataclasses.replace(ExperimentConfig(), horizon=0)
        with pytest.raises(ConfigurationError, match="unknown scenario 'casino'"):
            ExperimentConfig(scenario="casino")
        with pytest.raises(ConfigurationError, match="delta must be finite"):
            ExperimentConfig(delta=math.nan)

    @pytest.mark.parametrize("field, value", [
        ("horizon", 12.0), ("trials", 2.0), ("base_seed", 3.0), ("horizon", "12"),
        ("trials", 2.5)], ids=repr)
    def test_a_built_config_stores_its_integers_as_int(self, tmp_path, field, value):
        # An integral float or string is stored as an int, and the config
        # runs as the int one does; a fractional value names its field.
        if value == 2.5:
            with pytest.raises(ConfigurationError, match="trials 2.5 is not an integer"):
                small_config(tmp_path, **{field: value})
            return
        config = small_config(tmp_path, **{field: value})
        stored = getattr(config, field)
        assert type(stored) is int and stored == int(float(value))
        assert np.array_equal(
            run_experiment(config).trace.x,
            run_experiment(dataclasses.replace(config, **{field: stored})).trace.x)

    @pytest.mark.parametrize("field", [
        field.name for field in dataclasses.fields(ExperimentConfig)
        if field.type in ("int", "float")])
    def test_every_number_field_is_converted_by_the_config(self, field):
        # Its string spelling builds the same config by either path, and a
        # value that does not convert names the field, on a replace too.
        spelled = str(getattr(ExperimentConfig(), field))
        assert (make_config({field: spelled}) == ExperimentConfig(**{field: spelled})
                == ExperimentConfig())
        for bad in ("x", None):
            with pytest.raises(ConfigurationError,
                               match=f"^bad value for '{field}': {bad!r}$"):
                dataclasses.replace(ExperimentConfig(), **{field: bad})
        with pytest.raises(ConfigurationError, match=f"^bad value for '{field}': 'x'$"):
            make_config({field: "x"})

    @pytest.mark.parametrize("field", [
        field.name for field in dataclasses.fields(ExperimentConfig)
        if field.type == "str"])
    def test_a_text_field_rejects_none(self, field):
        # str(None) would store the text 'None'.
        with pytest.raises(ConfigurationError, match=f"^bad value for '{field}': None$"):
            dataclasses.replace(ExperimentConfig(), **{field: None})

    def test_field_names_are_pinned(self):
        # Every config key is an option that some caller sets, so a key that
        # is added, dropped or reordered must fail here.
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "scenario", "horizon", "batch_size", "delta", "alpha", "samples",
            "eta", "rate_rule", "x0", "trials", "base_seed", "out_prefix",
            "sampling_a", "sampling_c"]


class TestRunExperiment:
    def test_row_count_contract(self, tmp_path):
        config = small_config(tmp_path)
        harness.write_experiments([run_experiment(config)])
        lines = (tmp_path / "ra_trial0.csv").read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 11

    def test_byte_identical_reruns(self, tmp_path):
        config_a = small_config(tmp_path, trials=2, out_prefix=str(tmp_path / "a"))
        config_b = small_config(tmp_path, trials=2, out_prefix=str(tmp_path / "b"))
        harness.write_experiments([run_experiment(config_a)])
        harness.write_experiments([run_experiment(config_b)])
        for name in ("trial0.csv", "trial1.csv", "aggregate.csv"):
            assert ((tmp_path / f"a_{name}").read_bytes()
                    == (tmp_path / f"b_{name}").read_bytes())

    def test_aggregate_header_schema(self, tmp_path):
        harness.write_experiments([run_experiment(small_config(tmp_path, trials=2))])
        header = (tmp_path / "ra_aggregate.csv").read_text().splitlines()[0]
        assert header == ("t,mean_x,std_x,mean_c_hat,std_c_hat,mean_dr,std_dr,"
                          "mean_acc_loss,std_acc_loss")

    def test_floats_round_trip_through_csv(self, tmp_path):
        config = small_config(tmp_path)
        result = run_experiment(config)
        harness.write_experiments([result])
        row = (tmp_path / "ra_trial0.csv").read_text().splitlines()[1].split(",")
        assert float(row[3]) == result.trace.x[0, 0]
        # LF line endings, no CR
        assert b"\r" not in (tmp_path / "ra_trial0.csv").read_bytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [0, 1, 2])
    def test_blocked_writer_equals_whole_file_formatting(self, tmp_path, blocks,
                                                         offset):
        # Templates cut every _BLOCK_ROWS rows give the text of one line per
        # row, written whole, for files ending short of, at and past a cut.
        rows = max(0, blocks * harness._BLOCK_ROWS + offset)
        t = np.arange(rows)
        a, b = np.linspace(0, 1, rows) ** 3, -np.sqrt(t)
        harness._write_csv(tmp_path / "f.csv", harness._template(
            "t,a,w,b", (t, None, np.full(rows, 0.1), None)), (a, b))
        expected = "t,a,w,b\n" + "".join(
            "%d,%.17g,%.17g,%.17g\n" % (i, x, 0.1, y) for i, x, y in zip(t, a, b))
        assert (tmp_path / "f.csv").read_text() == expected

    def test_templates_take_one_block_of_memory(self):
        # A trajectory file's shared cells are formatted one block at a
        # time, about 1.2 times the templates' size; the whole file's cells
        # and lines at once take over 7 times at this length.
        t = np.arange(1, 20_001)
        columns = (t, t % 7, t % 5, None, None, t % 3 + 8, None, None,
                   np.linspace(0, 1, t.size), None, np.sqrt(t), None, None)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            templates = harness._template(harness.TRAJECTORY_HEADER, columns)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(map(sys.getsizeof, templates))

    def test_failed_write_keeps_the_old_files(self, tmp_path, monkeypatch):
        config = small_config(tmp_path, trials=2)
        harness.write_experiments([run_experiment(config)])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["ra_aggregate.csv", "ra_trial0.csv",
                                  "ra_trial1.csv"]

        class FullDisk:
            """Writes half of the text, then fails as a full disk would."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(harness, "open",
                            lambda *args, **kwargs: FullDisk(open(*args, **kwargs)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            harness.write_experiments(
                [run_experiment(dataclasses.replace(config, base_seed=1))])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_seed_isolation(self, tmp_path):
        base = small_config(tmp_path, trials=2)
        x_a = run_experiment(base).trace.x
        more = dataclasses.replace(base, trials=3)
        x_b = run_experiment(more).trace.x
        assert np.array_equal(x_a[0], x_b[0])
        assert np.array_equal(x_a[1], x_b[1])
        shifted = dataclasses.replace(base, base_seed=1)
        x_c = run_experiment(shifted).trace.x
        assert np.array_equal(x_a[1], x_c[0])
        assert not np.array_equal(x_a[0], x_c[0])

    def test_lockstep_matches_single_trials(self, tmp_path):
        # Trial i of a lockstep run equals a one-trial run of seed base + i.
        together = small_config(tmp_path, horizon=20, batch_size=5, trials=3,
                                base_seed=4)
        result = run_experiment(together)
        for i in range(3):
            alone = run_experiment(dataclasses.replace(
                together, trials=1, base_seed=4 + i))
            for part, name in [("trace", "x"), ("trace", "x_hat"),
                               ("report", "played_cvar"),
                               ("report", "cumulative_regret"),
                               ("report", "accumulated_loss")]:
                assert np.array_equal(getattr(getattr(result, part), name)[i],
                                      getattr(getattr(alone, part), name)[0]), name

    def test_aggregate_statistics_definition(self, tmp_path):
        # Population standard deviation across trials.
        result = run_experiment(small_config(tmp_path, trials=3))
        harness.write_experiments([result])
        table = np.loadtxt(tmp_path / "ra_aggregate.csv", delimiter=",",
                           skiprows=1)
        x = result.trace.x
        assert table[:, 1] == pytest.approx(x.mean(axis=0))
        assert table[:, 8] == pytest.approx(
            result.report.accumulated_loss.std(axis=0))
        assert np.all(table[:, 2] >= 0)

    def test_aggregate_bits_do_not_depend_on_the_layout(self, tmp_path):
        # From 8 trials up, an axis-0 mean or std of a Fortran-ordered column
        # gives other bits than of a C-ordered one; the aggregates must not.
        # The running sums are derived from the played CVaRs.
        config = small_config(tmp_path, horizon=200, batch_size=10, trials=10)
        result = run_experiment(config)
        report = result.report
        fortran = dataclasses.replace(
            result,
            config=dataclasses.replace(config, out_prefix=str(tmp_path / "f")),
            trace=dataclasses.replace(result.trace,
                                      x=np.asfortranarray(result.trace.x)),
            report=dataclasses.replace(
                report, played_cvar=np.asfortranarray(report.played_cvar)))
        harness.write_experiments([result, fortran])
        assert ((tmp_path / "ra_aggregate.csv").read_bytes()
                == (tmp_path / "f_aggregate.csv").read_bytes())

    @staticmethod
    def random_result(trials, horizon):
        """A stand-in result whose decisions, played CVaRs and optima are
        random."""
        rng = np.random.default_rng(trials)
        x, played = rng.normal(2.0, 1.0, (2, trials, horizon))
        optima = rng.normal(2.0, 1.0, (2, horizon))
        return SimpleNamespace(trace=SimpleNamespace(x=x),
                               report=oracle.RegretReport(played, *optima))

    @pytest.mark.parametrize("trials", [3, 8, 10, 100])
    def test_blockwise_aggregates_equal_the_whole_columns(self, trials):
        # 1,300 steps, not a multiple of the 512-step blocks: each block's
        # axis-0 mean and std, and each block's running sums, carried over
        # from the block before, have the bits of the whole column's.
        result = self.random_result(trials, 1300)
        stats = harness._aggregates(result)
        columns = (result.trace.x, result.report.played_cvar,
                   result.report.cumulative_regret, result.report.accumulated_loss)
        reference = [s for c in columns for s in (c.mean(axis=0), c.std(axis=0))]
        assert len(stats) == len(reference)
        for got, want in zip(stats, reference):
            assert got.tobytes() == want.tobytes()

    def test_aggregates_add_less_than_one_trial_column(self):
        # std over a whole (trials, T) column makes (trials, T) temporaries,
        # and so would the derived running sums; a block of steps at a
        # time, the aggregates, eight (T,) arrays, and one block's
        # temporaries stay below one such column.
        trials, horizon = 50, 3000
        result = self.random_result(trials, horizon)
        assert traced_peak(lambda: harness._aggregates(result)) < 8 * trials * horizon

    def test_library_calls_write_no_file(self, tmp_path, monkeypatch):
        # Only the writers write; the default prefix would put files here.
        monkeypatch.chdir(tmp_path)
        config = ExperimentConfig(horizon=10, batch_size=5, trials=1)
        run_experiment(config)
        run_ablation(config, [2, 4])
        compute_budget(config)
        assert not list(tmp_path.iterdir())


class TestAblation:
    def test_identical_counts_share_seeds(self, tmp_path):
        # A count's trials get the same seeds whichever counts run beside it.
        # Repeating a count is a fault: it would run and write that count twice.
        config = small_config(tmp_path, trials=2)
        with pytest.raises(ConfigurationError, match="distinct"):
            run_ablation(config, [4, 4])
        two = run_ablation(config, [4, 8])
        assert np.array_equal(two[4].trace.x, run_ablation(config, [2, 4])[4].trace.x)

    @pytest.mark.parametrize("field, value", [
        ("scenario", "custom"), ("horizon", 12), ("alpha", 0.25)])
    def test_a_study_of_configs_that_differ_beyond_the_learner_is_refused(
            self, tmp_path, monkeypatch, field, value):
        # The first config's scenario, horizon and risk level serve the whole
        # study, so a config that differs in one is refused, naming the
        # field, before the study is sized or its scenario built.
        built = spy_on_builds(monkeypatch)
        forbid_oracle_and_learner(monkeypatch)
        sized = []
        monkeypatch.setattr(harness, "_check_sizes", lambda *args: sized.append(args))
        config = small_config(tmp_path, trials=2)
        other = dataclasses.replace(config, samples=4, **{field: value})
        with pytest.raises(ConfigurationError, match=(
                f"the configs of one study must share their {field}, got ")):
            harness._experiments([config, other])
        assert built == [] and sized == []

    def test_comparison_table_written(self, tmp_path):
        config = small_config(tmp_path, trials=2)
        results = run_ablation(config, [2, 4])
        harness.write_experiments(list(results.values()))
        harness.write_ablation(config.out_prefix, results)
        table = (tmp_path / "ra_ablation.csv").read_text().splitlines()
        assert table[0].startswith("n,mean_final_loss,std_final_loss")
        assert len(table) == 3
        assert (tmp_path / "ra_n2_aggregate.csv").exists()
        assert (tmp_path / "ra_n4_aggregate.csv").exists()

    def test_requirement_violation_warns_but_runs(self, tmp_path, caplog):
        config = small_config(tmp_path, trials=1, sampling_a=2.0, sampling_c=0.1)
        with caplog.at_level(logging.WARNING):
            results = run_ablation(config, [1, 2])
        assert 1 in results and 2 in results
        assert not results[1].requirement.satisfied
        assert any("sampling requirement violated" in rec.message
                   for rec in caplog.records)

    def test_aggregates_equal_separate_experiments(self, tmp_path):
        # One oracle pass over every count's trials gives what one
        # experiment per count gives.
        config = small_config(tmp_path, horizon=20, trials=3, base_seed=2)
        results = run_ablation(config, [2, 4, 6])
        assert list(results) == [2, 4, 6]
        for n, result in results.items():
            alone = run_experiment(dataclasses.replace(config, samples=n))
            assert result.requirement == alone.requirement
            for part in ("trace", "report"):
                ours, theirs = getattr(result, part), getattr(alone, part)
                for field in dataclasses.fields(ours):
                    assert np.array_equal(getattr(ours, field.name),
                                          getattr(theirs, field.name)), (
                        n, part, field.name)

    @pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "forked"])
    def test_failed_ablation_writes_nothing(self, tmp_path, monkeypatch, force_jobs,
                                            jobs):
        # The learner of count 6 fails, here or in a forked child.
        run_trials = learner.run_trials

        def third_count_fails(settings, *args):
            if settings.counts[0] == 6:
                raise RuntimeError("learner failed on the third count")
            return run_trials(settings, *args)

        monkeypatch.setattr(learner, "run_trials", third_count_fails)
        force_jobs(jobs)
        with pytest.raises(RuntimeError, match="third count"):
            run_ablation(small_config(tmp_path, trials=2), [2, 4, 6])
        assert not list(tmp_path.iterdir())

    def test_needs_two_counts(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_ablation(small_config(tmp_path), [8])


class TestBudget:
    def test_static_scenario_degenerates(self, tmp_path, caplog):
        config = small_config(tmp_path, scenario="custom", horizon=20)
        with caplog.at_level(logging.WARNING):
            report = compute_budget(config)
        harness.write_budget(config.out_prefix, report)
        assert report.budget == 0.0
        assert report.theorem1 is None and report.theorem2 is None
        assert any("degenerate" in rec.message for rec in caplog.records)
        assert (tmp_path / "ra_budget.csv").read_text().splitlines()[0] == "t,w1"

    def test_parking_budget_with_suggestions(self, tmp_path):
        config = small_config(tmp_path, horizon=200)
        report = compute_budget(config)
        assert report.budget > 0
        assert report.theorem1 is not None
        assert report.theorem1.batch_size >= 2
        assert report.theorem2 is not None
        assert report.profile.shape == (199,)

    def test_brownian_budget_closed_form(self, tmp_path):
        config = small_config(tmp_path, scenario="brownian", horizon=50)
        report = compute_budget(config)
        noise = build_scenario(config).noise
        expected = np.sqrt(2 / np.pi) * (noise.table[49, 1] - noise.table[0, 1])
        assert report.budget == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scenario", harness.SCENARIOS)
    def test_every_scenario_budget_is_below_the_horizon(self, tmp_path, scenario):
        # No scenario's V_T reaches its horizon, so a positive budget always
        # gets both selections and a static one gets none.
        for horizon in (2, 6000, 100_000):
            config = small_config(tmp_path, scenario=scenario, horizon=horizon)
            report = compute_budget(config)
            assert 0.0 <= report.budget < horizon
            assert (report.theorem1 is None) == (report.budget == 0.0)
            assert (report.theorem2 is None) == (report.budget == 0.0)


class TestScenarioBounds:
    def test_pricing_bounds_cover_samples(self):
        config = ExperimentConfig(horizon=300)
        scen = build_scenario(config)
        rng = np.random.default_rng(61)
        for _ in range(300):
            t = int(rng.integers(1, 301))
            x = rng.uniform(1.0, 5.0, size=1)
            xi = scen.noise.quantile(t, rng.random(8))
            values = np.asarray(scen.cost(x, xi))
            assert np.all(np.abs(values) <= scen.cost.bound + 1e-12)

    def test_lipschitz_bound_holds_empirically(self):
        config = ExperimentConfig(horizon=300)
        scen = build_scenario(config)
        rng = np.random.default_rng(62)
        for _ in range(300):
            t = int(rng.integers(1, 301))
            xa = float(rng.uniform(1.0, 5.0))
            xb = float(rng.uniform(1.0, 5.0))
            xi = scen.noise.quantile(t, rng.random(1))
            ja = float(np.asarray(scen.cost(np.array([xa]), xi))[0])
            jb = float(np.asarray(scen.cost(np.array([xb]), xi))[0])
            assert abs(ja - jb) <= scen.cost.lipschitz * abs(xa - xb) + 1e-12


    @pytest.mark.parametrize("scenario", harness.SCENARIOS)
    def test_every_scenario_builds_its_constants_from_its_rule(self, scenario):
        scen = build_scenario(ExperimentConfig(scenario=scenario, horizon=50))
        lo, hi = scen.noise.support(np.arange(1, 51))
        rule = scen.cost.fn
        assert isinstance(rule, core.Quadratic)
        assert scen.cost == rule.model(scen.region, (lo.min(), hi.max()))

    @pytest.mark.parametrize("scenario", harness.SCENARIOS)
    def test_a_scenario_is_its_name_and_horizon(self, scenario):
        # Every other field is the learner's or the run's: changing all of
        # them builds the same noise, cost and region.
        others = dict(batch_size=7, delta=0.1, alpha=0.25, samples=3, eta=0.01,
                      rate_rule="inverse", x0=2.0, trials=2, base_seed=5,
                      out_prefix="other", sampling_a=0.5, sampling_c=3.0)
        default = ExperimentConfig(scenario=scenario, horizon=50)
        assert {f.name for f in dataclasses.fields(ExperimentConfig)} == {
            "scenario", "horizon", *others}
        assert all(getattr(default, k) != v for k, v in others.items())
        built, changed = (build_scenario(default),
                          build_scenario(dataclasses.replace(default, **others)))
        assert np.array_equal(built.noise.table, changed.noise.table)
        assert built.cost == changed.cost and built.region == changed.region

    def test_scenario_constants_are_the_protocols(self):
        assert (harness.CUSTOM_BAND, harness.DIFFUSIVITY) == ((0.85, 1.1), 1e-4)

    @pytest.mark.parametrize("scenario, library", [
        ("parking", lambda horizon: environment.parking_noise(horizon)),
        ("custom", lambda horizon: environment.constant_uniform(
            horizon, *harness.CUSTOM_BAND)),
        ("brownian", lambda horizon: environment.BrownianSeq(
            horizon, harness.DIFFUSIVITY))])
    def test_scenario_noise_is_the_library_call_at_its_constants(self, scenario,
                                                                 library):
        noise = build_scenario(ExperimentConfig(scenario=scenario, horizon=300)).noise
        assert type(noise) is type(library(300))
        assert np.array_equal(noise.table, library(300).table)

    @pytest.mark.parametrize("horizon, count, runs", [
        (500, 253, "1-2, 250-500"), (1500, 277, "1-2, 750-1024"),
        (6000, 2, "1-2"), (3, 3, "1-3")])
    def test_one_warning_names_every_parking_point_mass(self, caplog, horizon,
                                                         count, runs):
        with caplog.at_level(logging.WARNING):
            build_scenario(ExperimentConfig(horizon=horizon, batch_size=2))
        messages = [rec.getMessage() for rec in caplog.records]
        assert messages == [
            f"degenerate uniform range at {count} of {horizon} steps "
            f"(t={runs}); emitting a point mass at the left endpoint"]
        scale = environment.parking_noise(horizon).table[:, 1]
        assert np.sum(scale == 0.0) == count

    def test_isolated_point_masses_are_listed_one_by_one(self, caplog):
        with caplog.at_level(logging.WARNING):
            harness._warn_point_masses(np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0]))
        assert [rec.getMessage() for rec in caplog.records] == [
            "degenerate uniform range at 4 of 6 steps (t=1, 3-4, 6); "
            "emitting a point mass at the left endpoint"]


# Each bad ``ablate --counts`` value and the message it exits 1 with.
BAD_COUNTS = {
    "8,x": "bad value for 'samples': 'x'",
    "0,8": "sample count must be >= 1, got 0 at epoch 1",
    "8,8": "ablation needs two or more distinct counts: [8, 8]",
    "8,08": "ablation needs two or more distinct counts: [8, 8]",
    "8,8.0": "ablation needs two or more distinct counts: [8, 8]",
    "8,,16": "bad value for 'samples': ''",
}


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        code = cli.main(["run", "--T", "10", "--batch", "5", "--trials", "1",
                         "--out", str(tmp_path / "cli")])
        assert code == 0
        assert (tmp_path / "cli_trial0.csv").exists()
        assert "final dynamic regret" in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path):
        code = cli.main(["run", "--alpha", "1.5", "--T", "10", "--batch", "5",
                         "--trials", "1",
                         "--out", str(tmp_path / "x")])
        assert code == 1

    def test_config_file_run(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        common = "batch_size = 5\ntrials = 1\n"
        path.write_text("horizon = 1e1\n" + common)
        code = cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "ok")])
        assert code == 0
        assert len((tmp_path / "ok_trial0.csv").read_text().splitlines()) == 11
        path.write_text("horizon = 10.7\n" + common)
        code = cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "frac")])
        assert code == 1
        assert "horizon" in capsys.readouterr().err
        assert not list(tmp_path.glob("frac*"))

    @pytest.mark.parametrize("command", [["run"], ["ablate", "--counts", "2,4"]])
    def test_delta_at_inradius_exits_one_before_the_oracle(
            self, tmp_path, monkeypatch, capsys, command):
        forbid_oracle_and_learner(monkeypatch)
        code = cli.main([*command, "--delta", "2.5", "--T", "10", "--batch",
                         "5", "--trials", "1",
                         "--out", str(tmp_path / "x")])
        assert code == 1
        assert "inradius" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("counts", list(BAD_COUNTS))
    def test_bad_counts_exit_one_before_the_oracle(
            self, tmp_path, monkeypatch, capsys, counts):
        forbid_oracle_and_learner(monkeypatch)
        code = cli.main(["ablate", "--counts", counts, "--T", "10", "--batch",
                         "5", "--trials", "1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"configuration error: {BAD_COUNTS[counts]}\n" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", [["--T", "40.7"], ["--scenario", "foo"]],
                             ids=["T", "scenario"])
    def test_bad_flag_value_exits_one(self, tmp_path, capsys, flag):
        # The same values in a --config file exit 1 too: one parser for both.
        code = cli.main(["run", *flag, "--batch", "5", "--trials", "1",
                         "--out", str(tmp_path / "x")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_float_spelled_int_flag_accepted(self, tmp_path):
        code = cli.main(["budget", "--T", "6e3", "--out", str(tmp_path / "b")])
        assert code == 0
        assert len((tmp_path / "b_budget.csv").read_text().splitlines()) == 6000

    def test_jobs_flag_is_gone(self, tmp_path, capsys):
        assert cli.main(["run", "--jobs", "1", "--out", str(tmp_path / "x")]) == 1
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    # The evaluation grid is a protocol constant, so no run can ask for
    # another size, however large.
    @pytest.mark.parametrize("flag, value", [
        ("--oracle-grid", "2000"), ("--oracle-k", "100"), ("--oracle-grid", "1e15"),
        ("--oracle-k", "1e15"), ("--oracle-grid", "1e19")])
    def test_oracle_grid_flags_are_gone(self, tmp_path, capsys, flag, value):
        assert cli.main(["run", flag, value, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "usage: cvarlearn" in err
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not list(tmp_path.iterdir())

    # The evaluation grid is fixed by the protocol and a scenario's noise by
    # its name and horizon, so no file can set them, not even on the
    # scenario whose noise they were.
    @pytest.mark.parametrize("command", ["run", "ablate", "budget"])
    @pytest.mark.parametrize("key, value, scenario", [
        ("oracle_grid", "2000", "parking"), ("oracle_k", "2000", "parking"),
        ("noise_low", "0.9", "custom"), ("noise_high", "1.2", "custom"),
        ("diffusivity", "1e-4", "brownian")])
    def test_constant_keys_are_gone(self, tmp_path, capsys, command, key, value,
                                    scenario):
        (tmp_path / "exp.cfg").write_text(f"scenario = {scenario}\n{key} = {value}\n")
        assert cli.main([command, "--config", str(tmp_path / "exp.cfg"),
                         "--out", str(tmp_path / "out" / "x")]) == 1
        assert (f"configuration error: unknown configuration key {key!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_evaluation_grid_is_the_protocols(self):
        assert (harness.ORACLE_ACTIONS, harness.ORACLE_LEVELS) == (100, 2000)

    @pytest.mark.parametrize("name", list(BENCH_WORKLOADS))
    def test_benchmark_command_lines_are_valid(self, name):
        # A flag or key that a benchmark workload sets must stay, or the
        # benchmark's runs fail, and so must the scenario build its set-up
        # time measures; the workloads are read, not imported.
        argv, scenario, horizon = BENCH_WORKLOADS[name]
        args = cli.build_parser().parse_args([*argv, "--seed", "0", "--out", "x"])
        config = cli._config_from_args(args)
        assert (config.scenario, config.horizon, config.base_seed) == (
            scenario, horizon, 0)
        build_scenario(make_config({"scenario": scenario, "horizon": horizon}))

    def test_benchmark_workloads_are_read_whole(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
        assert list(BENCH_WORKLOADS) == [workload["name"] for workload in declared]

    @pytest.mark.parametrize("argv", [["run", "--bogus"], ["ablate", "--counts"],
                                      ["verify", "nosuch"]],
                             ids=["unknown-flag", "missing-flags", "unknown-suite"])
    def test_usage_error_exits_one(self, capsys, argv):
        # Exit code 2 is reserved for runtime failures.
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "usage: cvarlearn" in err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "usage: cvarlearn" in capsys.readouterr().out

    def test_readme_cli_block_matches_the_parser(self):
        # README's CLI block lists exactly the parser's subcommands, and its
        # "Common flags" sentence exactly `run`'s flags.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        listed = {line.split()[1] for line in block.splitlines()}
        sentence = re.search(r"Common flags:(.*?)\.\s", section, re.DOTALL).group(1)
        flags = set(re.findall(r"`(--[\w-]+)", sentence))
        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert listed == set(sub.choices)
        assert flags == set(sub.choices["run"]._option_string_actions) - {"-h", "--help"}

    def test_run_logs_once(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO):
            code = cli.main(["run", "--T", "10", "--batch", "5", "--trials",
                             "3", "--out", str(tmp_path / "r")])
        assert code == 0
        messages = [rec.getMessage() for rec in caplog.records]
        assert sum(m.startswith("scenario parking:") for m in messages) == 1
        assert sum(m.startswith("initial decision projected") for m in messages) == 1
        assert sum(m.startswith("degenerate uniform range") for m in messages) == 1

    def test_ablate_builds_the_scenario_once(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO):
            code = cli.main(["ablate", "--counts", "2,4", "--T", "10", "--batch",
                             "5", "--trials", "2", "--out", str(tmp_path / "a")])
        assert code == 0
        messages = [rec.getMessage() for rec in caplog.records]
        assert sum(m.startswith("scenario parking:") for m in messages) == 1
        assert sum(m.startswith("initial decision projected") for m in messages) == 1
        assert sum(m.startswith("degenerate uniform range") for m in messages) == 1

    @pytest.mark.parametrize("argv, files", [
        (["budget"], ["x_budget.csv"]),
        (["ablate", "--counts", "2,4"],
         ["x_ablation.csv", "x_n2_aggregate.csv", "x_n2_trial0.csv",
          "x_n4_aggregate.csv", "x_n4_trial0.csv"]),
    ], ids=["budget", "ablate"])
    def test_output_into_a_fresh_nested_directory(self, tmp_path, argv, files):
        out = tmp_path / "fresh" / "nested" / "x"
        code = cli.main([*argv, "--T", "10", "--batch", "5", "--trials", "1",
                         "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.parent.iterdir()) == files

    def test_runtime_failure_exit_two(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = cli.main(["run", "--T", "10", "--batch", "5", "--trials", "1",
                         "--out", str(blocker / "sub" / "x")])
        assert code == 2

    @pytest.mark.parametrize("exc, named", [
        (MemoryError(), "MemoryError"), (OSError("disk full"), "disk full")],
        ids=["empty-message", "message"])
    def test_runtime_failure_names_itself(self, monkeypatch, capsys, exc, named):
        def fail(config):
            raise exc
        monkeypatch.setattr(cli, "run_experiment", fail)
        assert cli.main(["run", "--T", "10"]) == 2
        assert capsys.readouterr().err == f"runtime failure: {named}\n"

    @pytest.mark.parametrize("argv, files", [
        (["run"], ["p_aggregate.csv", "p_trial0.csv", "p_trial1.csv"]),
        (["run", "--scenario", "brownian"],
         ["p_aggregate.csv", "p_trial0.csv", "p_trial1.csv"]),
        (["ablate", "--scenario", "brownian", "--counts", "2,3"],
         ["p_ablation.csv", "p_n2_aggregate.csv", "p_n2_trial0.csv",
          "p_n2_trial1.csv", "p_n3_aggregate.csv", "p_n3_trial0.csv",
          "p_n3_trial1.csv"]),
    ], ids=["run-parking", "run-brownian", "ablate-brownian"])
    def test_cli_never_imports_scipy(self, tmp_path, argv, files):
        # The Brownian scenario's normal quantiles are a NumPy port of
        # SciPy's, so no scenario loads SciPy.
        argv = [*argv, "--T", "10", "--batch", "5", "--trials", "2", "--out", "p"]
        code = ("import sys; from cvarlearn import cli; "
                f"assert cli.main({argv!r}) == 0; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(Path(cvarlearn.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"
        assert sorted(p.name for p in tmp_path.iterdir()) == files

    @pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "forked"])
    @pytest.mark.parametrize("argv", [
        ["run", "--T", "10"], ["run", "--scenario", "brownian", "--T", "10"],
        ["ablate", "--scenario", "brownian", "--counts", "2,3", "--T", "10"],
        ["budget", "--T", "100"],
    ], ids=["run-parking", "run-brownian", "ablate-brownian", "budget"])
    def test_cli_never_imports_numpy_random(self, tmp_path, argv, jobs):
        # The learner's streams are a port of NumPy's default_rng stream.
        # An import of numpy.random fails in this process and in its forked
        # children alike; on a NumPy that loads it with numpy itself, there
        # is nothing to check.
        if argv[0] != "budget":
            argv = [*argv, "--batch", "5", "--trials", "2"]
        code = (
            "import sys, numpy\n"
            "if 'numpy.random' in sys.modules:\n"
            "    print('eager'); sys.exit()\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[:2] == ['numpy', 'random']:\n"
            "            raise ImportError(name)\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "from cvarlearn import cli\n"
            + USABLE_CPUS.format(jobs) +
            f"assert cli.main({[*argv, '--out', 'p']!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
        env = dict(os.environ, PYTHONPATH=str(Path(cvarlearn.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        if proc.stdout.splitlines()[-1] == "eager":
            pytest.skip("import numpy loads numpy.random on this NumPy")
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_no_run_imports_multiprocessing(self, tmp_path):
        # fork_map forks with os.fork and a pipe: neither the scenario build
        # (the bench's setup_s) nor a run or an ablation whose every phase
        # forks imports multiprocessing.
        code = ("import sys\n" + USABLE_CPUS.format(2) +
                "import cvarlearn.harness as h; from cvarlearn import cli\n"
                "for name in h.SCENARIOS:\n"
                "    h.build_scenario(h.make_config({'scenario': name}))\n"
                "forks = []; fork_map = h.fork_map\n"
                "h.fork_map = lambda fn, jobs: forks.append(len(jobs) - 1) or fork_map(fn, jobs)\n"
                f"assert cli.main(['run', *{FORK_RUN!r}, '--out', 'r']) == 0\n"
                "assert cli.main(['ablate', '--counts', '2,4', "
                f"*{FORK_RUN!r}, '--out', 'a']) == 0\n"
                "print(forks, sorted(m for m in ('multiprocessing', 'concurrent.futures') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=str(Path(cvarlearn.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        # The search pass runs in the CLI's process beside one child a
        # learner, at most one a usable CPU: an ablation of two counts
        # forks two in phase 1.
        assert proc.stdout.splitlines()[-1] == "[1, 1, 1, 2, 1, 1] []"

    def test_budget_cli(self, tmp_path, capsys, caplog):
        # No learner runs, so the initial decision is never projected.
        with caplog.at_level(logging.INFO):
            code = cli.main(["budget", "--scenario", "parking", "--T", "100",
                             "--out", str(tmp_path / "b")])
        assert code == 0
        assert "V_D" in capsys.readouterr().out
        assert not any(rec.getMessage().startswith("initial decision projected")
                       for rec in caplog.records)

    @pytest.mark.parametrize("flags, values", [
        (["--T", "6000"], {"horizon": "6000"}), (["--T", "1500"], {"horizon": "1500"}),
        (["--scenario", "brownian"], {"scenario": "brownian"})],
        ids=["parking-6000", "parking-1500", "brownian"])
    def test_budget_prints_the_theorem_selections(self, tmp_path, capsys, flags, values):
        code = cli.main(["budget", *flags, "--out", str(tmp_path / "b")])
        assert code == 0
        out = capsys.readouterr().out
        config = make_config({}, values)
        report = compute_budget(config)
        horizon, a, m = config.horizon, config.sampling_a, report.modulus
        t1 = theorem1_params(horizon, report.budget, a)
        t2 = theorem2_params(horizon, report.budget, a, m)
        shown = re.search(r"V_D = (\S+)\nconvex selection +\(a=(\S+)\): "
                          r"delta=(\S+) eta=(\S+) batch=(\d+)\n"
                          r"strongly convex selection \(a=(\S+)\): delta=(\S+) "
                          r"batch=(\d+) eta_tau=1/\((\S+)\*tau\)\n", out).groups()
        assert [float(v) for v in shown] == [
            float(f"{v:{spec}}") for v, spec in [
                (report.budget, ".10g"), (a, "g"), (t1.delta, ".6g"), (t1.eta, ".6g"),
                (t1.batch_size, "d"), (a, "g"), (t2.delta, ".6g"),
                (t2.batch_size, "d"), (m, ".6g")]]

    def test_budget_prints_no_selection_for_a_static_scenario(self, tmp_path, capsys):
        assert cli.main(["budget", "--scenario", "custom",
                         "--out", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert "V_D = 0\n" in out and "selection" not in out

    def test_verify_suite_exit_codes(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "run_suites",
            lambda which: [verify.CheckResult("risk", "synthetic", False, "")])
        assert cli.main(["verify", "risk"]) == 3
        monkeypatch.setattr(
            cli, "run_suites",
            lambda which: [verify.CheckResult("risk", "synthetic", True, "")])
        assert cli.main(["verify", "risk"]) == 0


# Every range rule of a run's configuration: the flags and config-file lines
# that break it, and the message of the object that owns the rule.
CONFIG_FAULTS = {
    "horizon": (["--T", "0"], "", "horizon must be >= 1, got 0"),
    "horizon-custom": (["--scenario", "custom", "--T", "-3"], "",
                       "horizon must be >= 1, got -3"),
    # Sizes that physical memory cannot hold, refused by the harness's one
    # size check before the scenario is built, with the first term that
    # takes the run's bytes past memory: a noise table (64 bytes a step),
    "horizon-oversized": (["--T", "1e15"], "", "horizon 1000000000000000 is too "
                          "large for its noise table"),
    "horizon-oversized-custom": (["--scenario", "custom", "--T", "1e15"], "",
                                 "horizon 1000000000000000 is too large for its "
                                 "noise table"),
    "horizon-oversized-brownian": (["--scenario", "brownian", "--T", "1e15"], "",
                                   "horizon 1000000000000000 is too large for its "
                                   "noise table"),
    "horizon-beyond-int64": (["--T", "1e19"], "", "horizon 10000000000000000000 is "
                             "too large for its noise table"),
    "horizon-beyond-int64-brownian": (
        ["--scenario", "brownian", "--T", "1e19"], "",
        "horizon 10000000000000000000 is too large for its noise table"),
    "batch_size": (["--batch", "1"], "", "batch size must be >= 2, got 1"),
    # per-epoch columns (64 bytes an epoch),
    "batch_size-oversized": (["--batch", "1e15"], "", "batch size 1000000000000000 "
                             "is too large for its per-epoch columns"),
    "batch_size-oversized-inverse": (
        ["--rate", "inverse", "--batch", "1e19"], "",
        "batch size 10000000000000000000 is too large for its per-epoch columns"),
    "alpha-zero": (["--alpha", "0"], "", "risk level alpha=0.0 must lie in (0, 1]"),
    "alpha-above-one": (["--alpha", "1.5"], "",
                        "risk level alpha=1.5 must lie in (0, 1]"),
    "delta-zero": (["--delta", "0"], "",
                   "smoothing radius delta=0.0 must be positive"),
    "delta-negative": (["--delta", "-0.1"], "",
                       "smoothing radius delta=-0.1 must be positive"),
    "delta-at-inradius": (["--delta", "2"], "", "smoothing radius 2.0 must "
                          "satisfy 0 <= delta < inradius 2.0"),
    "delta-above-inradius-brownian": (
        ["--scenario", "brownian", "--delta", "2.5"], "",
        "smoothing radius 2.5 must satisfy 0 <= delta < inradius 2.0"),
    "eta": (["--eta", "0"], "", "learning rate eta=0.0 must be positive and finite"),
    "samples": (["--samples", "0"], "", "sample count must be >= 1, got 0"),
    "trials": (["--trials", "0"], "", "trials must be >= 1, got 0"),
    # one step's draws (96 bytes a value, counted once a learner job: one
    # here; ``ablate`` never sizes the samples that its counts replace), and
    # the (trials, T) columns (48 bytes a trial-step), whose total depends
    # on the number of counts.
    "samples-oversized": (["--samples", "1e15"], "", "samples 1000000000000000 are "
                          "too many for one step's draws: the run would take "
                          "96000000007609088 bytes, more than the"),
    "trials-oversized": (["--trials", "1e15"], "", "trials 1000000000000000 are too "
                         "many for their (trials, T) columns: the run would take"),
    "base_seed": (["--seed", "-1"], "", "base_seed must be >= 0, got -1"),
    "rate_rule": (["--rate", "fast"], "", "rate_rule must be 'constant' or 'inverse'"),
    "scenario": (["--scenario", "casino"], "", "unknown scenario 'casino'"),
}


def run_faulty(tmp_path, command, flags, text):
    """``cli.main`` on a small run of ``command``, then ``flags`` and, when
    ``text`` is given, a config file holding it."""
    argv = [*command, "--T", "10", "--batch", "5", "--trials", "1", *flags,
            "--out", str(tmp_path / "out" / "x")]
    if text:
        (tmp_path / "exp.cfg").write_text(text)
        argv += ["--config", str(tmp_path / "exp.cfg")]
    return cli.main(argv)


class TestConfigFaults:
    @pytest.mark.parametrize("command, fault", [
        pytest.param(command, fault, id=f"{fault}-{command[0]}")
        for fault in CONFIG_FAULTS
        for command in (["run"], ["ablate", "--counts", "2,4"])
        if not (command[0] == "ablate" and fault == "samples-oversized")])
    def test_fault_exits_one_with_its_owners_message_before_phase_one(
            self, tmp_path, monkeypatch, capsys, force_jobs, command, fault):
        # A learner or oracle call would raise AssertionError, which the CLI
        # reports as a runtime failure with exit 2. One job a phase, so that
        # a size in a message does not depend on this machine's CPUs.
        force_jobs(1)
        flags, text, message = CONFIG_FAULTS[fault]
        forbid_oracle_and_learner(monkeypatch)
        assert run_faulty(tmp_path, command, flags, text) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err
        assert "ran on an invalid configuration" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fault", [
        "batch_size", "batch_size-oversized", "batch_size-oversized-inverse",
        "alpha-above-one", "delta-at-inradius", "eta", "samples",
        "samples-oversized", "trials-oversized"])
    def test_budget_checks_only_the_fields_it_reads(self, tmp_path, fault):
        flags, text, _ = CONFIG_FAULTS[fault]
        assert run_faulty(tmp_path, ["budget"], flags, text) == 0
        assert (tmp_path / "out" / "x_budget.csv").exists()

    def test_ablate_never_sizes_the_samples_its_counts_replace(self, tmp_path):
        flags, text, _ = CONFIG_FAULTS["samples-oversized"]
        assert run_faulty(tmp_path, ["ablate", "--counts", "2,4"], flags, text) == 0
        assert (tmp_path / "out" / "x_ablation.csv").exists()

    @pytest.mark.parametrize("fault", [
        "horizon-custom", "horizon-oversized", "horizon-oversized-custom",
        "horizon-oversized-brownian", "horizon-beyond-int64",
        "horizon-beyond-int64-brownian"])
    def test_budget_rejects_the_fields_it_reads(self, tmp_path, capsys, fault):
        flags, text, message = CONFIG_FAULTS[fault]
        assert run_faulty(tmp_path, ["budget"], flags, text) == 1
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_inverse_rate_never_reads_eta(self, tmp_path):
        assert run_faulty(tmp_path, ["run"], ["--rate", "inverse", "--eta", "0"],
                          "") == 0
        modulus = build_scenario(ExperimentConfig(horizon=10)).cost.strong_convexity
        lines = (tmp_path / "out" / "x_trial0.csv").read_text().splitlines()
        assert [float(line.split(",")[8]) for line in lines[1:6]] == [
            1.0 / (modulus * tau) for tau in range(1, 6)]


def traced_peak(fn):
    """The peak bytes that tracemalloc traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spy_on_builds(monkeypatch) -> list[int]:
    """The horizon of every scenario build from here on, in call order."""
    built = []
    for name, (make_noise, *rest) in harness._SCENARIO_TABLE.items():
        monkeypatch.setitem(harness._SCENARIO_TABLE, name, (
            lambda horizon, make=make_noise: built.append(horizon) or make(horizon),
            *rest))
    return built


class TestMemoryChecks:
    @pytest.mark.parametrize("scenario", harness.SCENARIOS)
    def test_a_build_takes_at_most_its_bytes_a_step(self, scenario):
        horizon = 100_000
        peak = traced_peak(lambda: build_scenario(
            ExperimentConfig(scenario=scenario, horizon=horizon)))
        assert peak <= harness._BUILD_STEP_BYTES * horizon

    @pytest.mark.parametrize("rate_rule", ["constant", "inverse"])
    def test_a_learner_takes_at_most_its_bytes_an_epoch(self, rate_rule):
        config = ExperimentConfig(horizon=10, batch_size=100_000, rate_rule=rate_rule)
        scenario = build_scenario(config)
        peak = traced_peak(lambda: harness._learner(config, scenario))
        assert peak <= harness._EPOCH_BYTES * config.batch_size

    @pytest.mark.parametrize("scenario", ["parking", "brownian"])
    @pytest.mark.parametrize("trials, samples", [(2, 200_000), (8, 50_000)])
    def test_a_step_takes_at_most_its_bytes_a_drawn_value(self, trials, samples,
                                                          scenario):
        # At T = 2 each step's draws are a block of their own, and they, their
        # noise and costs outweigh every other array of the run; Gaussian
        # noise's quantiles make the most temporaries.
        config = ExperimentConfig(scenario=scenario, horizon=2, batch_size=2,
                                  trials=trials, samples=samples)
        run, _ = harness._learner(config, build_scenario(config))
        Stream(0).random(1)  # the table that every stream shares, built once
        assert traced_peak(run) <= harness._DRAW_BYTES * trials * (1 + samples)

    def test_a_seeded_stream_takes_at_most_its_bytes(self):
        Stream(0).random(1)  # the table that every stream shares, built once

        def seed_and_draw():
            streams = [Stream(seed) for seed in range(1000)]
            for stream in streams:
                stream.random(9)

        assert traced_peak(seed_and_draw) <= harness._STREAM_BYTES * 1000

    # Each shape with the most its estimate may exceed its traced peak by:
    # the trial-heavy one, whose (trials, T) columns dominate, by 3 times.
    @pytest.mark.parametrize("shape, slack", [
        (dict(horizon=20_000, trials=2), None),
        (dict(horizon=2000, trials=50), None),
        (dict(horizon=6000, trials=10), None),
        (dict(horizon=500, trials=100), 3),
        (dict(horizon=100, trials=1, batch_size=200_000), None),
        (dict(horizon=20, trials=2, samples=100_000), None)],
        ids=["long", "wide", "study", "trial-heavy", "batch-heavy", "sample-heavy"])
    def test_the_estimate_bounds_a_runs_traced_peak(self, tmp_path, force_jobs,
                                                    shape, slack):
        force_jobs(1)
        config = ExperimentConfig(out_prefix=str(tmp_path / "ra"), **shape)
        estimate = harness._check_sizes(config.horizon, [config])
        peak = traced_peak(lambda: harness.write_experiments([run_experiment(config)]))
        assert peak <= estimate
        assert slack is None or estimate <= slack * peak

    @pytest.mark.parametrize("scenario", ["parking", "brownian"])
    def test_each_process_is_counted_with_its_draws_and_buffers(
            self, force_jobs, scenario):
        # Four jobs a phase: phase 1 runs the search pass here and cuts the
        # learners into jobs of their own, phase 2 cuts the trials into
        # four. Against one job, a study of one config holds three more sets
        # of the reused buffers, and a study of three configs two more
        # learners' draws as well; the buffers bound the traced peak of the
        # search pass and of a one-trial played pass.
        config = ExperimentConfig(scenario=scenario, horizon=100, trials=10)
        study = [dataclasses.replace(config, samples=n) for n in (8, 16, 24)]
        sizes = {}
        for jobs in (1, 4):
            force_jobs(jobs)
            sizes[jobs] = [harness._check_sizes(config.horizon, configs)
                           for configs in ([config], study)]
        draws = harness._DRAW_BYTES * (learner._BLOCK + config.trials * (1 + 24))
        assert sizes[4][0] - sizes[1][0] == 3 * harness._BUFFER_BYTES
        assert sizes[4][1] - sizes[1][1] == 2 * draws + 3 * harness._BUFFER_BYTES
        scenario = build_scenario(config)
        xs = oracle.action_grid(scenario.region, harness.ORACLE_ACTIONS)
        levels = oracle._mid_quantiles(harness.ORACLE_LEVELS)
        args = (scenario.cost, scenario.noise, xs, config.alpha, levels)
        optima = oracle.optimal_action_series(*args)
        x_hat = np.full((1, config.horizon), scenario.region.center)
        for run_pass in (lambda: oracle.optimal_action_series(*args),
                         lambda: oracle._played_cvars(
                             x_hat, scenario.cost, scenario.noise, config.alpha,
                             optima, levels)):
            assert traced_peak(run_pass) <= harness._BUFFER_BYTES

    @pytest.mark.parametrize("negative", ["--batch=-1e17", "--samples=-1e17"],
                             ids=["batch", "samples"])
    def test_a_negative_size_offsets_no_other(self, tmp_path, monkeypatch, capsys,
                                              negative):
        built = spy_on_builds(monkeypatch)
        forbid_oracle_and_learner(monkeypatch)
        assert run_faulty(tmp_path, ["run"], [negative, "--trials", "1e15"], "") == 1
        assert ("configuration error: trials 1000000000000000 are too many"
                in capsys.readouterr().err)
        assert built == []

    def test_a_horizon_beyond_memory_is_refused_before_its_build(
            self, monkeypatch, physical_memory):
        built = spy_on_builds(monkeypatch)
        memory = harness._BUILD_STEP_BYTES * 1000
        physical_memory(memory)
        for scenario in harness.SCENARIOS:
            config = ExperimentConfig(scenario=scenario, horizon=1001)
            assert compute_budget(dataclasses.replace(config, horizon=1000))
            with pytest.raises(ConfigurationError, match=(
                    f"horizon 1001 is too large for its noise table: the run would "
                    f"take {memory + harness._BUILD_STEP_BYTES} bytes, more than the "
                    f"{memory} bytes of memory")):
                compute_budget(config)
            with pytest.raises(ConfigurationError, match=(
                    "horizon 1001 is too large for its noise table: the run would")):
                run_experiment(config)
        assert built == [1000] * len(harness.SCENARIOS)

    def test_a_batch_beyond_memory_is_refused_before_its_columns(
            self, monkeypatch, physical_memory):
        calls, full = [], np.full
        monkeypatch.setattr(np, "full", lambda *args, **kwargs: calls.append(args)
                            or full(*args, **kwargs))
        physical_memory(10 ** 7)
        with pytest.raises(ConfigurationError, match=(
                "batch size 1000000 is too large for its per-epoch columns: the run")):
            run_experiment(ExperimentConfig(horizon=10, batch_size=10 ** 6, trials=1))
        assert calls == []

    @pytest.mark.parametrize("command", [["run"], ["ablate", "--counts", "2,4"]],
                             ids=["run", "ablate"])
    def test_a_study_beyond_memory_is_refused_before_its_build(
            self, tmp_path, monkeypatch, capsys, physical_memory, command):
        # T = 1,000 builds in 64 kB, and its 1,000 trials need 120 MB.
        built = spy_on_builds(monkeypatch)
        physical_memory(10 ** 7)
        assert run_faulty(tmp_path, command, ["--T", "1000", "--trials", "1000"],
                          "") == 1
        assert ("configuration error: trials 1000 are too many for their (trials, T) "
                "columns" in capsys.readouterr().err)
        assert built == []

    @pytest.mark.parametrize("flags, message", [
        (["--T", "1e19"], "horizon 10000000000000000000 is too large for its noise "
         "table"),
        (["--batch", "1e19"], "batch size 10000000000000000000 is too large for its "
         "per-epoch columns")], ids=["horizon", "batch"])
    def test_sizes_beyond_the_address_space_exit_one_without_sysconf(
            self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.delattr(os, "sysconf")
        assert harness._physical_memory() == sys.maxsize
        forbid_oracle_and_learner(monkeypatch)
        assert run_faulty(tmp_path, ["run"], flags, "") == 1
        assert (f"configuration error: {message}: the run would take"
                in capsys.readouterr().err)

    def test_an_ablation_is_sized_as_one_study(self, tmp_path, monkeypatch,
                                               physical_memory):
        # Memory for any one count's study, yet not for all three at once.
        config = small_config(tmp_path, trials=2)
        singles = [dataclasses.replace(config, samples=n) for n in (2, 4, 6)]
        memory = max(harness._check_sizes(10, [single]) for single in singles)
        total = harness._check_sizes(10, singles)
        physical_memory(memory)
        for single in singles:
            run_experiment(single)
        forbid_oracle_and_learner(monkeypatch)
        with pytest.raises(ConfigurationError, match=(
                f"the run would take {total} bytes, more than the {memory} bytes")):
            run_ablation(config, [2, 4, 6])


FORK_RUN = ["--T", "31", "--batch", "5", "--trials", "5"]


def failing_in_child(fn, fail):
    """``fn``, except that it calls ``fail()`` in any process but this one."""
    parent = os.getpid()

    def wrapped(*args):
        if os.getpid() != parent:
            fail()
        return fn(*args)
    return wrapped


def spy_jobs(fork_map, job_counts):
    """``fork_map``, recording each call's job count in ``job_counts``."""
    def spy(fn, jobs):
        job_counts.append(len(jobs))
        return fork_map(fn, jobs)
    return spy


def exit_three():
    os._exit(3)


def bad_value():
    raise ConfigurationError("bad value in a worker")


class TestForkedRuns:
    @pytest.mark.parametrize("argv", [
        ["run"], ["ablate", "--scenario", "brownian", "--counts", "4,8"],
    ], ids=["run", "ablate"])
    def test_csvs_do_not_depend_on_the_job_count(self, tmp_path, monkeypatch,
                                                 force_jobs, argv):
        job_counts = []
        monkeypatch.setattr(harness, "fork_map", spy_jobs(harness.fork_map, job_counts))
        outputs = []
        for jobs in (1, 2, 3):
            force_jobs(jobs)
            out = tmp_path / f"jobs{jobs}"
            assert cli.main([*argv, *FORK_RUN, "--out", str(out / "x")]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        # Each run forks phase 1, the search pass as job 0 and its learners
        # cut across the usable CPUs, then the played pass's trials, then
        # the trial files; on one CPU phase 1 is one job.
        learners = 1 if argv == ["run"] else 2
        assert job_counts == [n for jobs in (1, 2, 3)
                              for n in (1 if jobs == 1 else 1 + min(jobs, learners),
                                        jobs, jobs)]
        assert len(outputs[0]) == (6 if argv == ["run"] else 13)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("argv", [["run"], ["ablate", "--counts", "2,4,6"]],
                             ids=["run", "ablate"])
    def test_no_learner_runs_in_the_clis_process(self, tmp_path, monkeypatch,
                                                 force_jobs, argv):
        # On two usable CPUs the search pass runs here and every learner in a
        # forked job: each call of the learner appends its process id to a
        # file, which a child's list could not carry back.
        force_jobs(2)
        pids = tmp_path / "pids"
        run_trials = learner.run_trials

        def recorded(*args):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return run_trials(*args)

        monkeypatch.setattr(learner, "run_trials", recorded)
        assert cli.main([*argv, *FORK_RUN, "--out", str(tmp_path / "x")]) == 0
        called = pids.read_text().split()
        assert len(called) == (3 if argv[0] == "ablate" else 1)
        assert str(os.getpid()) not in called

    @pytest.mark.parametrize("target, fail, code, message", [
        ("cost", bad_value, 1, "configuration error: bad value in a worker"),
        ("cost", exit_three, 2, "runtime failure: forked worker exited with code 3"),
        ("csv", exit_three, 2, "runtime failure: forked worker exited with code 3"),
    ], ids=["cost-raises", "cost-dies", "csv-dies"])
    def test_a_failing_child_fails_the_run_as_in_process(
            self, tmp_path, monkeypatch, capsys, force_jobs, target, fail, code,
            message):
        force_jobs(2)
        if target == "cost":
            for name in ("__call__", "into"):
                monkeypatch.setattr(core.Quadratic, name, failing_in_child(
                    getattr(core.Quadratic, name), fail))
        else:
            monkeypatch.setattr(harness, "_write_csv",
                                failing_in_child(harness._write_csv, fail))
        assert cli.main(["run", *FORK_RUN, "--out", str(tmp_path / "x")]) == code
        assert message in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("horizon, trials, cut", [(500, 100, 2), (6000, 1, 1)])
    def test_every_phase_with_two_items_forks_on_two_cpus(
            self, tmp_path, monkeypatch, force_jobs, horizon, trials, cut):
        # The bench's trial sweep (T=500, 100 trials) and one trial at
        # T=6000: phase 1's learner and search run as two jobs; the played
        # pass and the trial files, cut by trial, as two, or one for one trial.
        job_counts = []
        monkeypatch.setattr(harness, "fork_map", spy_jobs(harness.fork_map, job_counts))
        force_jobs(2)
        harness.write_experiments([run_experiment(small_config(
            tmp_path, horizon=horizon, batch_size=200, trials=trials))])
        assert job_counts == [2, cut, cut]

    @pytest.mark.parametrize("scenario, horizon, trials", [
        pytest.param(scenario, horizon, trials, id=f"{scenario}-T{horizon}-{trials}")
        for horizon, trials in ((37, 3), (41, oracle._BLOCK // 1000 + 5), (43, 1))
        for scenario in harness.SCENARIOS])
    def test_reports_do_not_depend_on_the_job_count(
            self, force_jobs, monkeypatch, scenario, horizon, trials):
        # The played pass's trials cut into 1, 2 and 3 forked ranges, and
        # one trial on three jobs: the reports of one job, bit for bit.
        config = ExperimentConfig(scenario=scenario, horizon=horizon,
                                  batch_size=5, trials=trials)
        job_counts, reports = [], []
        monkeypatch.setattr(harness, "fork_map", spy_jobs(harness.fork_map, job_counts))
        for jobs in (1, 2, 3):
            force_jobs(jobs)
            reports.append(run_experiment(config).report)
        assert job_counts == [n for jobs in (1, 2, 3)
                              for n in (min(jobs, 2), min(jobs, trials))]
        assert reports[0].played_cvar.shape == (trials, horizon)
        for report in reports[1:]:
            for field in dataclasses.fields(oracle.RegretReport):
                assert np.array_equal(getattr(report, field.name),
                                      getattr(reports[0], field.name)), field.name

    def test_without_fork_every_phase_runs_here(self, tmp_path, monkeypatch,
                                                force_jobs):
        # A platform without os.fork, two usable CPUs: each phase is one
        # job, and the files are those of a forked run.
        job_counts = []
        monkeypatch.setattr(harness, "fork_map", spy_jobs(harness.fork_map, job_counts))
        force_jobs(2)
        outputs = []
        for forks in (True, False):
            if not forks:
                monkeypatch.delattr(os, "fork")
            out = tmp_path / str(forks)
            assert cli.main(["run", *FORK_RUN, "--out", str(out / "x")]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert job_counts == [2, 2, 2, 1, 1, 1]
        assert len(outputs[0]) == 6 and outputs[1] == outputs[0]

    @pytest.mark.parametrize("text, code, counts", [
        ("sampling_a = -1\n", 1, []), ("sampling_c = 0.1\n", 0, [1, 2, 3]),
    ], ids=["fault", "violations"])
    def test_configs_are_checked_before_any_fork(self, tmp_path, text, code,
                                                 counts):
        # Two usable CPUs and any work forks; yet a config fault exits 1
        # with no fork made, and each count's requirement violation is
        # logged once, in count order. The spy counts the children forked:
        # two learner jobs in phase 1, and one each in the later phases.
        (tmp_path / "exp.cfg").write_text(text)
        script = (
            USABLE_CPUS.format(2) +
            "import cvarlearn.harness as harness; from cvarlearn import cli\n"
            "forks = []; fork_map = harness.fork_map\n"
            "harness.fork_map = lambda fn, jobs: forks.append(len(jobs) - 1) or fork_map(fn, jobs)\n"
            "code = cli.main(['ablate', '--config', 'exp.cfg', '--counts', '1,2,3', "
            f"*{FORK_RUN!r}, '--out', 'f'])\n"
            "print(code, sum(forks))")
        env = dict(os.environ, PYTHONPATH=str(Path(cvarlearn.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True, check=True)
        forked = code == 0
        assert proc.stdout.splitlines()[-1] == f"{code} {4 if forked else 0}"
        warnings = [line.split(":")[0] for line in proc.stderr.splitlines()
                    if "sampling requirement" in line]
        assert warnings == [f"WARNING sampling requirement violated for n={n}"
                            for n in counts]
        if not forked:
            assert "configuration error" in proc.stderr

    def test_forked_run_prints_each_line_once(self, tmp_path):
        # Output buffered before a fork must not be written again by a child.
        code = ("import sys\n" + USABLE_CPUS.format(2) +
                "from cvarlearn import cli; print('before the run'); "
                f"sys.exit(cli.main(['run', *{FORK_RUN!r}, '--out', 'f']))")
        env = dict(os.environ, PYTHONPATH=str(Path(cvarlearn.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        out, err = proc.stdout.splitlines(), proc.stderr.splitlines()
        assert len(out) == 5 and out[0] == "before the run"
        assert len(set(out)) == len(out)
        assert len(err) == 3 and len(set(err)) == len(err)
        assert (tmp_path / "f_trial4.csv").exists()


class Accepted(BaseException):
    """The configuration passed every check and phase 1 was reached."""


def accept(*args, **kwargs):
    raise Accepted


# Flag values: small numbers, so that any accepted horizon is cheap to build,
# malformed spellings, and text without digits.
FUZZ_VALUES = st.one_of(
    st.integers(-5, 60).map(str),
    st.floats(-3.0, 3.0).map(str),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "6e1", "0x10", "1_0",
                     "parking", "brownian", "custom", "constant", "inverse"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8),
)
FUZZ_FLAGS = sorted(field for field, _ in cli._CONFIG_FLAGS.values()
                    if field != "out_prefix")
CONFIG_KEYS = sorted(field.name for field in dataclasses.fields(ExperimentConfig))
FUZZ_KEYS = sorted(set(CONFIG_KEYS) - {"out_prefix"})


class TestConfigFuzz:
    @given(values=st.dictionaries(
        st.one_of(st.sampled_from(CONFIG_KEYS), st.text(max_size=6)),
        st.one_of(FUZZ_VALUES, st.none(), st.integers(), st.floats(),
                  st.lists(st.integers(), max_size=2))))
    @settings(max_examples=300, deadline=None)
    def test_make_config_accepts_or_raises_a_configuration_error(self, values):
        try:
            config = make_config(values)
        except ConfigurationError:
            return
        assert dataclasses.replace(config) == config  # rebuilt, so re-checked
        assert all(math.isfinite(getattr(config, field.name))
                   for field in dataclasses.fields(config) if field.type == "float")

    @given(command=st.sampled_from(["run", "ablate", "budget"]),
           flags=st.dictionaries(st.sampled_from(FUZZ_FLAGS), FUZZ_VALUES),
           counts=st.one_of(FUZZ_VALUES, st.just("2,4")),
           config_file=st.one_of(
               st.none(),
               st.dictionaries(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES).map(
                   lambda d: "".join(f"{k} = {v}\n" for k, v in d.items())),
               st.text(st.characters(blacklist_categories=("Nd", "Cs")))))
    @settings(max_examples=200, deadline=None)
    def test_cli_config_faults_exit_one_without_a_traceback(
            self, command, flags, counts, config_file):
        # Phase 1's fork_map is replaced, so an accepted run stops after
        # every check and before any learner or oracle work.
        flag_of = {field: flag for flag, (field, _) in cli._CONFIG_FLAGS.items()}
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, f"--out={tmp}/x",
                    *(f"{flag_of[field]}={value}" for field, value in flags.items())]
            if command == "ablate":
                argv.append(f"--counts={counts}")
            if config_file is not None:
                path = Path(tmp, "fuzz.cfg")
                path.write_text(config_file, encoding="utf-8")
                argv.append(f"--config={path}")
            err = io.StringIO()
            with (mock.patch.object(harness, "fork_map", accept),
                  contextlib.redirect_stderr(err),
                  contextlib.redirect_stdout(io.StringIO())):
                try:
                    code = cli.main(argv)
                except Accepted:
                    code = None
        assert "Traceback" not in err.getvalue()
        assert code in (None, 0, 1), err.getvalue()
        if code == 1:
            assert "configuration error" in err.getvalue()

    @pytest.mark.parametrize("content", [None, b"horizon = \xff\n"],
                             ids=["missing", "not-utf8"])
    def test_unreadable_config_file_exits_one(self, tmp_path, capsys, content):
        path = tmp_path / "exp.cfg"
        if content is not None:
            path.write_bytes(content)
        code = cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "x")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err


class TestVerifySuites:
    def test_all_suites_pass_on_a_correct_build(self, verify_checks):
        results = [res for res, _ in verify_checks.values()]
        failures = [r for r in results if not r.passed]
        assert not failures, failures
        assert {r.suite for r in results} == {"risk", "smoothing", "environment"}

    def test_check_names_are_pinned(self, verify_checks):
        # No unit test repeats these procedures, so a check that is dropped,
        # renamed or reordered must fail here.
        assert list(verify_checks) == [
            "risk/cvar-monotone-in-alpha", "risk/cvar-translation-and-scaling",
            "risk/cvar-equals-ru-minimum", "risk/cvar-kolmogorov-bound",
            "risk/dkw-band-validity", "smoothing/sphere-unit-norm",
            "smoothing/sphere-symmetry", "smoothing/gradient-norm-bound",
            "smoothing/two-direction-quadratic-gradient",
            "smoothing/estimator-matches-smoothed-gradient",
            "environment/w1-metric-axioms", "environment/w1-closed-vs-numeric",
            "environment/cvar-wasserstein-bound",
            "environment/sublinear-variation-budget"]

    def test_full_verify_logs_the_degenerate_warning_once(self, verify_run):
        # The gradient check builds the default scenario; the environment
        # suite's parking sequences log nothing.
        messages = [m for suite in verify_run.warnings.values() for m in suite]
        assert sum(m.startswith("degenerate uniform range") for m in messages) == 1
        assert verify_run.warnings["environment"] == []

    def test_mutation_is_detected(self, monkeypatch):
        # A corrupted CVaR must not sail through the suite: scaling the value
        # breaks the RU-minimum equivalence, and mixing in the wrong tail
        # level breaks the Kolmogorov bound.
        monkeypatch.setattr(verify, "cvar_discrete",
                            lambda ecdf, alpha: 1.3 * cvar_discrete(ecdf, alpha))
        results = {r.name: r.passed for r in verify.cvar_equals_ru_minimum()}
        assert not results["cvar-equals-ru-minimum"]
        assert not all(results.values())

        monkeypatch.setattr(verify, "cvar_discrete",
                            lambda ecdf, alpha: 3.0 * cvar_discrete(ecdf, alpha))
        results = {r.name: r.passed for r in verify.cvar_kolmogorov_bound()}
        assert not results["cvar-kolmogorov-bound"]

    def test_run_suites_runs_each_suites_checks_in_order(self, monkeypatch):
        def check(suite, name):
            return lambda: [verify.CheckResult(suite, name, True, "")]

        monkeypatch.setattr(verify, "SUITES", {
            "risk": (check("risk", "a"), check("risk", "b")),
            "smoothing": (check("smoothing", "c"),)})
        assert [r.name for r in verify.run_suites("all")] == ["a", "b", "c"]
        assert [r.name for r in verify.run_suites("smoothing")] == ["c"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            verify.run_suites("nonsense")

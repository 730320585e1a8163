import contextlib
import dataclasses
import io
import logging
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvarlearn
import cvarlearn.cli as cli
import cvarlearn.harness as harness
import cvarlearn.learner as learner
import cvarlearn.oracle as oracle
import cvarlearn.verify as verify
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


def forbid_oracle_and_learner(monkeypatch):
    """Make every call into the oracle or the learner fail the test."""
    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle ran on an invalid configuration")

    def no_learner(*args, **kwargs):
        raise AssertionError("learner ran on an invalid configuration")

    monkeypatch.setattr(oracle, "optimal_action_series", no_oracle)
    monkeypatch.setattr(oracle, "dynamic_regret", no_oracle)
    monkeypatch.setattr(learner, "run_trials", no_learner)


def small_config(tmp_path, **overrides):
    base = dict(horizon=10, batch_size=5, trials=1, oracle_k=10,
                oracle_grid=1000, out_prefix=str(tmp_path / "ra"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("horizon = 100  # steps\nalpha = 0.25\n\n# comment\n")
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

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("RA_SEED", "99")
        assert make_config({"base_seed": 3}).base_seed == 99

    def test_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            make_config({"scenario": "casino"})


class TestRunExperiment:
    def test_row_count_contract(self, tmp_path):
        config = small_config(tmp_path)
        run_experiment(config)
        lines = (tmp_path / "ra_trial0.csv").read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 11

    def test_byte_identical_reruns(self, tmp_path):
        config_a = small_config(tmp_path, trials=2, out_prefix=str(tmp_path / "a"))
        config_b = small_config(tmp_path, trials=2, out_prefix=str(tmp_path / "b"))
        run_experiment(config_a)
        run_experiment(config_b)
        for name in ("trial0.csv", "trial1.csv", "aggregate.csv"):
            assert ((tmp_path / f"a_{name}").read_bytes()
                    == (tmp_path / f"b_{name}").read_bytes())

    def test_aggregate_header_schema(self, tmp_path):
        run_experiment(small_config(tmp_path, trials=2))
        header = (tmp_path / "ra_aggregate.csv").read_text().splitlines()[0]
        assert header == ("t,mean_x,std_x,mean_c_hat,std_c_hat,mean_dr,std_dr,"
                          "mean_acc_loss,std_acc_loss")

    def test_floats_round_trip_through_csv(self, tmp_path):
        config = small_config(tmp_path)
        agg = run_experiment(config)
        row = (tmp_path / "ra_trial0.csv").read_text().splitlines()[1].split(",")
        assert float(row[3]) == agg.x[0, 0]
        # LF line endings, no CR
        assert b"\r" not in (tmp_path / "ra_trial0.csv").read_bytes()

    def test_failed_write_keeps_the_old_files(self, tmp_path, monkeypatch):
        config = small_config(tmp_path, trials=2)
        run_experiment(config)
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
            run_experiment(dataclasses.replace(config, base_seed=1))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_seed_isolation(self, tmp_path):
        base = small_config(tmp_path, trials=2)
        agg_a = run_experiment(base, write=False)
        more = dataclasses.replace(base, trials=3)
        agg_b = run_experiment(more, write=False)
        assert np.array_equal(agg_a.x[0], agg_b.x[0])
        assert np.array_equal(agg_a.x[1], agg_b.x[1])
        shifted = dataclasses.replace(base, base_seed=1)
        agg_c = run_experiment(shifted, write=False)
        assert np.array_equal(agg_a.x[1], agg_c.x[0])
        assert not np.array_equal(agg_a.x[0], agg_c.x[0])

    def test_lockstep_matches_single_trials(self, tmp_path):
        # Trial i of a lockstep run equals a one-trial run of seed base + i.
        together = small_config(tmp_path, horizon=20, batch_size=5, trials=3,
                                base_seed=4)
        agg = run_experiment(together, write=False)
        for i in range(3):
            alone = run_experiment(dataclasses.replace(
                together, trials=1, base_seed=4 + i), write=False)
            for name in ("x", "x_hat", "played_cvar", "regret", "acc_loss"):
                assert np.array_equal(getattr(agg, name)[i],
                                      getattr(alone, name)[0]), name

    def test_aggregate_statistics_definition(self, tmp_path):
        agg = run_experiment(small_config(tmp_path, trials=3), write=False)
        assert agg.mean("x") == pytest.approx(agg.x.mean(axis=0))
        assert agg.std("acc_loss") == pytest.approx(agg.acc_loss.std(axis=0))
        assert np.all(agg.std("x") >= 0)


class TestAblation:
    def test_identical_counts_share_seeds(self, tmp_path):
        # A count's trials get the same seeds whichever counts run beside it.
        # Repeating a count is a fault: it would run and write that count twice.
        config = small_config(tmp_path, trials=2)
        with pytest.raises(ConfigurationError, match="distinct"):
            run_ablation(config, [4, 4], write=False)
        two = run_ablation(config, [4, 8], write=False)
        assert np.array_equal(two[4].x, run_ablation(config, [2, 4],
                                                     write=False)[4].x)

    def test_comparison_table_written(self, tmp_path):
        config = small_config(tmp_path, trials=2)
        run_ablation(config, [2, 4])
        table = (tmp_path / "ra_ablation.csv").read_text().splitlines()
        assert table[0].startswith("n,mean_final_loss,std_final_loss")
        assert len(table) == 3
        assert (tmp_path / "ra_n2_aggregate.csv").exists()
        assert (tmp_path / "ra_n4_aggregate.csv").exists()

    def test_requirement_violation_warns_but_runs(self, tmp_path, caplog):
        config = small_config(tmp_path, trials=1, sampling_a=2.0, sampling_c=0.1)
        with caplog.at_level(logging.WARNING):
            aggregates = run_ablation(config, [1, 2], write=False)
        assert 1 in aggregates and 2 in aggregates
        assert any("sampling requirement violated" in rec.message
                   for rec in caplog.records)

    def test_aggregates_equal_separate_experiments(self, tmp_path):
        # One oracle pass over every count's trials gives what one
        # experiment per count gives.
        config = small_config(tmp_path, horizon=20, trials=3, base_seed=2)
        aggregates = run_ablation(config, [2, 4, 6], write=False)
        assert list(aggregates) == [2, 4, 6]
        for n, agg in aggregates.items():
            alone = run_experiment(dataclasses.replace(config, samples=n),
                                   write=False)
            for field in dataclasses.fields(agg):
                assert np.array_equal(getattr(agg, field.name),
                                      getattr(alone, field.name)), (n, field.name)

    def test_failed_ablation_writes_nothing(self, tmp_path, monkeypatch):
        calls = []
        run_trials = learner.run_trials

        def third_call_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("learner failed on the third count")
            return run_trials(*args, **kwargs)

        monkeypatch.setattr(learner, "run_trials", third_call_fails)
        with pytest.raises(RuntimeError, match="third count"):
            run_ablation(small_config(tmp_path, trials=2), [2, 4, 6])
        assert len(calls) == 3
        assert not list(tmp_path.iterdir())

    def test_needs_two_counts(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_ablation(small_config(tmp_path), [8])


class TestBudget:
    def test_static_scenario_degenerates(self, tmp_path, caplog):
        config = small_config(tmp_path, scenario="custom", horizon=20)
        with caplog.at_level(logging.WARNING):
            report = compute_budget(config)
        assert report.budget == 0.0
        assert report.theorem1 is None and report.theorem2 is None
        assert any("degenerate" in rec.message for rec in caplog.records)
        assert (tmp_path / "ra_budget.csv").read_text().splitlines()[0] == "t,w1"

    def test_parking_budget_with_suggestions(self, tmp_path):
        config = small_config(tmp_path, horizon=200)
        report = compute_budget(config, write=False)
        assert report.budget > 0
        assert report.theorem1 is not None
        assert report.theorem1.batch_size >= 2
        assert report.theorem2 is not None
        assert report.profile.shape == (199,)

    def test_brownian_budget_closed_form(self, tmp_path):
        config = small_config(tmp_path, scenario="brownian", horizon=50,
                              diffusivity=0.01)
        report = compute_budget(config, write=False)
        noise = build_scenario(config).noise
        expected = np.sqrt(2 / np.pi) * (noise.sigma(50) - noise.sigma(1))
        assert report.budget == pytest.approx(expected, rel=1e-12)


class TestScenarioBounds:
    def test_pricing_bounds_cover_samples(self):
        config = ExperimentConfig(horizon=300)
        scen = build_scenario(config)
        rng = np.random.default_rng(61)
        for _ in range(300):
            t = int(rng.integers(1, 301))
            x = rng.uniform(1.0, 5.0, size=1)
            xi = scen.noise.sample(t, 8, rng)
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
            xi = scen.noise.sample(t, 1, rng)
            ja = float(np.asarray(scen.cost(np.array([xa]), xi))[0])
            jb = float(np.asarray(scen.cost(np.array([xb]), xi))[0])
            assert abs(ja - jb) <= scen.cost.lipschitz * abs(xa - xb) + 1e-12


    def test_custom_point_mass_warns_at_build(self, monkeypatch, caplog):
        forbid_oracle_and_learner(monkeypatch)
        with caplog.at_level(logging.WARNING):
            build_scenario(ExperimentConfig(scenario="custom", noise_low=1.0,
                                            noise_high=1.0))
        assert sum(rec.getMessage().startswith("degenerate uniform range")
                   for rec in caplog.records) == 1


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        code = cli.main(["run", "--T", "10", "--batch", "5", "--trials", "1",
                         "--oracle-grid", "1000", "--oracle-k",
                         "10", "--out", str(tmp_path / "cli")])
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
        common = ("batch_size = 5\ntrials = 1\noracle_k = 10\n"
                  "oracle_grid = 1e3\n")
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

    @pytest.mark.parametrize("counts", ["8,x", "0,8", "8,8", "8,08", "8,8.0"])
    def test_bad_counts_exit_one_before_the_oracle(
            self, tmp_path, monkeypatch, capsys, counts):
        forbid_oracle_and_learner(monkeypatch)
        code = cli.main(["ablate", "--counts", counts, "--T", "10", "--batch",
                         "5", "--trials", "1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
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
        with pytest.raises(SystemExit):
            cli.main(["run", "--jobs", "1", "--out", str(tmp_path / "x")])
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_run_logs_once(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO):
            code = cli.main(["run", "--T", "10", "--batch", "5", "--trials",
                             "3", "--oracle-grid", "1000", "--oracle-k", "10",
                             "--out", str(tmp_path / "r")])
        assert code == 0
        messages = [rec.getMessage() for rec in caplog.records]
        assert sum(m.startswith("scenario parking:") for m in messages) == 1
        assert sum(m.startswith("initial decision projected") for m in messages) == 1

    def test_ablate_builds_the_scenario_once(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO):
            code = cli.main(["ablate", "--counts", "2,4", "--T", "10", "--batch",
                             "5", "--trials", "2", "--oracle-grid", "1000",
                             "--oracle-k", "10", "--out", str(tmp_path / "a")])
        assert code == 0
        messages = [rec.getMessage() for rec in caplog.records]
        assert sum(m.startswith("scenario parking:") for m in messages) == 1
        assert sum(m.startswith("degenerate uniform range") for m in messages) == 1

    def test_runtime_failure_exit_two(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = cli.main(["run", "--T", "10", "--batch", "5", "--trials", "1",
                         "--oracle-grid", "1000",
                         "--out", str(blocker / "sub" / "x")])
        assert code == 2

    def test_params_output(self, capsys):
        code = cli.main(["params", "--T", "10000", "--budget", "10", "--a", "1",
                         "--m", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.251188643" in out and "batch=251" in out
        assert "strongly convex" in out

    @pytest.mark.parametrize("flag", [
        ["--T", "40.7"], ["--budget", "nan"], ["--a", "nan"], ["--a", "inf"],
        ["--m", "nan"],
    ], ids=["T-fraction", "budget-nan", "a-nan", "a-inf", "m-nan"])
    def test_params_fault_exits_one(self, capsys, flag):
        values = {"--T": "10000", "--budget": "10", "--a": "1", "--m": "1"}
        values[flag[0]] = flag[1]
        code = cli.main(["params", *(x for kv in values.items() for x in kv)])
        assert code == 1
        out, err = capsys.readouterr()
        assert "configuration error" in err
        assert out == ""

    def test_parking_run_never_imports_scipy(self, tmp_path):
        # SciPy is needed only by the Brownian scenario's normal quantiles.
        code = ("import sys; from cvarlearn import cli; "
                "assert cli.main(['run', '--T', '10', '--batch', '5', "
                "'--trials', '2', '--oracle-grid', '1000', '--oracle-k', '10', "
                "'--out', 'p']) == 0; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(Path(cvarlearn.__file__).parents[1]))
        env.pop("RA_SEED", None)
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "p_trial1.csv").exists()

    def test_scenario_build_never_imports_multiprocessing(self, tmp_path):
        # Only a phase that forks imports multiprocessing; import and
        # scenario build (the bench's setup_s) stay as they were.
        code = ("import sys; import cvarlearn.harness as h\n"
                "for name in h.SCENARIOS:\n"
                "    h.build_scenario(h.make_config({'scenario': name}))\n"
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=str(Path(cvarlearn.__file__).parents[1]))
        env.pop("RA_SEED", None)
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_budget_cli(self, tmp_path, capsys):
        code = cli.main(["budget", "--scenario", "parking", "--T", "100",
                         "--out", str(tmp_path / "b")])
        assert code == 0
        assert "V_D" in capsys.readouterr().out

    def test_verify_suite_exit_codes(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "run_suites",
            lambda which: [verify.CheckResult("risk", "synthetic", False, "")])
        assert cli.main(["verify", "risk"]) == 3
        monkeypatch.setattr(
            cli, "run_suites",
            lambda which: [verify.CheckResult("risk", "synthetic", True, "")])
        assert cli.main(["verify", "risk"]) == 0

    def test_ra_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RA_SEED", "5")
        cfg = small_config(tmp_path, trials=1)
        agg_env = run_experiment(make_config(
            {"horizon": 10, "batch_size": 5, "trials": 1,
             "oracle_k": 10, "oracle_grid": 1000,
             "out_prefix": str(tmp_path / "env")}), write=False)
        monkeypatch.delenv("RA_SEED")
        agg_five = run_experiment(dataclasses.replace(cfg, base_seed=5),
                                  write=False)
        assert np.array_equal(agg_env.x, agg_five.x)


FORK_RUN = ["--T", "31", "--batch", "5", "--trials", "5", "--oracle-grid",
            "1000", "--oracle-k", "20"]


def failing_in_child(fn, fail):
    """``fn``, except that it calls ``fail()`` in any process but this one."""
    parent = os.getpid()

    def wrapped(*args):
        if os.getpid() != parent:
            fail()
        return fn(*args)
    return wrapped


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
        fork_map = harness.fork_map

        def spy(fn, jobs):
            job_counts.append(len(jobs))
            return fork_map(fn, jobs)

        monkeypatch.setattr(harness, "fork_map", spy)
        outputs = []
        for jobs in (1, 2, 3):
            force_jobs(jobs)
            out = tmp_path / f"jobs{jobs}"
            assert cli.main([*argv, *FORK_RUN, "--out", str(out / "x")]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert job_counts == [1, 2, 3]
        assert len(outputs[0]) == (6 if argv == ["run"] else 13)
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

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
            pricing_cost = harness._pricing_cost

            def cost(*args):
                model = pricing_cost(*args)
                return dataclasses.replace(model, fn=failing_in_child(model.fn, fail))
            monkeypatch.setattr(harness, "_pricing_cost", cost)
        else:
            monkeypatch.setattr(harness, "_write_csv",
                                failing_in_child(harness._write_csv, fail))
        assert cli.main(["run", *FORK_RUN, "--out", str(tmp_path / "x")]) == code
        assert message in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_forked_run_prints_each_line_once(self, tmp_path):
        # Output buffered before a fork must not be written again by a child.
        code = ("import sys; import cvarlearn.core as core; "
                "core._usable_cpus = lambda: 2; core._FORK_MIN_S = 0.0; "
                "from cvarlearn import cli; print('before the run'); "
                f"sys.exit(cli.main(['run', *{FORK_RUN!r}, '--out', 'f']))")
        env = dict(os.environ, PYTHONPATH=str(Path(cvarlearn.__file__).parents[1]))
        env.pop("RA_SEED", None)
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True)
        out, err = proc.stdout.splitlines(), proc.stderr.splitlines()
        assert len(out) == 5 and out[0] == "before the run"
        assert len(set(out)) == len(out)
        assert len(err) == 3 and len(set(err)) == len(err)
        assert (tmp_path / "f_trial4.csv").exists()


class Accepted(BaseException):
    """The configuration passed every check and the learner was called."""


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
FUZZ_KEYS = sorted(set(harness._FIELD_TYPES) - {"out_prefix"})


class TestConfigFuzz:
    @given(values=st.dictionaries(
        st.one_of(st.sampled_from(sorted(harness._FIELD_TYPES)), st.text(max_size=6)),
        st.one_of(FUZZ_VALUES, st.none(), st.integers(), st.floats(),
                  st.lists(st.integers(), max_size=2))))
    @settings(max_examples=300, deadline=None)
    def test_make_config_accepts_or_raises_a_configuration_error(self, values):
        try:
            config = make_config(values)
        except ConfigurationError:
            return
        assert config.validate() is config
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
        # The learner is replaced, so an accepted run stops before any work.
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
            with (mock.patch.object(learner, "run_trials", accept),
                  mock.patch.dict(os.environ), contextlib.redirect_stderr(err),
                  contextlib.redirect_stdout(io.StringIO())):
                os.environ.pop("RA_SEED", None)
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

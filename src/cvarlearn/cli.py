"""Command-line interface.

Subcommands: ``run`` (multi-trial experiment), ``ablate`` (sample-count
study), ``budget`` (variation budget and the theorems' parameter selections
at the scenario's budget) and ``verify`` (invariant suites). Exit codes: 0
success, 1 configuration or usage error, 2 runtime failure, 3 verification
failure. A command writes its CSVs after its library call returns.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .core import ConfigurationError
from .harness import (
    compute_budget,
    load_config_file,
    make_config,
    run_ablation,
    run_experiment,
    write_ablation,
    write_budget,
    write_experiments,
)
from .verify import SUITES, run_suites

#: Config flags: flag -> (ExperimentConfig field, help). Their values reach
#: ``make_config`` as strings, and ``ExperimentConfig`` converts and checks
#: them as it does a config file's, so a bad value exits 1 either way.
_CONFIG_FLAGS = {
    "--scenario": ("scenario", "parking, brownian or custom"),
    "--T": ("horizon", "iteration horizon"),
    "--batch": ("batch_size", "restarting batch size"),
    "--delta": ("delta", "smoothing radius"),
    "--alpha": ("alpha", "risk level in (0, 1]"),
    "--samples": ("samples", "cost queries per step"),
    "--eta": ("eta", "constant learning rate"),
    "--rate": ("rate_rule", "learning-rate rule: constant or inverse"),
    "--x0": ("x0", "initial decision"),
    "--trials": ("trials", "number of seeded trials"),
    "--seed": ("base_seed", "base seed: trial i uses seed + i"),
    "--out": ("out_prefix", "output path prefix"),
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    for flag, (field, help_text) in _CONFIG_FLAGS.items():
        parser.add_argument(flag, dest=field, help=help_text)


def _config_from_args(args: argparse.Namespace):
    file_values = load_config_file(args.config) if args.config else {}
    flag_values = {field: getattr(args, field) for field, _ in _CONFIG_FLAGS.values()}
    return make_config(file_values, flag_values)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_experiment(config)
    write_experiments([result])
    final_dr, final_loss = result.report.finals()
    print(f"scenario={config.scenario} T={config.horizon} trials={config.trials} "
          f"seed={config.base_seed}")
    print(f"final dynamic regret: {final_dr.mean():.6g} +/- {final_dr.std():.6g}")
    print(f"final accumulated loss: {final_loss.mean():.6g} +/- {final_loss.std():.6g}")
    print(f"wrote {config.out_prefix}_trial*.csv and {config.out_prefix}_aggregate.csv")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    results = run_ablation(config, args.counts.split(","))
    write_experiments(list(results.values()))
    write_ablation(config.out_prefix, results)
    print("n_t  mean final accumulated loss  (std over trials)")
    for n, result in results.items():
        final = result.report.finals()[1]
        print(f"{n:4d}  {final.mean():26.6f}  ({final.std():.6f})")
    print(f"wrote {config.out_prefix}_ablation.csv")
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = compute_budget(config)
    write_budget(config.out_prefix, report)
    print(f"variation budget over T={config.horizon}: V_D = {report.budget:.10g}")
    if report.theorem1 is not None:
        t1 = report.theorem1
        print(f"convex selection      (a={config.sampling_a:g}): "
              f"delta={t1.delta:.6g} eta={t1.eta:.6g} batch={t1.batch_size}")
    if report.theorem2 is not None:
        t2 = report.theorem2
        print(f"strongly convex selection (a={config.sampling_a:g}): "
              f"delta={t2.delta:.6g} batch={t2.batch_size} "
              f"eta_tau=1/({report.modulus:.6g}*tau)")
    print(f"wrote {config.out_prefix}_budget.csv")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suites(args.suite)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f"  [{res.detail}]" if res.detail else ""
        print(f"{status}  {res.suite}/{res.name}{detail}")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} properties passed")
    return 0 if failures == 0 else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvarlearn",
        description="Risk-averse online learning under drifting distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a seeded multi-trial experiment")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_abl = sub.add_parser("ablate", help="compare sample counts")
    _add_config_flags(p_abl)
    p_abl.add_argument("--counts", default="8,16,24",
                       help="comma-separated sample counts")
    p_abl.set_defaults(func=_cmd_ablate)

    p_bud = sub.add_parser("budget", help="variation budget and suggestions")
    _add_config_flags(p_bud)
    p_bud.set_defaults(func=_cmd_budget)

    p_ver = sub.add_parser("verify", help="run invariant suites")
    p_ver.add_argument("suite", nargs="?", default="all",
                       choices=(*SUITES, "all"))
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

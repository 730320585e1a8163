"""Outside-in layer tracer for the cvarlearn CLI.

``python3 perfbench/tracer.py <cli arguments>`` runs ``cvarlearn.cli.main``
with spans around the calls into each layer. No module of the package is
edited: each public function of a measured module, and a few methods, is
replaced by a wrapper, by attribute, in every loaded cvarlearn module that
refers to it. A name that no longer exists is reported absent.

Layers are named after modules. ``harness``, ``oracle``, ``learner``, ``risk``
and ``environment`` contribute every function in their ``__all__``; ``core``
is measured through ``CostModel.__call__`` (``core.cost``) and the noise
quantiles through ``UniformSeq.quantile`` and ``BrownianSeq.quantile``
(``environment.quantile``). ``harness.pool_wait`` is time spent in
``Future.result``, so that waiting for workers is not harness self time.

A span adds to its name's totals: calls, busy seconds, self seconds (busy
minus the wrapped calls made inside it) and, for some names, elements
processed. Pool workers are forked, so each process keeps its own totals and
rewrites ``$PERFBENCH_SPANS/spans-<pid>.json`` whenever its outermost span
closes. ``read_spans`` and ``layer_metrics`` turn those files into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("harness", "oracle", "learner", "risk", "environment")

#: Per-layer metrics: (name, unit, span, statistic).
SPAN_METRICS = (
    ("oracle.optimal_action_series.busy_s", "s", "oracle.optimal_action_series", "busy_s"),
    ("oracle.optimal_action_series.self_s", "s", "oracle.optimal_action_series", "self_s"),
    ("oracle.dynamic_regret.busy_s", "s", "oracle.dynamic_regret", "busy_s"),
    ("oracle.true_cvar.calls", "count", "oracle.true_cvar", "calls"),
    ("oracle.true_cvar.us_per_call", "us", "oracle.true_cvar", "us_per_call"),
    ("learner.run.calls", "count", "learner.run", "calls"),
    ("learner.run.busy_s", "s", "learner.run", "busy_s"),
    ("learner.run.self_s", "s", "learner.run", "self_s"),
    ("learner.us_per_step", "us", "learner.run", "us_per_step"),
    ("risk.cvar_of_values.calls", "count", "risk.cvar_of_values", "calls"),
    ("risk.cvar_of_values.busy_s", "s", "risk.cvar_of_values", "busy_s"),
    ("risk.cvar_of_values.values", "count", "risk.cvar_of_values", "values"),
    ("environment.quantile.calls", "count", "environment.quantile", "calls"),
    ("environment.quantile.busy_s", "s", "environment.quantile", "busy_s"),
    ("environment.quantile.values", "count", "environment.quantile", "values"),
    ("core.cost.calls", "count", "core.cost", "calls"),
    ("core.cost.values", "count", "core.cost", "values"),
    ("core.cost.busy_s", "s", "core.cost", "busy_s"),
    ("harness.pool_wait_s", "s", "harness.pool_wait", "busy_s"),
    ("harness.build_scenario.calls", "count", "harness.build_scenario", "calls"),
)


#: Elements counted per call, by parameter name or "return": values reduced,
#: quantile levels, cost values.
COUNTS = {"risk.cvar_of_values": "values", "environment.quantile": "q",
          "core.cost": "return"}

#: Wrapped methods: (span, module, class, method).
METHODS = (
    ("environment.quantile", "cvarlearn.environment", "UniformSeq", "quantile"),
    ("environment.quantile", "cvarlearn.environment", "BrownianSeq", "quantile"),
    ("core.cost", "cvarlearn.core", "CostModel", "__call__"),
    ("harness.pool_wait", "concurrent.futures", "Future", "result"),
)


def _counter(fn, param):
    """``count(args, kwargs, result)`` giving the size of ``param``, or None."""
    import numpy as np

    if param == "return":
        return lambda args, kwargs, result: int(np.size(result))
    names = list(inspect.signature(fn).parameters)
    if param not in names:
        return None
    index = names.index(param)
    return lambda args, kwargs, result: int(np.size(
        args[index] if len(args) > index else kwargs[param]))


class Tracer:
    """Span totals of one process, written to ``out_dir`` as JSON."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.installed: list[str] = []
        self.absent: list[str] = []
        self.reset()
        # A forked worker starts from empty totals, not from its parent's.
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        self.stack: list[list[float]] = []    # open spans: [start, child seconds]
        self.totals: dict[str, list] = {}     # name -> [calls, busy, self, values]

    def wrap(self, name: str, fn):
        count = _counter(fn, COUNTS[name]) if name in COUNTS else None

        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self.stack.append(frame)
            values = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    values = count(args, kwargs, result)
                return result
            finally:
                busy = time.perf_counter() - frame[0]
                self.stack.pop()
                total = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
                total[0] += 1
                total[1] += busy
                total[2] += busy - frame[1]
                total[3] += values
                if self.stack:
                    self.stack[-1][1] += busy
                else:
                    self.flush()
        return functools.update_wrapper(wrapper, fn)

    def flush(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"installed": self.installed,
                                   "absent": self.absent,
                                   "totals": self.totals}))
        os.replace(tmp, path)

    def install(self) -> None:
        """Wrap every measured name that exists; record the rest as absent."""
        importlib.import_module("cvarlearn.cli")  # loads what the CLI uses
        package = [m for n, m in list(sys.modules.items())
                   if n == "cvarlearn" or n.startswith("cvarlearn.")]

        def replace(original, wrapper):
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for layer in LAYERS:
            try:
                module = importlib.import_module(f"cvarlearn.{layer}")
            except ModuleNotFoundError:
                self.absent.append(layer)
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    replace(fn, self.wrap(name, fn))
                    self.installed.append(name)
        for name, module_name, cls_name, attr in METHODS:
            try:
                cls = getattr(importlib.import_module(module_name), cls_name)
                method = cls.__dict__[attr]
            except (ModuleNotFoundError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self.wrap(name, method))
            if name not in self.installed:
                self.installed.append(name)


def read_spans(spans_dir: Path) -> dict:
    """Merge every process's span file: totals summed across processes."""
    totals: dict[str, list] = {}
    installed: set[str] = set()
    absent: set[str] = set()
    files = sorted(spans_dir.glob("spans-*.json"))
    for path in files:
        data = json.loads(path.read_text())
        installed.update(data["installed"])
        absent.update(data["absent"])
        for name, values in data["totals"].items():
            merged = totals.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                merged[i] += v
    return {"totals": totals, "installed": installed, "absent": absent,
            "processes": len(files)}


def layer_metrics(spans: dict, runs: int, steps: int, output_files: int,
                  output_bytes: int, overhead_s: float
                  ) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics, self-check failures and a printable table.

    ``runs`` is the number of learner runs the workload makes (trials x
    experiments) and ``steps`` its learner steps. Metrics of an absent name
    read 0 in the JSON and ``absent`` in the table.
    """
    totals, installed = spans["totals"], spans["installed"]
    metrics, missing = {}, set()
    for name, unit, span, stat in SPAN_METRICS:
        calls, busy, self_s, values = totals.get(span, (0, 0.0, 0.0, 0))
        metrics[name] = {"value": {
            "calls": calls, "busy_s": busy, "self_s": self_s, "values": values,
            "us_per_call": 1e6 * busy / calls if calls else 0.0,
            "us_per_step": 1e6 * busy / steps,
        }[stat], "unit": unit}
        if span not in installed:
            missing.add(name)
    harness_self = sum(v[2] for k, v in totals.items()
                       if k.startswith("harness.") and k != "harness.pool_wait")
    metrics["harness.self_s"] = {"value": harness_self, "unit": "s"}
    metrics["harness.processes"] = {"value": spans["processes"], "unit": "count"}
    metrics["harness.output_files"] = {"value": output_files, "unit": "count"}
    metrics["harness.output_bytes"] = {"value": output_bytes, "unit": "bytes"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}

    checks = []
    learner_calls = totals.get("learner.run", (0,))[0]
    if "learner.run" in installed and learner_calls != runs:
        checks.append(f"learner.run.calls = {learner_calls}, expected {runs}")
    if spans["processes"] < 1:
        checks.append("no process wrote a span file")
    table = []
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6f}"
        table.append(f"{name:<40} " + ("absent" if name in missing
                                       else f"{value:>16} {m['unit']}"))
    table += [f"# absent from the program: {name}" for name in sorted(spans["absent"])]
    return metrics, checks, table


def main(argv: list[str]) -> int:
    tracer = Tracer(Path(os.environ["PERFBENCH_SPANS"]))
    tracer.install()
    from cvarlearn import cli

    try:
        return cli.main(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""End-to-end benchmark of the cvarlearn CLI.

Usage, from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload pricing_run --seed 3 --seconds 10 --trace 0

Each run launches ``python3 -m cvarlearn.cli`` as one fresh process in a fresh
temporary directory under ``.bench_build/``. The loop is closed: one client,
and the next run starts when the previous one has exited. Runs repeat until
``--seconds`` have passed (at least one run; a single run of a workload can
take longer than that). The program's own process pool uses at most
``min(trials, nproc)`` workers.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``cpu_s`` (user+sys
of the run and its workers), ``steps_per_s``, ``setup_s`` (a fresh
interpreter that imports cvarlearn and builds the workload's scenario) and
``peak_rss_mb``. ``--trace 1`` repeats the untraced runs, then makes one run
under ``perfbench/tracer.py`` and reports per-layer metrics and the tracing
overhead.

Every run's CSVs are hashed and compared with ``perfbench/golden.json``
(seeds 0-23, recorded by ``perfbench/golden.py``). A non-zero exit, a missing
file or a hash mismatch fails the run. A seed with no stored reference is
reported as unchecked. The printed ``error_rate`` is failed runs over
attempted runs. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
SCRATCH = ROOT / ".bench_build"

#: Wall-clock limit of one benchmark invocation, runs included.
DEADLINE_S = 170.0
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; only ``--scenario/--T/--trials/--counts`` vary."""

    argv: tuple[str, ...]
    scenario: str
    horizon: int
    trials: int
    prefixes: tuple[str, ...]       # output prefix of each experiment
    extra_files: tuple[str, ...] = ()  # files written once per run

    @property
    def steps(self) -> int:
        """Learner steps of one run: trials x T x experiments."""
        return self.trials * self.horizon * len(self.prefixes)

    def expected_files(self, seed: int) -> dict[str, tuple[str, int]]:
        """Each output file with its golden key and the seed that fixes it.

        Trial ``i`` runs with seed ``seed + i`` and its CSV depends on nothing
        else, so trial CSVs are stored once per trial seed and shared by
        overlapping base seeds.
        """
        files = {}
        for prefix in self.prefixes:
            for i in range(self.trials):
                files[f"{prefix}_trial{i}.csv"] = (f"{prefix}_trial", seed + i)
            files[f"{prefix}_aggregate.csv"] = (f"{prefix}_aggregate.csv", seed)
        for name in self.extra_files:
            files[name] = (name, seed)
        return files


# The serial oracle series, the per-trial learner and regret loop, and the
# Gaussian quantiles dominate in turn (BENCHMARK.json says why each is here).
WORKLOADS = {
    "pricing_run": Workload(("run",), "parking", 6000, 10, ("ra",)),
    "trial_sweep": Workload(("run", "--T", "500", "--trials", "100"),
                            "parking", 500, 100, ("ra",)),
    "brownian_ablation": Workload(
        ("ablate", "--scenario", "brownian", "--T", "2000", "--counts", "8,16,24"),
        "brownian", 2000, 10, ("ra_n8", "ra_n16", "ra_n24"), ("ra_ablation.csv",)),
}


@dataclass
class RunResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failures: list[str] = field(default_factory=list)
    unchecked: int = 0
    output_files: int = 0
    output_bytes: int = 0
    hashes: dict[tuple[str, int], str] = field(default_factory=dict)
    spans: dict | None = None


def child_env(**extra: str) -> dict[str, str]:
    """Environment of every child: the checkout's sources first, no RA_SEED
    (it would silently override ``--seed``), and no bytecode written, so that
    every interpreter compiles the package alike whatever the caller set."""
    env = dict(os.environ)
    env.pop("RA_SEED", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(argv: list[str], cwd: Path, env: dict[str, str], log: Path,
           timeout: float) -> tuple[int, float, float, float]:
    """Run ``argv`` to completion; return exit code, wall, cpu and peak RSS.

    Standard output and error go to ``log``. CPU time and peak RSS come from
    ``wait4``, so they include the workers the process reaped itself. The
    process group is killed if it outlives ``timeout``.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=sink,
                                stderr=subprocess.STDOUT, start_new_session=True)
        watchdog = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def check_outputs(outdir: Path, name: str, seed: int, golden: dict,
                  result: RunResult) -> None:
    """Hash every expected output into ``result.hashes`` and compare each
    with its golden reference; count every file and byte in ``outdir``."""
    reference = golden.get(name, {})
    for fname, key in sorted(WORKLOADS[name].expected_files(seed).items()):
        path = outdir / fname
        if not path.is_file():
            result.failures.append(f"missing output {fname}")
            continue
        result.hashes[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        expected = reference.get(key[0], {}).get(str(key[1]))
        if expected is None:
            result.unchecked += 1
        elif expected != result.hashes[key]:
            result.failures.append(f"hash mismatch {fname}")
    files = [p for p in outdir.rglob("*") if p.is_file()]
    result.output_files = len(files)
    result.output_bytes = sum(p.stat().st_size for p in files)


def run_once(name: str, seed: int, golden: dict, deadline: float,
             traced: bool = False) -> RunResult:
    """One CLI run in a fresh directory that is hashed, measured and deleted.

    A traced run goes through ``tracer.py``; its merged spans are kept in
    ``result.spans``.
    """
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=SCRATCH) as tmp:
        outdir, spans, log = Path(tmp) / "out", Path(tmp) / "spans", Path(tmp) / "log.txt"
        outdir.mkdir()
        if traced:
            spans.mkdir()
            program = [sys.executable, str(BENCH / "tracer.py")]
            env = child_env(PERFBENCH_SPANS=str(spans))
        else:
            program = [sys.executable, "-m", "cvarlearn.cli"]
            env = child_env()
        argv = [*program, *WORKLOADS[name].argv, "--seed", str(seed), "--out", "ra"]
        rc, wall, cpu, rss = launch(argv, outdir, env, log, deadline - time.monotonic())
        result = RunResult(wall, cpu, rss)
        if rc != 0:
            tail = log.read_text(errors="replace").splitlines()[-5:]
            result.failures.append(f"exit code {rc}: " + " | ".join(tail))
        check_outputs(outdir, name, seed, golden, result)
        if traced:
            result.spans = tracer.read_spans(spans)
    return result


def measure_setup(name: str, deadline: float) -> float:
    """Median wall time of fresh interpreters that import cvarlearn and build
    the workload's scenario, after one untimed launch that warms the file
    cache."""
    workload = WORKLOADS[name]
    code = ("import cvarlearn.harness as h; h.build_scenario(h.make_config("
            f"{{'scenario': {workload.scenario!r}, 'horizon': {workload.horizon}}}))")
    SCRATCH.mkdir(exist_ok=True)
    times = []
    with tempfile.TemporaryDirectory(prefix="setup-", dir=SCRATCH) as tmp:
        for _ in range(SETUP_REPEATS + 1):
            log = Path(tmp) / "log.txt"
            rc, wall, _, _ = launch([sys.executable, "-c", code], Path(tmp),
                                    child_env(), log, deadline - time.monotonic())
            if rc != 0:
                raise RuntimeError(f"set-up failed with exit code {rc}:\n"
                                   + log.read_text(errors="replace"))
            times.append(wall)
    return statistics.median(times[1:])


def machine_info() -> dict[str, str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    info = {"nproc": str(os.cpu_count()), "cpu": cpu,
            "python": sys.version.split()[0]}
    for package in ("numpy", "scipy"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = "missing"
    return info


def code_info() -> dict[str, str]:
    """Git commit when the checkout has one, and the line count of the
    package sources."""
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                                   "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    lines = sum(path.read_bytes().count(b"\n")
                for path in (SRC / "cvarlearn").glob("*.py"))
    return {"git": commit, "src_lines": str(lines)}


def measure(name: str, seed: int, seconds: int, golden: dict, deadline: float
            ) -> list[RunResult]:
    """Closed loop of untraced runs for ``seconds`` (at least one run)."""
    runs: list[RunResult] = []
    start = time.monotonic()
    while not runs or (time.monotonic() - start < seconds
                       and time.monotonic() + runs[-1].wall_s < deadline):
        runs.append(run_once(name, seed, golden, deadline))
    return runs


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, runs: list[RunResult], setup_s: float) -> dict:
    wall = statistics.median(r.wall_s for r in runs)
    return {
        "wall_s": metric(wall, "s"),
        "cpu_s": metric(statistics.median(r.cpu_s for r in runs), "s"),
        "steps_per_s": metric(WORKLOADS[name].steps / wall, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(max(r.peak_rss_mb for r in runs), "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cvarlearn" / "cli.py").is_file():
        print(f"no cvarlearn sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    name, seed = args.workload, args.seed
    lines = [f"# workload={name} seed={seed} seconds={args.seconds} trace={args.trace}"]
    lines.append("# machine: " + " ".join(f"{k}={v!r}" for k, v in machine_info().items()))
    lines.append("# code: " + " ".join(f"{k}={v}" for k, v in code_info().items()))

    setup_s = None if args.trace else measure_setup(name, deadline)
    runs = measure(name, seed, args.seconds, golden, deadline)
    checks: list[str] = []
    if args.trace:
        traced = run_once(name, seed, golden, deadline, traced=True)
        workload = WORKLOADS[name]
        metrics, checks, table = tracer.layer_metrics(
            traced.spans, workload.trials * len(workload.prefixes), workload.steps,
            traced.output_files, traced.output_bytes,
            traced.wall_s - statistics.median(r.wall_s for r in runs))
        runs_all = runs + [traced]
        lines += table
    else:
        runs_all = runs
        metrics = end_to_end(name, runs, setup_s)
        for key, m in metrics.items():
            count = SETUP_REPEATS if key == "setup_s" else len(runs)
            lines.append(f"{key:<14} {m['value']:>14.6f} {m['unit']:<4} "
                         f"({'max' if key == 'peak_rss_mb' else 'median'} "
                         f"of {count} {'launches' if key == 'setup_s' else 'runs'})")

    failed = sum(1 for r in runs_all if r.failures)
    unchecked = sum(r.unchecked for r in runs_all)
    lines.append(f"{'error_rate':<14} {failed / len(runs_all):>14.6f} "
                 f"({failed} failed of {len(runs_all)} runs)")
    last = runs_all[-1]
    lines.append(f"# outputs: {last.output_files} files, {last.output_bytes} bytes; "
                 "csv hashes " + (f"unchecked for {unchecked} files (no reference "
                                  f"for seed {seed})" if unchecked else "checked"))
    for i, r in enumerate(runs_all):
        lines.append(f"# run {i}{' (traced)' if r.spans else ''}: wall {r.wall_s:.3f} s, "
                     f"cpu {r.cpu_s:.3f} s, peak rss {r.peak_rss_mb:.1f} MB")
        for failure in r.failures:
            lines.append(f"# run {i} FAILED: {failure}")
    for failure in checks:
        lines.append(f"# trace self-check FAILED: {failure}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and not checks,
                      "attempted": len(runs_all), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

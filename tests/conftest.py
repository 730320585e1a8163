import logging
import time
from types import SimpleNamespace

import pytest

from cvarlearn import core, harness, verify
from cvarlearn.harness import ExperimentConfig, build_scenario, run_ablation


@pytest.fixture
def force_jobs(monkeypatch):
    """``force_jobs(n)`` makes ``fork_ranges`` cut any work into ``n`` jobs
    (at most one per item), whatever this machine's CPU count."""
    return lambda jobs: monkeypatch.setattr(core, "_usable_cpus", lambda: jobs)


@pytest.fixture
def physical_memory(monkeypatch):
    """``physical_memory(size)`` makes the harness's size check see ``size``
    bytes of physical memory."""
    return lambda size: monkeypatch.setattr(harness, "_physical_memory", lambda: size)


@pytest.fixture(scope="session")
def paper_study():
    """The full dynamic-pricing study: 10 seeded trials at each sample count.

    One ablation runs every count's learner and evaluates all of their trials
    in one oracle pass; ``seconds`` is its total.
    """
    config = ExperimentConfig()  # defaults are the study configuration
    t0 = time.perf_counter()
    results = run_ablation(config, [8, 16, 24])
    seconds = time.perf_counter() - t0
    return SimpleNamespace(config=config, scenario=build_scenario(config),
                           results=results, seconds=seconds)


@pytest.fixture(scope="session")
def verify_run():
    """Every ``cvarlearn verify`` check, run once per session.

    ``checks`` maps ``"suite/name"`` to ``(result, seconds)``, where
    ``seconds`` is the time of the check call that produced the result (one
    call can produce two results). ``warnings`` maps each suite to the
    warnings the package logged while its checks ran.
    """
    checks, warnings, records = {}, {}, []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    package = logging.getLogger("cvarlearn")
    package.addHandler(handler)
    try:
        for suite, suite_checks in verify.SUITES.items():
            start = len(records)
            for check in suite_checks:
                t0 = time.perf_counter()
                results = check()
                seconds = time.perf_counter() - t0
                checks.update({f"{r.suite}/{r.name}": (r, seconds) for r in results})
            warnings[suite] = [r.getMessage() for r in records[start:]]
    finally:
        package.removeHandler(handler)
    return SimpleNamespace(checks=checks, warnings=warnings)


@pytest.fixture(scope="session")
def verify_checks(verify_run):
    """``verify_run.checks``: acceptance 01-05 and 10 read their criteria
    from here."""
    return verify_run.checks

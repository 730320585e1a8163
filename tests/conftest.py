import time
from types import SimpleNamespace

import pytest

from cvarlearn import verify
from cvarlearn.harness import ExperimentConfig, build_scenario, run_ablation


@pytest.fixture(scope="session")
def paper_study():
    """The full dynamic-pricing study: 10 seeded trials at each sample count.

    One ablation runs every count's learner and evaluates all of their trials
    in one oracle pass; ``seconds`` is its total.
    """
    config = ExperimentConfig()  # defaults are the study configuration
    t0 = time.perf_counter()
    aggregates = run_ablation(config, [8, 16, 24], write=False)
    seconds = time.perf_counter() - t0
    return SimpleNamespace(config=config, scenario=build_scenario(config),
                           aggregates=aggregates, seconds=seconds)


@pytest.fixture(scope="session")
def verify_checks():
    """Every ``cvarlearn verify`` check, run once per session.

    Maps ``"suite/name"`` to ``(result, seconds)``, where ``seconds`` is the
    time of the check call that produced the result (one call can produce
    two results). Acceptance 01-05 and 10 read their criteria from here.
    """
    out = {}
    for checks in verify.SUITES.values():
        for check in checks:
            t0 = time.perf_counter()
            results = check()
            seconds = time.perf_counter() - t0
            out.update({f"{r.suite}/{r.name}": (r, seconds) for r in results})
    return out

import time
from types import SimpleNamespace

import pytest

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

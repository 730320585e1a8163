"""The learner's generator: NumPy's ``default_rng(seed).random`` stream, bit
for bit, from a port that never loads ``numpy.random``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvarlearn
from cvarlearn import _pcg64, learner
from cvarlearn.core import Box, ConfigurationError, CostModel
from cvarlearn.environment import BrownianSeq, constant_uniform, parking_noise
from cvarlearn.learner import LearnerConfig, _draws, run_trials
from cvarlearn.schedule import batch_epoch, polynomial_counts

L = _pcg64._L

# One word, the largest one-word seed, the smallest two-word one, three
# words, and seven words: more words than SeedSequence's pool of four.
SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 200 + 1]


@pytest.mark.parametrize("seed", SEEDS, ids=["0", "1", "2**32-1", "2**32",
                                             "2**64+1", "2**200+1"])
def test_stream_equals_numpy_call_after_call(seed):
    # Calls shorter than, equal to and longer than a block, so the state
    # carries across calls and across blocks within a call.
    stream, rng = _pcg64.Stream(seed), np.random.default_rng(seed)
    for n in (1, L - 1, L, L + 1, 3 * L + 5, 1):
        got, want = stream.random(n), rng.random(n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), n


@pytest.mark.parametrize("seed", [-1, 2.5, -(2 ** 40), "3", None], ids=repr)
def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(seed):
    # A negative seed never reaches the word split, which would not end.
    with pytest.raises(ConfigurationError, match=f"seed {seed!r}"):
        _pcg64.Stream(seed)


def test_run_trials_rejects_a_negative_seed():
    config = LearnerConfig(delta=0.05, alpha=0.5, counts=np.full(5, 2),
                           rates=np.full(5, 0.05), x0=0.5)
    cost = CostModel(fn=lambda x, xi: 0.0 * x + 0.0 * xi, bound=1.0, lipschitz=1.0)
    with pytest.raises(ConfigurationError, match="seed -1"):
        run_trials(config, cost, constant_uniform(10, 0.0, 1.0), Box(0.0, 4.0),
                   [0, -1])


@pytest.mark.parametrize("block", [1000, learner._BLOCK], ids=["cut", "default"])
@pytest.mark.parametrize("noise, counts", [
    (parking_noise(300), np.full(40, 20)),
    (BrownianSeq(300, 0.5), polynomial_counts(0.5, 4.0, 40)),
], ids=["parking", "brownian"])
def test_draws_over_port_streams_equal_draws_over_numpy(monkeypatch, noise,
                                                        counts, block):
    # Each trial draws more than one table's length of uniforms.
    monkeypatch.setattr(learner, "_BLOCK", block)
    n_samples = np.array([counts[batch_epoch(t, 40).epoch - 1]
                          for t in range(1, 301)])
    assert (1 + n_samples).sum() > L
    seeds = [0, 1, 2 ** 32]
    ported = _draws([_pcg64.Stream(s) for s in seeds], n_samples, noise)
    numpy = _draws([np.random.default_rng(s) for s in seeds], n_samples, noise)
    for (u, xi), (u_ref, xi_ref) in zip(ported, numpy, strict=True):
        assert np.array_equal(u, u_ref) and np.array_equal(xi, xi_ref)


def test_import_builds_no_table():
    code = ("import cvarlearn, cvarlearn._pcg64 as p; "
            "print(p._table.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(cvarlearn.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0"]

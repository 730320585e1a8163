"""The golden ``run`` case at NumPy's lower SIMD dispatch levels.

README ("Output files") promises byte-identical CSVs with one NumPy build at
one SIMD level: the oracle's CVaR tail sums follow the order in which
``ndarray.partition`` leaves a row, and NumPy picks its partition kernel by
CPU. This detector runs ``tests/test_golden.py``'s ``run-parking`` case in a
child process limited to each level by ``NPY_ENABLE_CPU_FEATURES``, set on
the child only, and asks for the pinned hashes. It fails until the sums no
longer depend on the dispatch; a level that the child's NumPy refuses on
this CPU is skipped.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvarlearn
from test_golden import CASES, GOLDEN_GRIDS, _hashes

LEVELS = ("X86_V2", "X86_V3")


@pytest.mark.xfail(strict=True, reason="the oracle's tail sums follow NumPy's "
                   "SIMD partition order (README, Output files)")
def test_run_case_gives_its_pinned_hashes_at_every_level(tmp_path):
    argv, prefix, expected = CASES["run-parking"]
    env = dict(os.environ, PYTHONPATH=str(Path(cvarlearn.__file__).parents[1]))
    hashes = {}
    for level in LEVELS:
        out = tmp_path / level
        # The child runs on the golden cases' evaluation grid.
        code = ("import sys; from cvarlearn import cli, harness; "
                + "".join(f"harness.{k} = {v}; " for k, v in GOLDEN_GRIDS.items())
                + f"sys.exit(cli.main({[*argv, '--out', str(out / prefix)]!r}))")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**env, "NPY_ENABLE_CPU_FEATURES": level}, capture_output=True,
            text=True, timeout=300)
        if "not supported by your machine" in proc.stderr:
            continue
        assert proc.returncode == 0, proc.stderr
        hashes[level] = _hashes(out)
    if not hashes:
        pytest.skip(f"NumPy refuses each of {LEVELS} on this CPU")
    assert hashes == {level: expected for level in hashes}

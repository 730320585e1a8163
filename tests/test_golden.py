"""Byte-identity of the CLI's CSV output, pinned by sha256.

The run and ablation hashes were recorded from the exhaustive action-grid
oracle. Any change to the learner, the oracle, the noise sequences or the CSV
writer that moves a single byte of a trajectory, aggregate, ablation or
budget table fails here. The cost constants U, L0 and m of each scenario
are pinned bit for bit as ``float.hex``.

The hashes hold for one NumPy build at one SIMD level: the tail sums of the
oracle's CVaRs follow the order in which ``ndarray.partition`` leaves a row,
and NumPy picks its partition kernel by CPU. Rows of 128 to 2,000 values
give other bits with AVX-512 dispatch off (``NPY_ENABLE_CPU_FEATURES=X86_V3``)
than on, so a mismatch names both.
"""

import hashlib

import numpy as np
import pytest

import cvarlearn.cli as cli
from cvarlearn import harness
from cvarlearn.harness import ExperimentConfig, build_scenario

COMMON = ["--T", "60", "--batch", "10", "--trials", "2"]

# The pins were recorded on a smaller evaluation grid than the protocol's
# (``harness.ORACLE_ACTIONS``, ``harness.ORACLE_LEVELS``), which keeps each
# case fast; ``golden_grids`` sets it for a test.
GOLDEN_GRIDS = {"ORACLE_ACTIONS": 20, "ORACLE_LEVELS": 1000}

RUN_HASHES = {
    "run_trial0.csv": "677e47c4770fc9aaa2e9e0e566d2a3f7697ca05bbbfa3731bb0bbaa45c7c21a8",
    "run_trial1.csv": "49d31d3897d8c80919cb90975280413a2aaaba1d8af0666a8505afcbfe2048d1",
    "run_aggregate.csv": "e145b5e5911666c5680893272fcb576d5e28f73e9a1d36d6a36fabf47c14ee92",
}

ABLATE_HASHES = {
    "abl_ablation.csv": "5fc847fc937e3bb90744bf5eaf7614a02a5322de97105feb2c10fd860c7ef195",
    "abl_n4_aggregate.csv": "8069ff6b30b590393070c3ed864010595203d9c8756e365587f0eb342fb371ad",
    "abl_n4_trial0.csv": "4c27b9fc825ccc7dd03f15853b94b8b1db28d0920468c3ba5716877d53ba4c2e",
    "abl_n4_trial1.csv": "a83c30f10e2229841cedb0677d92e82a1b6e880886d7c40cbee2af40fa6dd7df",
    "abl_n8_aggregate.csv": "22dee2bed2d75f0c5e42e898b257ab87513b21a5e7950651e3eef95cf5b7d04f",
    "abl_n8_trial0.csv": "3fbcd9bbce139b33fa0a0762c265dc63e357ea5cc22ba7d7d9a0660a61174a49",
    "abl_n8_trial1.csv": "b99bd6d932efa4ece21fde753080a8d32f83d2b5d14fe5d7121a1cffa1b7cfe6",
}

# At n = 24 the bits of a sample CVaR would follow the memory layout of the
# learner's cost rows if ``cvar_of_values`` did not fix it. The n = 8 files
# are the ``run`` files' bytes.
ABLATE_PARKING_HASHES = {
    "abp_ablation.csv": "bcdf956ec09cb26fe47de03d92bfb6578645c1ef93d9c2b68a1e82ef1958e01a",
    "abp_n8_aggregate.csv": "e145b5e5911666c5680893272fcb576d5e28f73e9a1d36d6a36fabf47c14ee92",
    "abp_n8_trial0.csv": "677e47c4770fc9aaa2e9e0e566d2a3f7697ca05bbbfa3731bb0bbaa45c7c21a8",
    "abp_n8_trial1.csv": "49d31d3897d8c80919cb90975280413a2aaaba1d8af0666a8505afcbfe2048d1",
    "abp_n24_aggregate.csv": "0086495980e50f0be7598755283c8c4776459f02a08ea7f2df8ee464a82dba86",
    "abp_n24_trial0.csv": "c025ab0319eda0212223fe2ea81c830b8f0494b18b61711167886a6840ab33de",
    "abp_n24_trial1.csv": "4749ccedcfbb6dca28d89fa047204ce092150a94dfb36936412f52a24eaac287",
}

# Ten trials: from 8 rows up, an axis-0 mean or std of a Fortran-ordered
# column gives other bits than of a C-ordered one. Trials 0 and 1 are the
# ``run`` files' bytes.
TEN_TRIAL_HASHES = {
    "ten_aggregate.csv": "83288ecd949bcd784ee268995367ce23b64e0441dc635cb74e94c4bc05f04bcf",
    "ten_trial0.csv": "677e47c4770fc9aaa2e9e0e566d2a3f7697ca05bbbfa3731bb0bbaa45c7c21a8",
    "ten_trial1.csv": "49d31d3897d8c80919cb90975280413a2aaaba1d8af0666a8505afcbfe2048d1",
    "ten_trial2.csv": "fdbe3d1cbfbfc1f716ee43a8a0513d0c9e5df8cf8d1702168e44f13ad6ee5e51",
    "ten_trial3.csv": "28b1b19dcd33641767886881d0bbbf59f729d0cb3b97f494ddb7d8beec0dd879",
    "ten_trial4.csv": "b43b7636362dd7b771434762ebc4f475bc4a9e263aba873d7116897f1fc9aa65",
    "ten_trial5.csv": "38de4da690319ce804dbeddb262ee4e4e55ebb041ab0e07dc28871ed29c8054d",
    "ten_trial6.csv": "2244ff87bd81790adbcb4002c0ca48d860fa6897fb01ef610bdff39086be0f1f",
    "ten_trial7.csv": "0c9988bfe8a05fa0c4dba60e81e49c348126f35cb0aab43494911d5037c25f81",
    "ten_trial8.csv": "ed21dc0eed3a551b14da1f07761c69c3319e1ad89241b2616993046927b13bec",
    "ten_trial9.csv": "365257af98347ddba3ce49a302240d6907f29fc70059d229bacacaa010bdd501",
}

# A seed of two 32-bit words: SeedSequence hashes multi-word entropy.
BIG_SEED_HASHES = {
    "big_trial0.csv": "d8336f01684b48ee71cc74a6c0f5f91931e1b3486458766427b024b9b85608d2",
    "big_trial1.csv": "39ed1e21ed5144d3d0faae0ac7d54f0af9302e5aeeea25d7d96684b0b825aade",
    "big_aggregate.csv": "02780c540c8dea430920875d24b202e9e461e4867f58137c766195ed8ecc655d",
}

CUSTOM_HASHES = {
    "cus_trial0.csv": "f1f68042aac031335bf3c72381b668bd8326f441d8bc6bd6e136655f702d5550",
    "cus_trial1.csv": "184c0a5755ce86b09dec9d08e2560bf6557a4a533e1c4f7960613a45f77ff04c",
    "cus_aggregate.csv": "0642b1d2028b9c74aee3d0c3542883be470474dbf79a60078dd7ab3ffd19f9c0",
}

# The same configuration and seeds as the ablation's n = 8 experiment, so
# the same bytes: here they come through ``run``.
BROWNIAN_RUN_HASHES = {
    "brw_trial0.csv": "3fbcd9bbce139b33fa0a0762c265dc63e357ea5cc22ba7d7d9a0660a61174a49",
    "brw_trial1.csv": "b99bd6d932efa4ece21fde753080a8d32f83d2b5d14fe5d7121a1cffa1b7cfe6",
    "brw_aggregate.csv": "22dee2bed2d75f0c5e42e898b257ab87513b21a5e7950651e3eef95cf5b7d04f",
}

# The inverse-epoch learning rate 1/(m * tau), reset at every restart.
INVERSE_HASHES = {
    "inv_trial0.csv": "ee31817958bc7bc8173af216733d243f0d7318b6f0a69a6a4a78ff9e3e9edc36",
    "inv_trial1.csv": "f4baf3a9f96e26322f1e99424db77681544888736810240fadc535db683d11f3",
    "inv_aggregate.csv": "97a42171a8d4c3988431696156046271c702faf0320d19f31545a33cc1ac355c",
}

# T = 3000 reaches both branches of the parking formulas and both of their
# collapsed stretches.
BUDGET_HASHES = {
    "bud_budget.csv": "6a86c8626f9a7d7e27b2ba175b41d2bd028143c1d352a39d99319efe9f4b6609",
}

BROWNIAN_BUDGET_HASHES = {
    "bud_budget.csv": "4903e82e30cbb908bd16fbd76e90b812204b8c59b669ca7d3aa44189e71bf972",
}


# A static band: every step's W1 is zero, the budget's zero branch.
CUSTOM_BUDGET_HASHES = {
    "bud_budget.csv": "9f871e63e70ac6694fb15455a4616bcf35f345dd535a77eb8473039341b8f298",
}

# ``float.hex`` of each scenario's cost bound U and Lipschitz constant L0,
# which the sampling-requirement constant and the DKW diagnostics read.
PRICING_CONSTANTS = ("0x1.7d70a3d70a3d7p-2", "0x1.7ae147ae147aep-3")
COST_CONSTANTS = {
    ("parking", 60): PRICING_CONSTANTS,
    ("parking", 3000): PRICING_CONSTANTS,
    ("parking", 6000): PRICING_CONSTANTS,
    ("custom", 60): PRICING_CONSTANTS,
    ("custom", 3000): PRICING_CONSTANTS,
    ("custom", 6000): PRICING_CONSTANTS,
    ("brownian", 60): ("0x1.329df20e2a89fp+3", "0x1.8c378ba7c4239p+2"),
    ("brownian", 3000): ("0x1.7bef7ac53d3b7p+6", "0x1.37def58a7a76dp+4"),
    ("brownian", 6000): ("0x1.4fa2b748da962p+7", "0x1.9e8add236a58ep+4"),
}

# ``float.hex`` of each scenario's strong-convexity modulus m, which the
# inverse-epoch learning rate reads: 2 * 0.15^2 + 0.001 and 2.
MODULI = {"parking": "0x1.78d4fdf3b645ap-5", "custom": "0x1.78d4fdf3b645ap-5",
          "brownian": "0x1.0000000000000p+1"}


def _hashes(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.glob("*.csv")}


def _simd() -> str:
    """The NumPy version and whether its AVX-512 (X86_V4) dispatch is on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # another NumPy layout
        return f"numpy {np.__version__}, SIMD dispatch unknown"
    state = "on" if __cpu_features__.get("X86_V4") else "off"
    return f"numpy {np.__version__}, AVX-512 dispatch {state}"


CASES = {
    "run-parking": (["run", "--scenario", "parking", *COMMON], "run", RUN_HASHES),
    "run-ten-trials": (["run", "--scenario", "parking", *COMMON, "--trials", "10"],
                       "ten", TEN_TRIAL_HASHES),
    "ablate-brownian": (["ablate", "--scenario", "brownian", "--counts", "4,8",
                         *COMMON], "abl", ABLATE_HASHES),
    "ablate-parking": (["ablate", "--scenario", "parking", "--counts", "8,24",
                        *COMMON], "abp", ABLATE_PARKING_HASHES),
    "run-big-seed": (["run", "--scenario", "parking", "--seed", "4294967296",
                      *COMMON], "big", BIG_SEED_HASHES),
    "run-custom": (["run", "--scenario", "custom", *COMMON], "cus", CUSTOM_HASHES),
    "run-brownian": (["run", "--scenario", "brownian", *COMMON], "brw",
                     BROWNIAN_RUN_HASHES),
    "run-inverse": (["run", "--scenario", "parking", "--rate", "inverse", *COMMON],
                    "inv", INVERSE_HASHES),
    "budget-parking": (["budget", "--scenario", "parking", "--T", "3000"], "bud",
                       BUDGET_HASHES),
    "budget-brownian": (["budget", "--scenario", "brownian", "--T", "3000"], "bud",
                        BROWNIAN_BUDGET_HASHES),
    "budget-custom": (["budget", "--scenario", "custom", "--T", "3000"], "bud",
                      CUSTOM_BUDGET_HASHES),
}


@pytest.fixture
def golden_grids(monkeypatch):
    for name, value in GOLDEN_GRIDS.items():
        monkeypatch.setattr(harness, name, value)


# Every run is pinned in this process and cut across two forked jobs; the
# budget table is written without a fork.
@pytest.mark.parametrize("case, jobs", [
    pytest.param(case, jobs, id=case if jobs == 1 else f"{case}-jobs{jobs}")
    for case in CASES for jobs in ((1,) if case.startswith("budget") else (1, 2))])
def test_cli_csv_hashes(tmp_path, force_jobs, golden_grids, case, jobs):
    argv, prefix, expected = CASES[case]
    force_jobs(jobs)
    assert cli.main([*argv, "--out", str(tmp_path / prefix)]) == 0
    assert _hashes(tmp_path) == expected, (
        f"CSV bytes differ from the pins, which hold with numpy 2.4.6 and "
        f"AVX-512 dispatch on; this run: {_simd()}")


def test_run_bytes_ignore_the_environment(tmp_path, monkeypatch, golden_grids):
    # A run's bytes depend on its command line and config file alone, so a
    # seed exported in the environment moves none of them.
    monkeypatch.setenv("RA_SEED", "99")
    argv, prefix, expected = CASES["run-parking"]
    assert cli.main([*argv, "--out", str(tmp_path / prefix)]) == 0
    assert _hashes(tmp_path) == expected


@pytest.mark.parametrize("scenario, horizon", list(COST_CONSTANTS),
                         ids=[f"{s}-T{t}" for s, t in COST_CONSTANTS])
def test_cost_constants_bits(scenario, horizon):
    cost = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon)).cost
    assert (cost.bound.hex(), cost.lipschitz.hex()) == COST_CONSTANTS[scenario, horizon]


@pytest.mark.parametrize("scenario, horizon", list(COST_CONSTANTS),
                         ids=[f"{s}-T{t}" for s, t in COST_CONSTANTS])
def test_cost_modulus_bits(scenario, horizon):
    cost = build_scenario(ExperimentConfig(scenario=scenario, horizon=horizon)).cost
    assert cost.strong_convexity.hex() == MODULI[scenario]

"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see them as they complete) and
asserts the criterion at its stated tolerance. Checks 01-05 and 10 are
``cvarlearn verify`` checks: they read the results and timings of the
session's one run of the suites (the ``verify_checks`` fixture).
"""

import mpmath
import numpy as np

from cvarlearn.schedule import theorem1_params, theorem2_params

mpmath.mp.dps = 50


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}  {name}  ({detail})"
    print(line)
    assert ok, line


def test_01_cvar_oracle_equivalence(verify_checks):
    res, elapsed = verify_checks["risk/cvar-equals-ru-minimum"]
    report(1, "cvar-vs-ru-grid-and-closed-form", res.passed and elapsed < 10.0,
           f"{res.detail}, {elapsed:.1f}s")


def test_02_cvar_kolmogorov_inequality(verify_checks):
    res, elapsed = verify_checks["risk/cvar-kolmogorov-bound"]
    report(2, "cvar-kolmogorov-bound", res.passed and elapsed < 10.0,
           f"{res.detail}, {elapsed:.1f}s")


def test_03_cvar_wasserstein_inequality(verify_checks):
    res, elapsed = verify_checks["environment/cvar-wasserstein-bound"]
    report(3, "cvar-wasserstein-bound", res.passed and elapsed < 30.0,
           f"{res.detail}, {elapsed:.1f}s")


def test_04_dkw_band_validity(verify_checks):
    res, elapsed = verify_checks["risk/dkw-band-validity"]
    report(4, "dkw-band-validity", res.passed and elapsed < 30.0,
           f"{res.detail}, {elapsed:.1f}s")


def test_05_gradient_estimator_consistency(verify_checks):
    exact, elapsed = verify_checks["smoothing/two-direction-quadratic-gradient"]
    stochastic, _ = verify_checks["smoothing/estimator-matches-smoothed-gradient"]
    ok = exact.passed and stochastic.passed and elapsed < 120.0
    report(5, "gradient-estimator-consistency", ok,
           f"two-direction exact={exact.passed}, {stochastic.detail}, {elapsed:.1f}s")


def test_06_feasibility_of_played_actions(paper_study):
    x_hat = paper_study.results[8].trace.x_hat
    scen = paper_study.scenario
    lo = scen.region.lower - 1e-12
    hi = scen.region.upper + 1e-12
    ok = bool(np.all(x_hat >= lo) and np.all(x_hat <= hi))
    report(6, "played-actions-stay-admissible", ok,
           f"range [{x_hat.min():.4f}, {x_hat.max():.4f}] inside "
           f"[{lo:.0f}, {hi:.0f}], all {x_hat.size} plays")


def test_07_pricing_study_tracking_and_sublinear_regret(paper_study):
    result = paper_study.results[8]
    config = paper_study.config
    batch = config.batch_size
    mean_price = result.trace.x.mean(axis=0)
    gap = np.abs(mean_price - result.report.optimal_actions)
    first_gap = gap[:batch].mean()
    last_gap = gap[-batch:].mean()
    tracking_ok = last_gap <= first_gap / 2.0

    mean_regret = result.report.cumulative_regret.mean(axis=0)
    rates = [mean_regret[t - 1] / t for t in (1500, 3000, 6000)]
    regret_ok = rates[0] > rates[1] > rates[2]

    seconds = paper_study.seconds
    ok = tracking_ok and regret_ok and seconds < 300.0
    report(7, "pricing-study-reproduction", ok,
           f"gap first batch {first_gap:.4f} -> last batch {last_gap:.4f} "
           f"(factor {first_gap / max(last_gap, 1e-12):.1f}); DR(t)/t = "
           + ", ".join(f"{r:.5f}" for r in rates) + f"; {seconds:.0f}s")


def test_08_sample_count_loss_ordering(paper_study):
    final = {n: paper_study.results[n].report.accumulated_loss[:, -1].mean()
             for n in (8, 16, 24)}
    seconds = paper_study.seconds
    ok = final[24] <= final[16] <= final[8] and seconds < 900.0
    report(8, "accumulated-loss-ordering-by-sample-count", ok,
           f"mean loss n=8: {final[8]:.3f}, n=16: {final[16]:.3f}, "
           f"n=24: {final[24]:.3f}; {seconds:.0f}s")


def mp_theorem1(horizon, budget, a):
    ratio = mpmath.mpf(budget) / mpmath.mpf(horizon)
    if a <= 1.0:
        exps = (mpmath.mpf(a) / (4 + mpmath.mpf(a)),
                3 * mpmath.mpf(a) / (4 + mpmath.mpf(a)),
                mpmath.mpf(4) / (4 + mpmath.mpf(a)))
    else:
        exps = (mpmath.mpf(1) / 5, mpmath.mpf(3) / 5, mpmath.mpf(4) / 5)
    raw = (1 / ratio) ** exps[2]
    return (ratio ** exps[0], ratio ** exps[1],
            max(2, int(mpmath.floor(raw + mpmath.mpf("0.5")))))


def mp_theorem2(horizon, budget, a):
    ratio = mpmath.mpf(budget) / mpmath.mpf(horizon)
    if a <= 4.0 / 3.0:
        e_delta = mpmath.mpf(a) / (4 + mpmath.mpf(a))
        e_batch = mpmath.mpf(4) / (4 + mpmath.mpf(a))
    else:
        e_delta, e_batch = mpmath.mpf(1) / 4, mpmath.mpf(3) / 4
    raw = (1 / ratio) ** e_batch
    return ratio ** e_delta, max(2, int(mpmath.floor(raw + mpmath.mpf("0.5"))))


def test_09_theorem_parameter_formulas():
    rng = np.random.default_rng(109)
    worst = 0.0
    batches_ok = True
    for i in range(50):
        horizon = int(rng.integers(10, 10**6))
        budget = float(rng.uniform(1e-3, 0.9)) * horizon
        # alternate draws across the branch boundaries of both selectors
        a1 = float(rng.uniform(0.05, 1.0) if i % 2 else rng.uniform(1.0, 3.0))
        a2 = float(rng.uniform(0.05, 4 / 3) if i % 2 else rng.uniform(4 / 3, 3.0))
        p1 = theorem1_params(horizon, budget, a1)
        d_mp, e_mp, b_mp = mp_theorem1(horizon, budget, a1)
        worst = max(worst,
                    abs(p1.delta / float(d_mp) - 1.0),
                    abs(p1.eta / float(e_mp) - 1.0))
        batches_ok &= p1.batch_size == b_mp
        p2 = theorem2_params(horizon, budget, a2, 1.0)
        d_mp2, b_mp2 = mp_theorem2(horizon, budget, a2)
        worst = max(worst, abs(p2.delta / float(d_mp2) - 1.0))
        batches_ok &= p2.batch_size == b_mp2
    ok = worst <= 1e-12 and batches_ok
    report(9, "theorem-parameter-selectors", ok,
           f"worst relative error {worst:.2e}, batch sizes exact={batches_ok}")


def test_10_wasserstein_cross_validation(verify_checks):
    numeric, elapsed = verify_checks["environment/w1-closed-vs-numeric"]
    axioms, _ = verify_checks["environment/w1-metric-axioms"]
    ok = numeric.passed and axioms.passed and elapsed < 30.0
    report(10, "wasserstein-closed-form-vs-quadrature", ok,
           f"{numeric.detail}, metric axioms hold={axioms.passed}, {elapsed:.1f}s")

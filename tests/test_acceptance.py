"""Acceptance gate: every criterion prints one PASS/FAIL line.

The studies here run at desk scale with fixed seeds; tolerance boxes are
widened relative to the tabulated large-replication values exactly as the
per-criterion comments state.  Criterion 3 compares the generator with the
tabulated censoring rate (a population quantity, checked on one large draw)
and plateau share (a finite-sample quantity, checked as a Monte Carlo mean
at a moderate n).
"""

import sys

import numpy as np
import pytest

from smoothcure import (
    Bandwidth,
    DEFAULT_SEED,
    SCENARIOS,
    bootstrap_se,
    cv_bandwidth,
    estimate_cure_prob,
    fit_mle_em,
    fit_presmoothing,
    kaplan_meier,
    make_scenario,
    plateau_fraction,
    profile_residual,
    resample_indices,
    run_study,
    standardize_continuous,
)
from smoothcure.incidence import _soft_label
from smoothcure.latency_cox import _partial_likelihood
from smoothcure.simulate import generate

from conftest import build_dataset, record_acceptance


def announce(criterion: str, ok: bool, details: str) -> bool:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({details})"
    print(line, file=sys.__stdout__, flush=True)
    record_acceptance(line)
    return ok


@pytest.fixture(scope="module")
def model1_study():
    return run_study(make_scenario("m1/s1/c1", n=200), reps=300, seed=DEFAULT_SEED)


@pytest.fixture(scope="module")
def nojump_study():
    return run_study(make_scenario("m3nj/s1/c1", n=200), reps=200, seed=DEFAULT_SEED)


@pytest.fixture(scope="module")
def demo_study():
    return run_study(make_scenario("demo/convergence"), reps=200, seed=DEFAULT_SEED)


def test_criterion_1_presmoothing_beats_mle_variance(model1_study):
    # paper-scale anchors: presmoothing gamma2 bias -0.034, var 0.164 vs
    # mle var 0.173 at 1020 reps; boxes widened for 300-rep Monte Carlo error
    pre = model1_study.methods["presmooth"]
    mle = model1_study.methods["mle"]
    var_ok = pre.variance[1] < mle.variance[1]
    box_ok = 0.12 <= pre.variance[1] <= 0.22
    bias_ok = abs(pre.bias[1]) <= 0.10
    ok = announce(
        "criterion 1 (incidence variance edge, Model 1)",
        var_ok and box_ok and bias_ok,
        f"pre var={pre.variance[1]:.4f} mle var={mle.variance[1]:.4f} pre bias={pre.bias[1]:+.4f}",
    )
    assert ok


def test_model1_study_example_box(model1_study):
    # tabulated anchor -0.034 / 0.164 at 1020 reps, interval widened for
    # 300-rep Monte Carlo error
    pre = model1_study.methods["presmooth"]
    assert -0.10 <= pre.bias[1] <= 0.04
    assert 0.12 <= pre.variance[1] <= 0.22


def test_criterion_2_latency_agreement(model1_study):
    pre = model1_study.methods["presmooth"]
    mle = model1_study.methods["mle"]
    gap = abs(pre.bias[2] - mle.bias[2])
    ratio = pre.variance[2] / mle.variance[2]
    ok = announce(
        "criterion 2 (latency agreement, Model 1)",
        gap <= 0.02 and 0.8 <= ratio <= 1.25,
        f"bias gap={gap:.4f} var ratio={ratio:.3f}",
    )
    assert ok


def test_criterion_3_scenario_calibration():
    # The censoring rate is a population quantity: one n=100000 draw pins it.
    # The plateau share (observations beyond the sample's last event time)
    # shrinks as n grows, so it is compared as a Monte Carlo mean at a finite
    # n.  The table's n is not recorded; n=500 is inferred from a scan of
    # n in 400..1000 at several seeds: every row fits for n in 450..700.
    plateau_n, plateau_reps = 500, 200
    bad = []
    for key in SCENARIOS:
        if not key.startswith(("m1/", "m2/")):
            continue
        scenario = make_scenario(key, n=100000)
        cens = 1.0 - generate(scenario, seed=DEFAULT_SEED).delta.mean()
        small = make_scenario(key, n=plateau_n)
        plat = np.mean(
            [plateau_fraction(generate(small, DEFAULT_SEED, r)) for r in range(plateau_reps)]
        )
        if abs(cens - scenario.target_censoring) > 0.015:
            bad.append(f"{key} cens {cens:.3f} vs {scenario.target_censoring}")
        if abs(plat - scenario.target_plateau) > 0.015:
            bad.append(f"{key} plateau {plat:.3f} vs {scenario.target_plateau}")
    ok = announce(
        f"criterion 3 (scenario calibration: censoring at n=100000, "
        f"plateau mean at n={plateau_n} over {plateau_reps} replications)",
        not bad,
        "all 18 rows within ±0.015" if not bad else f"{len(bad)} deviations, e.g. {bad[:3]}",
    )
    assert ok, f"deviating rows: {bad}"


def test_criterion_4_profile_fixed_point():
    worst = 0.0
    for r in range(20):
        ds = generate(make_scenario("m1/s1/c1", n=200), seed=DEFAULT_SEED, replication=r)
        fit = fit_presmoothing(ds)
        assert fit.latency.converged, f"latency did not converge on replication {r}"
        worst = max(worst, profile_residual(ds, fit.gamma, fit.beta, fit.Lambda))
    ok = announce(
        "criterion 4 (profile fixed point on 20 datasets)", worst < 1e-6, f"max residual={worst:.2e}"
    )
    assert ok


def test_criterion_5_em_monotonicity():
    worst = np.inf
    for r in range(20):
        ds = generate(make_scenario("m1/s1/c1", n=200), seed=DEFAULT_SEED + 1, replication=r)
        fit = fit_mle_em(ds)
        worst = min(worst, float(np.min(np.diff(fit.loglik_path))))
    ok = announce(
        "criterion 5 (EM monotonicity on 20 datasets)",
        worst >= -1e-10,
        f"smallest loglik increment={worst:.2e}",
    )
    assert ok


def test_criterion_6_beran_km_equivalence():
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(900000 + seed)
        n = int(rng.integers(3, 13))
        y = rng.exponential(1.0, n).round(4)
        delta = (rng.random(n) < 0.6).astype(int)
        if not delta.any():
            delta[int(rng.integers(n))] = 1
        ds = build_dataset(y, delta, x_cols=[np.full(n, 0.7)])
        km = kaplan_meier(ds.y, ds.delta)
        expected = km(km.times[-1])
        got = estimate_cure_prob(ds, ds.x[:1], Bandwidth(np.array([1.0])))[0]
        worst = max(worst, abs(got - expected))
    ok = announce(
        "criterion 6 (product-limit equivalence, 200 datasets)", worst < 1e-12, f"max gap={worst:.2e}"
    )
    assert ok


def test_criterion_7_gradient_checks():
    rng = np.random.default_rng(77)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(12, 40))
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        pihat = rng.uniform(0.0, 1.0, n)
        gamma = rng.normal(0.0, 0.7, 2)
        loglik, derivatives = _soft_label(pihat, x)
        score, information = derivatives(gamma)
        hess = -information()
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (loglik(gamma + e) - loglik(gamma - e)) / (2 * h)
            worst = max(worst, abs(fd - score[j]) / max(1.0, abs(score[j])))
            fd_row = (derivatives(gamma + e)[0] - derivatives(gamma - e)[0]) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd_row - hess[j])) / max(1.0, np.max(np.abs(hess[j])))))

    def partial_loglik(ds, w, beta):
        total = 0.0
        for i in range(ds.n):
            if ds.delta[i] == 1:
                risk = float(np.sum(w * np.exp(ds.z @ beta) * (ds.y >= ds.y[i])))
                total += float(ds.z[i] @ beta) - np.log(risk)
        return total

    for k in range(50):
        rng2 = np.random.default_rng(7000 + k)
        n = int(rng2.integers(10, 30))
        y = rng2.exponential(1.0, n)
        delta = (rng2.random(n) < 0.7).astype(int)
        if not delta.any():
            delta[0] = 1
        ds = build_dataset(y, delta, z_cols=[rng2.normal(size=n)])
        w = np.where(ds.delta == 1, 1.0, rng2.uniform(0.1, 1.0, n))
        beta = rng2.normal(0.0, 0.5, 1)
        score = _partial_likelihood(ds, w)[1](beta)[0]
        fd = (partial_loglik(ds, w, beta + h) - partial_loglik(ds, w, beta - h)) / (2 * h)
        worst = max(worst, abs(fd - score[0]) / max(1.0, abs(score[0])))
    ok = announce("criterion 7 (derivative checks, 50+50 instances)", worst < 1e-5, f"max rel err={worst:.2e}")
    assert ok


def test_criterion_8_nojump_mse_direction(nojump_study):
    pre = nojump_study.methods["presmooth"].mse[2]
    mle = nojump_study.methods["mle"].mse[2]
    ok = announce(
        "criterion 8 (no-atom latency, gamma3 MSE direction)",
        pre < mle,
        f"pre mse={pre:.3f} mle mse={mle:.3f}",
    )
    assert ok


def test_criterion_9_nonconvergence_surfacing(demo_study):
    mle_rate = demo_study.methods["mle"].nonconverged / demo_study.replications
    latency_failures = demo_study.methods["presmooth"].stage_failures["latency"]
    ok = announce(
        "criterion 9 (small-sample failure surfacing)",
        mle_rate > 0.20 and latency_failures == 0,
        f"mle rate={mle_rate:.2f} latency failures={latency_failures}",
    )
    assert ok


def test_criterion_10_determinism():
    sce = make_scenario("m1/s1/c1", n=80)
    ds = generate(sce, seed=5)
    ds2 = generate(sce, seed=5)
    gen_ok = np.array_equal(ds.y, ds2.y) and np.array_equal(ds.x, ds2.x)

    std = standardize_continuous(ds)
    cv_ok = np.array_equal(cv_bandwidth(std).h, cv_bandwidth(std).h)

    b1 = bootstrap_se(ds, method="mle", B=8, seed=3)
    b2 = bootstrap_se(ds, method="mle", B=8, seed=3)
    boot_ok = np.array_equal(b1.estimates, b2.estimates) and np.array_equal(
        resample_indices(3, 5, 80), resample_indices(3, 5, 80)
    )

    s1 = run_study(sce, reps=12, seed=4, methods=("mle",), n_jobs=1)
    s2 = run_study(sce, reps=12, seed=4, methods=("mle",), n_jobs=2)
    study_ok = np.array_equal(s1.methods["mle"].estimates, s2.methods["mle"].estimates)

    ok = announce(
        "criterion 10 (bit reproducibility)",
        gen_ok and cv_ok and boot_ok and study_ok,
        f"generate={gen_ok} cv={cv_ok} bootstrap={boot_ok} study-workers={study_ok}",
    )
    assert ok

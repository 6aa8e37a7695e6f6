import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import kstest

import smoothcure.simulate as simulate
from smoothcure import kernels
from smoothcure import (
    ConfigurationError,
    SCENARIOS,
    SimulationScenario,
    make_scenario,
    plateau_fraction,
    run_study,
    truncated_weibull_ph_sample,
)
from smoothcure.simulate import generate


class TestRegistry:
    def test_m1_key_resolution(self):
        s = make_scenario("m1/s1/c1")
        assert s.lam_c == pytest.approx(0.1)
        assert s.gamma == (1.75, 2.0)
        assert s.beta == (1.0,)
        assert (s.tau0, s.tau) == (4.0, 6.0)

    def test_full_grid_present(self):
        keys = [f"m{m}/s{s}/c{c}" for m in (1, 2, 3, 4) for s in (1, 2, 3) for c in (1, 2, 3)]
        for key in keys:
            assert key in SCENARIOS
        assert "m3nj/s1/c1" in SCENARIOS and "demo/convergence" in SCENARIOS

    def test_model4_and_demo_differ(self):
        m4 = make_scenario("m4/s1/c1")
        demo = make_scenario("demo/convergence")
        assert m4.beta == (-0.8, 0.3, 0.5)
        assert demo.beta == (-0.8, 0.9, 0.5)
        assert m4.gamma == demo.gamma
        assert demo.n == 100

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError):
            make_scenario("m9/s1/c1")

    @pytest.mark.parametrize(
        "rates",
        [{"lam_c": 0.1, "nu": 0.5}, {}, {"lam_c": 0.0}, {"nu": -0.5}, {"lam_c": float("nan")}],
    )
    def test_exactly_one_positive_censoring_rate(self, rates):
        # The rate that is set names the censoring family, so two rates, none
        # or a rate that is not positive leave it undefined.
        with pytest.raises(ConfigurationError):
            SimulationScenario(model="1", gamma=(1.0, 1.0), beta=(1.0,), tau0=4.0, tau=6.0, **rates)

    def test_nojump_support(self):
        s = make_scenario("m3nj/s1/c2")
        assert (s.tau0, s.tau) == (15.0, 20.0)
        assert s.model == "3-nojump"


class TestGenerate:
    def test_dataset_invariants(self):
        for key in ("m1/s1/c1", "m2/s3/c2", "m3/s2/c1", "m4/s1/c3", "m3nj/s1/c1", "demo/convergence"):
            s = make_scenario(key, n=500)
            ds = generate(s, seed=4)
            assert ds.n == 500
            assert np.all(ds.y <= s.tau + 1e-12)
            assert np.all(ds.y[ds.delta == 1] <= s.tau0 + 1e-12)
            assert np.all(ds.x[:, 0] == 1.0)

    @pytest.mark.parametrize("seed, replication", [(-5, 0), (1729, -1)])
    def test_negative_seed_or_key_is_typed(self, seed, replication):
        # The one seeded stream names what it was given, not numpy's bare ValueError.
        with pytest.raises(ConfigurationError, match=f"seed={seed}"):
            generate(make_scenario("m1/s1/c1", n=20), seed=seed, replication=replication)

    @pytest.mark.parametrize("gamma, beta", [((1.0,), (1.0,)), ((1.0, 2.0), (1.0, 2.0))])
    def test_coefficients_must_match_the_drawn_covariates(self, gamma, beta):
        # Model 1 draws an intercept and one covariate for the incidence and one for the latency.
        scenario = SimulationScenario(model="1", gamma=gamma, beta=beta, tau0=4.0, tau=6.0, lam_c=0.1)
        with pytest.raises(ConfigurationError, match=f"needs 2 incidence .* and 1 latency .* got {len(gamma)} and {len(beta)}"):
            generate(scenario, seed=1)

    def test_deterministic(self):
        s = make_scenario("m3/s1/c1", n=64)
        a = generate(s, seed=9, replication=2)
        b = generate(s, seed=9, replication=2)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)
        c = generate(s, seed=9, replication=3)
        assert not np.array_equal(a.y, c.y)

    def test_model1_calibration(self):
        s = make_scenario("m1/s1/c1", n=100000)
        ds = generate(s, seed=123)
        assert 1.0 - ds.delta.mean() == pytest.approx(0.25, abs=0.01)

    def test_model1_cure_rate(self):
        s = make_scenario("m1/s1/c1", n=100000)
        rng_phi = expit(generate(s, seed=77).x @ np.array([1.75, 2.0]))
        # cure fraction = 1 - mean susceptibility
        assert 1.0 - rng_phi.mean() == pytest.approx(0.20, abs=0.01)

    def test_vanishing_censoring_rate_oracle(self):
        from dataclasses import replace

        # with a vanishing censoring rate only truncation censors, so the
        # censoring rate converges to the cure fraction (events stop by tau0)
        s = replace(make_scenario("m1/s1/c1", n=100000), lam_c=1e-9)
        ds = generate(s, seed=5)
        cured, _ = quad(lambda x: 0.5 * (1.0 - expit(1.75 + 2.0 * x)), -1.0, 1.0)
        assert 1.0 - ds.delta.mean() == pytest.approx(cured, abs=0.01)


class TestWeibullSampler:
    def test_direct_inversion(self):
        t = truncated_weibull_ph_sample(1.75, 1.5, 0.0, 4.0, 0.7)
        assert t == pytest.approx((-np.log(0.7) / 1.5) ** (1 / 1.75), rel=1e-12)

    def test_tail_truncates_to_endpoint(self):
        assert truncated_weibull_ph_sample(1.75, 1.5, 0.0, 4.0, 1e-300) == 4.0

    def test_truncated_ks(self):
        rng = np.random.default_rng(3)
        u = 1.0 - rng.random(100000)
        t = truncated_weibull_ph_sample(1.75, 1.5, 0.3, 2.0, u)
        scale = 1.5 * np.exp(0.3)

        def cdf(x):
            x = np.asarray(x, dtype=float)
            return np.where(x >= 2.0, 1.0, -np.expm1(-scale * np.clip(x, 0, None) ** 1.75))

        inner = t[t < 2.0]
        grid = np.sort(inner)
        ecdf = np.searchsorted(np.sort(t), grid, side="right") / t.size
        stat = np.max(np.abs(ecdf - cdf(grid)))
        atom = np.mean(t == 2.0)
        assert stat < 0.01
        assert atom == pytest.approx(np.exp(-scale * 2.0**1.75), abs=0.01)

    def test_nojump_ks(self):
        rng = np.random.default_rng(4)
        u = rng.random(100000)
        t = truncated_weibull_ph_sample(1.75, 1.5, -0.2, 3.0, u, no_jump=True)
        scale = 1.5 * np.exp(-0.2)
        total = -np.expm1(-scale * 3.0**1.75)

        def cdf(x):
            return -np.expm1(-scale * np.clip(x, 0, 3.0) ** 1.75) / total

        assert np.all(t < 3.0)
        assert kstest(t, cdf).statistic < 0.01


def constant_stub(args):
    scenario, seed, r, methods = args
    truth = np.concatenate([scenario.gamma, scenario.beta])
    out = {}
    rng = np.random.default_rng(r)
    for m in methods:
        est = np.array(truth)
        if r % 100 == 50:  # rare wild outlier
            est = est + constant_stub.outlier
        out[m] = (est, {"stage": True})
    return out


constant_stub.outlier = 0.0


class TestRunStudy:
    def test_truth_stub_gives_zero_moments(self, monkeypatch):
        monkeypatch.setattr(simulate, "_study_replicate", constant_stub)
        constant_stub.outlier = 0.0
        rep = run_study(make_scenario("m1/s1/c1", n=20), reps=100, seed=1, methods=("mle",))
        assert np.allclose(rep.methods["mle"].bias, 0.0)
        assert np.allclose(rep.methods["mle"].variance, 0.0)
        assert np.allclose(rep.methods["mle"].mse, 0.0)

    def test_trimming_removes_outlier_magnitude(self, monkeypatch):
        monkeypatch.setattr(simulate, "_study_replicate", constant_stub)
        results = []
        for magnitude in (1e3, 1e9):
            constant_stub.outlier = magnitude
            rep = run_study(make_scenario("m1/s1/c1", n=20), reps=200, seed=1, methods=("mle",))
            results.append(np.array(rep.methods["mle"].mse))
        constant_stub.outlier = 0.0
        assert np.array_equal(results[0], results[1])

    def test_mse_identity(self):
        rep = run_study(make_scenario("m1/s1/c1", n=60), reps=12, seed=2, methods=("mle",))
        s = rep.methods["mle"]
        assert np.allclose(s.mse, s.bias**2 + s.variance, atol=1e-10)

    def test_bit_reproducible_and_worker_independent(self):
        sce = make_scenario("m1/s1/c1", n=60)
        a = run_study(sce, reps=12, seed=3, methods=("mle",), n_jobs=1)
        b = run_study(sce, reps=12, seed=3, methods=("mle",), n_jobs=2)
        c = run_study(sce, reps=12, seed=3, methods=("mle",), n_jobs=1)
        assert np.array_equal(a.methods["mle"].estimates, b.methods["mle"].estimates)
        assert np.array_equal(a.methods["mle"].estimates, c.methods["mle"].estimates)

    def test_fanned_out_cv_worker_independent(self, monkeypatch):
        # Above the threshold, each replication's CV fans out when the study
        # runs in this process, and runs serially inside a study worker.
        monkeypatch.setattr(kernels, "_CV_FAN_OUT_PAIRS", 0)
        sce = make_scenario("m4/s1/c1", n=60)
        a = run_study(sce, reps=10, seed=3, methods=("presmooth",), n_jobs=1)
        b = run_study(sce, reps=10, seed=3, methods=("presmooth",), n_jobs=2)
        assert np.array_equal(a.methods["presmooth"].estimates, b.methods["presmooth"].estimates)

    def test_rejects_tiny_rep_counts(self):
        with pytest.raises(ConfigurationError):
            run_study(make_scenario("m1/s1/c1", n=20), reps=5, seed=1)

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigurationError):
            run_study(make_scenario("m1/s1/c1", n=20), reps=10, seed=1, methods=("wat",))

    def test_param_names_shape(self):
        rep = run_study(make_scenario("m3/s1/c1", n=80), reps=10, seed=4, methods=("mle",))
        assert rep.param_names[0] == "gamma_intercept"
        assert len(rep.param_names) == 4 + 3
        assert rep.methods["mle"].estimates.shape == (10, 7)

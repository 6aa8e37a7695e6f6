import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import smoothcure.inference as inference
import smoothcure.pipeline as pipeline
from smoothcure import (
    DEFAULT_SEED,
    ConfigurationError,
    CovariateMeta,
    CureModelError,
    CureModelFit,
    InferenceError,
    StepFunction,
    SurvivalDataset,
    bootstrap_se,
    compute_weights,
    fit_presmoothing,
    make_scenario,
    prediction_error,
    resample_indices,
    run_study,
    wald_test,
)
from smoothcure.fanout import _fan_out
from smoothcure.kernels import Bandwidth
from smoothcure.pipeline import METHODS, fit_cure_model
from smoothcure.simulate import generate

from conftest import build_dataset


def toy_fit(gamma, beta, times=(1.0, 2.0), values=(0.5, 1.2)):
    return CureModelFit(
        gamma=np.asarray(gamma, dtype=float),
        beta=np.asarray(beta, dtype=float),
        Lambda=StepFunction(np.asarray(times), np.asarray(values)),
        loglik=0.0,
        iterations=1,
        converged=True,
        method="presmooth",
    )


class TestWald:
    def test_zero_estimate(self):
        assert wald_test(0.0, 1.0) == 1.0

    def test_five_percent_point(self):
        assert wald_test(1.959964, 1.0) == pytest.approx(0.05, abs=1e-6)

    def test_reported_intercept_order(self):
        # estimate 1.6697 with se 0.3415 sits at the 1e-6 order
        p = wald_test(1.6697, 0.3415)
        assert 1e-7 < p < 1e-5

    def test_se_must_be_positive(self):
        with pytest.raises(InferenceError):
            wald_test(1.0, 0.0)

    @given(st.floats(min_value=-20, max_value=20), st.floats(min_value=0.01, max_value=10))
    @settings(max_examples=50)
    def test_symmetry(self, e, se):
        assert wald_test(e, se) == wald_test(-e, se)
        assert 0.0 <= wald_test(e, se) <= 1.0


class TestPredictedWeight:
    """Expected susceptibility of one test subject under a fitted model."""

    @staticmethod
    def predicted_weight(fit, y, delta, z):
        # A dataset needs two subjects and an event, so an event row rides
        # along; weights are computed row by row.
        test = build_dataset([y, y], [delta, 1], z_cols=[[z, z]])
        return float(compute_weights(test, fit.gamma, fit.beta, fit.Lambda)[0])

    def test_event_subject_is_one(self):
        fit = toy_fit([0.3], [0.1])
        assert self.predicted_weight(fit, 1.5, 1, 0.4) == 1.0

    def test_beyond_training_plateau_is_zero(self):
        fit = toy_fit([0.3], [0.1])
        assert self.predicted_weight(fit, 9.0, 0, 0.4) == 0.0

    def test_direct_formula(self):
        # phi = 0.5, Lambda(y) e^{beta'z} = 1
        fit = toy_fit([0.0], [0.0], times=(1.0,), values=(1.0,))
        expected = math.exp(-1) / (1 + math.exp(-1))
        assert self.predicted_weight(fit, 1.0, 0, 0.7) == pytest.approx(expected, rel=1e-12)


class TestPredictionError:
    def test_single_subject_hand_value(self):
        fit = toy_fit([0.0], [0.0])  # phi = 0.5 everywhere
        test = build_dataset([1.0, 1.5], [1, 1], z_cols=[[0.0, 0.0]])
        pe = prediction_error(fit, test)
        assert pe == pytest.approx(-2 * math.log(0.5), abs=1e-10)

    def test_zero_weight_certain_phi_contributes_zero(self):
        # subject 1: censored beyond the training plateau (weight 0) with
        # phi = 1 at double precision -> 0*log(0) and 1*log(1) both vanish;
        # subject 2: an interior event that carries the whole error.
        fit = toy_fit([80.0, -79.0], [0.0])
        test = build_dataset([9.0, 1.0], [0, 1], x_cols=[[0.0, 1.0]], z_cols=[[0.0, 0.0]])
        phi_event = 1.0 / (1.0 + math.exp(-1.0))
        pe = prediction_error(fit, test)
        assert pe == pytest.approx(-math.log(1.0 - phi_event), rel=1e-12)

    def test_sentinel_on_impossible_phi(self):
        fit = toy_fit([80.0], [0.0])  # phi = 1, so log(1-phi) blows up
        test = build_dataset([1.0, 1.5], [1, 1], z_cols=[[0.0, 0.0]])
        assert prediction_error(fit, test) == math.inf

    def test_two_subject_fsum_oracle(self):
        fit = toy_fit([0.4, -0.8], [0.2])
        test = build_dataset([1.2, 0.6], [1, 0], x_cols=[[0.5, -1.0]], z_cols=[[0.3, 0.9]])
        pe = prediction_error(fit, test)
        terms = []
        for i in range(2):
            phi = 1.0 / (1.0 + math.exp(-(fit.gamma[0] + fit.gamma[1] * test.x[i, 1])))
            if test.delta[i] == 1:
                w = 1.0
            else:
                su = math.exp(-fit.Lambda(test.y[i]) * math.exp(fit.beta[0] * test.z[i, 0]))
                w = phi * su / (1 - phi + phi * su)
            terms += [-w * math.log(1 - phi), -(1 - w) * math.log(phi)]
        assert pe == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_swap_pairing_flag(self):
        fit = toy_fit([1.0], [0.0])
        test = build_dataset([1.0, 1.5], [1, 1], z_cols=[[0.0, 0.0]])
        phi = 1.0 / (1.0 + math.exp(-1.0))
        assert prediction_error(fit, test) == pytest.approx(-2 * math.log(1 - phi), rel=1e-12)
        assert prediction_error(fit, test, swap_pairing=True) == pytest.approx(
            -2 * math.log(phi), rel=1e-12
        )

    def test_nonnegative(self, rng):
        for _ in range(10):
            fit = toy_fit(rng.normal(size=2), rng.normal(size=1))
            test = build_dataset(
                rng.exponential(1, 6), (rng.random(6) < 0.5).astype(int) | np.array([1, 0, 0, 0, 0, 0]),
                x_cols=[rng.normal(size=6)], z_cols=[rng.normal(size=6)],
            )
            assert prediction_error(fit, test) >= 0.0


def loop_prediction_error(fit, test, swap_pairing=False):
    """The per-subject loop that prediction_error replaced, kept as an oracle."""
    w = compute_weights(test, fit.gamma, fit.beta, fit.Lambda)
    phi = expit(test.x @ fit.gamma)
    first, second = (phi, 1.0 - phi) if swap_pairing else (1.0 - phi, phi)
    total = 0.0
    for wj, a, b in zip(w, first, second):
        for coef, prob in ((wj, a), (1.0 - wj, b)):
            if coef == 0.0:
                continue
            if prob <= 0.0:
                return math.inf
            total -= coef * math.log(prob)
    return total


class TestPredictionErrorMatchesLoop:
    @staticmethod
    def case(rng, n, gamma_scale):
        fit = toy_fit(rng.normal(scale=gamma_scale, size=2), rng.normal(size=1),
                      times=(0.5, 1.0, 2.0), values=(0.2, 0.7, 1.5))
        delta = (rng.random(n) < 0.5).astype(int)
        delta[0] = 1
        # Some follow-up beyond the last jump: censored there, weight 0.
        y = np.where(rng.random(n) < 0.2, 5.0, rng.exponential(1.0, n))
        test = build_dataset(y, delta, x_cols=[rng.normal(size=n)], z_cols=[rng.normal(size=n)])
        return fit, test

    @pytest.mark.parametrize("swap", [False, True])
    def test_random_fits(self, rng, swap):
        for _ in range(40):
            fit, test = self.case(rng, int(rng.integers(2, 60)), 1.0)
            expected = loop_prediction_error(fit, test, swap)
            assert math.isfinite(expected)
            assert prediction_error(fit, test, swap) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("swap", [False, True])
    def test_saturated_probabilities(self, rng, swap):
        # gamma'x of several hundred puts phi at exactly 0 or 1: zero
        # coefficients must skip their term and nonzero ones give +inf.
        outcomes = set()
        for _ in range(60):
            fit, test = self.case(rng, int(rng.integers(2, 12)), 400.0)
            expected = loop_prediction_error(fit, test, swap)
            got = prediction_error(fit, test, swap)
            outcomes.add(math.isinf(expected))
            if math.isinf(expected):
                assert got == math.inf
            else:
                assert got == pytest.approx(expected, rel=1e-12)
        assert outcomes == {True, False}

    def test_zero_coefficient_on_zero_probability(self):
        # Event subject (weight 1) with phi = 0: the (1 - w) * log(phi) term
        # has a zero coefficient and is skipped; log(1 - phi) = 0.
        fit = toy_fit([-800.0], [0.0])
        test = build_dataset([1.0, 1.5], [1, 1], z_cols=[[0.0, 0.0]])
        assert loop_prediction_error(fit, test) == 0.0
        assert prediction_error(fit, test) == 0.0
        assert prediction_error(fit, test, swap_pairing=True) == math.inf


class TestBootstrap:
    def test_default_seed_is_the_package_default(self):
        import inspect

        from smoothcure import DEFAULT_SEED

        assert inspect.signature(bootstrap_se).parameters["seed"].default == DEFAULT_SEED == 1729

    def test_deterministic_indices(self):
        a = resample_indices(11, 3, 50)
        b = resample_indices(11, 3, 50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, resample_indices(11, 4, 50))
        # The (seed, replicate) Philox stream itself: a change of key or
        # generator would change every bootstrap result.
        assert resample_indices(1729, 0, 10).tolist() == [5, 8, 5, 9, 8, 5, 4, 3, 0, 7]

    def test_repeat_run_bit_identical(self):
        ds = generate(make_scenario("m1/s1/c1", n=80), seed=6)
        r1 = bootstrap_se(ds, method="mle", B=12, seed=7)
        r2 = bootstrap_se(ds, method="mle", B=12, seed=7)
        assert np.array_equal(r1.estimates, r2.estimates)
        assert np.array_equal(r1.se, r2.se)
        assert r1.failures == r2.failures

    def test_worker_count_independent(self):
        ds = generate(make_scenario("m1/s1/c1", n=60), seed=6)
        for method, options in (("mle", {}), ("presmooth", {"bandwidth": Bandwidth(np.array([0.5]))})):
            serial = bootstrap_se(ds, method=method, B=8, seed=2, n_jobs=1, **options)
            parallel = bootstrap_se(ds, method=method, B=8, seed=2, n_jobs=2, **options)
            assert np.array_equal(serial.estimates, parallel.estimates)
            assert serial.failures == parallel.failures

    def test_replayable_rows(self):
        # Replicate r refits the draw resample_indices(21, r, n) as its
        # distinct rows, counted as often as each was drawn: that replays
        # bit for bit, and the row subset take(idx) of the same draw agrees
        # up to rounding, with the same iterations and flags.
        ds = generate(make_scenario("m1/s1/c1", n=60), seed=8)
        res = bootstrap_se(ds, method="mle", B=6, seed=21)
        replayed, taken = [], []
        for r in range(6):
            idx = resample_indices(21, r, ds.n)
            counts = np.bincount(idx, minlength=ds.n)
            rows = np.flatnonzero(counts)
            counted = SurvivalDataset(ds.y[rows], ds.delta[rows], ds.x[rows], ds.z[rows], ds.meta,
                                      ds.z_names, counts=counts[rows])
            fit, subset = fit_cure_model(counted, "mle"), fit_cure_model(ds.take(idx), "mle")
            assert (fit.converged, fit.iterations) == (subset.converged, subset.iterations)
            if fit.converged:
                replayed.append(np.concatenate([fit.gamma, fit.beta]))
                taken.append(np.concatenate([subset.gamma, subset.beta]))
        assert np.array_equal(res.estimates, np.vstack(replayed))
        taken = np.vstack(taken)
        assert np.all(np.abs(res.estimates - taken) <= 1e-12 * (1.0 + np.abs(taken)))

    def test_replayable_presmoothing_rows(self):
        # A presmoothing refit starts its latency EM from the full-sample
        # fit, so replayed with start=full.latency it gives the same bits.
        ds = generate(make_scenario("m1/s1/c1", n=60), seed=8)
        res = bootstrap_se(ds, B=6, seed=21)
        full = fit_presmoothing(ds)
        replayed = []
        for r in range(6):
            counts = np.bincount(resample_indices(21, r, ds.n), minlength=ds.n)
            rows = np.flatnonzero(counts)
            counted = SurvivalDataset(ds.y[rows], ds.delta[rows], ds.x[rows], ds.z[rows], ds.meta,
                                      ds.z_names, counts=counts[rows])
            fit = fit_presmoothing(counted, start=full.latency)
            if fit.converged:
                replayed.append(np.concatenate([fit.gamma, fit.beta]))
        assert np.array_equal(res.estimates, np.vstack(replayed))

    @pytest.mark.parametrize(
        "args",
        [{"B": 2.5}, {"B": 1}, {"n_jobs": 1.5}, {"seed": -1}, {"seed": 1.5},
         {"tol": np.inf}, {"max_iter": 0}, {"method": "mle", "tol": -1.0}],
        ids=["B-fraction", "B-one", "n_jobs-fraction", "seed-negative", "seed-fraction",
             "tol-inf", "max_iter-zero", "mle-tol-negative"],
    )
    def test_bad_arguments_refused_before_any_fit(self, monkeypatch, args):
        # n_jobs below 1 is TestWorkers::test_fewer_than_one_worker_is_typed.
        def fit_cure_model(ds, method, **options):
            raise AssertionError("fitted before checking the arguments")

        monkeypatch.setattr(inference, "fit_cure_model", fit_cure_model)
        ds = generate(make_scenario("m1/s1/c1", n=60), seed=6)
        with pytest.raises(CureModelError):
            bootstrap_se(ds, **{"B": 4, **args})

    def test_constant_estimator_gives_zero_se(self, monkeypatch):
        calls = {"n": 0}

        def stub(ds, method, **kw):
            calls["n"] += 1
            return toy_fit([0.5, -0.2], [1.0])

        monkeypatch.setattr(inference, "fit_cure_model", stub)
        ds = build_dataset([1, 2, 3, 4], [1, 1, 1, 1], x_cols=[[0.1, 0.2, 0.3, 0.4]],
                           z_cols=[[0.0, 0.1, 0.2, 0.3]])
        res = bootstrap_se(ds, B=5, seed=3)
        assert np.allclose(res.se, 0.0)
        assert res.failures == 0
        assert calls["n"] == 6  # point fit + 5 replicates
        assert np.allclose(res.pvalues, [0.0, 0.0, 0.0])  # nonzero estimates, zero spread

    def test_all_failures_raise(self, monkeypatch):
        def stub(ds, method, **kw):
            if stub.first:
                stub.first = False
                return toy_fit([0.5], [1.0])
            raise InferenceError("refit failed")

        stub.first = True
        monkeypatch.setattr(inference, "fit_cure_model", stub)
        ds = build_dataset([1, 2, 3], [1, 0, 1], z_cols=[[0.0, 0.1, 0.2]])
        with pytest.raises(InferenceError):
            bootstrap_se(ds, B=3, seed=1)

    def test_negative_seed_is_typed(self):
        ds = generate(make_scenario("m1/s1/c1", n=60), seed=6)
        with pytest.raises(ConfigurationError, match="seed=-1"):
            bootstrap_se(ds, B=4, seed=-1)

    def test_needs_two_replicates(self, rng):
        ds = build_dataset([1, 2, 3], [1, 0, 1], z_cols=[[0.0, 0.1, 0.2]])
        with pytest.raises(InferenceError):
            bootstrap_se(ds, B=1, seed=1)

    def test_nonconverged_full_fit_is_refused(self, monkeypatch):
        # demo/convergence replication 15: the full joint-EM fit does not
        # converge, so there is no estimate to test; nothing is refitted.
        ds = generate(make_scenario("demo/convergence"), DEFAULT_SEED, 15)
        assert not fit_cure_model(ds, "mle").converged
        calls = []
        monkeypatch.setattr(inference, "_fan_out", _fan_out_spy(calls))
        with pytest.raises(InferenceError, match="did not converge"):
            bootstrap_se(ds, method="mle", B=8, seed=1, n_jobs=1)
        assert calls == []

    def test_one_surviving_refit_is_refused(self):
        # demo/convergence replication 9: the full fit converges but only
        # 1 of 3 refits does, which leaves no spread to measure.
        ds = generate(make_scenario("demo/convergence"), DEFAULT_SEED, 9)
        assert fit_cure_model(ds, "mle").converged
        with pytest.raises(InferenceError, match="1 of 3"):
            bootstrap_se(ds, method="mle", B=3, seed=1, n_jobs=1)

    def test_one_surviving_stub_refit_is_refused(self, monkeypatch):
        # The full fit and the first refit succeed, every other refit fails.
        fits = iter([toy_fit([0.5], [1.0]), toy_fit([0.4], [1.1])])

        def stub(ds, method, **kw):
            fit = next(fits, None)
            if fit is None:
                raise InferenceError("refit failed")
            return fit

        monkeypatch.setattr(inference, "fit_cure_model", stub)
        ds = build_dataset([1, 2, 3], [1, 0, 1], z_cols=[[0.0, 0.1, 0.2]])
        with pytest.raises(InferenceError, match="1 of 4"):
            bootstrap_se(ds, B=4, seed=1, n_jobs=1)


def _fan_out_spy(calls):
    """``inference._fan_out``, recording each call's ``n_jobs`` in ``calls``."""
    fan_out = inference._fan_out

    def spy(replicate, tasks, n_jobs):
        calls.append(n_jobs)
        return fan_out(replicate, tasks, n_jobs)

    return spy


def _bootstrap_workers_in_a_worker(ds):
    """The worker count a bootstrap started inside a fan-out worker passes
    on to its own fan-out (the patch lives and dies with the worker)."""
    seen = []
    inference._fan_out = _fan_out_spy(seen)
    bootstrap_se(ds, method="mle", B=2, seed=1)
    return seen


class TestWorkers:
    """By default the refits fan out from a measured size up, with the same results."""

    BANDWIDTH = Bandwidth(np.array([0.2613]))

    @staticmethod
    def spy(monkeypatch):
        calls = []
        monkeypatch.setattr(inference, "_fan_out", _fan_out_spy(calls))
        return calls

    @staticmethod
    def m3(n):
        return generate(make_scenario("m3/s1/c1", n=n), DEFAULT_SEED, 0)

    def test_default_threshold_decides(self, monkeypatch):
        # Without a patched threshold, 16 refits at n = 1000 fan out and
        # 2 refits at n = 120 do not; nor do 2 refits at n = 1000, above the
        # threshold, since each worker needs 2 refits.
        calls = self.spy(monkeypatch)
        monkeypatch.setattr(inference, "_free_workers", lambda: 2)
        bootstrap_se(self.m3(1000), B=16, bandwidth=self.BANDWIDTH)
        bootstrap_se(self.m3(120), B=2, bandwidth=self.BANDWIDTH)
        assert 3 * 1000 >= inference._BOOT_FAN_OUT_SUBJECTS
        bootstrap_se(self.m3(1000), B=2, bandwidth=self.BANDWIDTH)
        assert calls == [2, 1, 1]

    @pytest.mark.parametrize("method", METHODS)
    def test_default_matches_serial(self, monkeypatch, method):
        ds = self.m3(120)
        assert 17 * ds.n >= inference._BOOT_FAN_OUT_SUBJECTS
        calls = self.spy(monkeypatch)
        monkeypatch.setattr(inference, "_free_workers", lambda: 2)
        fanned = bootstrap_se(ds, method=method, B=16, seed=5)
        assert multiprocessing.active_children() == []
        serial = bootstrap_se(ds, method=method, B=16, seed=5, n_jobs=1)
        assert calls == [2, 1]
        assert np.array_equal(fanned.estimates, serial.estimates)
        assert np.array_equal(fanned.se, serial.se)
        assert fanned.failures == serial.failures

    def test_no_second_fan_out_inside_a_worker(self, monkeypatch):
        monkeypatch.setattr(inference, "_BOOT_FAN_OUT_SUBJECTS", 0)
        assert _fan_out(_bootstrap_workers_in_a_worker, [self.m3(120)], 2) == [[1]]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_fewer_than_one_worker_is_typed(self, monkeypatch, n_jobs):
        # Refused before any fitting.
        def fit_cure_model(ds, method, **options):
            raise AssertionError("fitted before checking n_jobs")

        monkeypatch.setattr(inference, "fit_cure_model", fit_cure_model)
        with pytest.raises(ConfigurationError, match=f"n_jobs={n_jobs}"):
            bootstrap_se(self.m3(60), B=4, n_jobs=n_jobs)
        with pytest.raises(ConfigurationError, match=f"n_jobs={n_jobs}"):
            run_study(make_scenario("m1/s1/c1", n=60), reps=10, n_jobs=n_jobs)


class TestFitOptions:
    # Both methods share one option set; anything else is a typed error,
    # raised before any fitting, whichever entry point passes it on.
    @pytest.fixture(scope="class")
    def ds(self):
        return generate(make_scenario("m1/s1/c1", n=60), seed=5)

    @pytest.mark.parametrize(
        "method, options",
        [
            *((m, {"bogus": 1}) for m in METHODS),
            ("mle", {"grid": None}),
            ("wat", {}),
            ("presmooth", {"bandwidth_cap": 2.0}),
            ("mle", {"start": None}),
        ],
    )
    def test_fit_cure_model_rejects(self, ds, method, options):
        with pytest.raises(ConfigurationError):
            fit_cure_model(ds, method, **options)

    @pytest.mark.parametrize("method", METHODS)
    def test_fit_reports_its_method_name(self, ds, method):
        assert fit_cure_model(ds, method).method == method

    def test_bootstrap_rejects_unknown_option(self, ds):
        with pytest.raises(ConfigurationError):
            bootstrap_se(ds, B=2, bogus=1)

    def test_bandwidth_and_grid_are_exclusive(self, ds):
        # A fixed bandwidth runs no cross-validation, so a grid beside it would be ignored.
        with pytest.raises(ConfigurationError):
            fit_presmoothing(ds, bandwidth=Bandwidth(np.array([0.4])), grid=np.array([0.1, 0.5, 1.0]))

    def test_grid_needs_a_continuous_covariate(self):
        # An m3 draw cut to its discrete incidence covariates has no
        # bandwidth to select, so a grid is refused, not dropped.
        ds = generate(make_scenario("m3/s1/c1", n=120), seed=5)
        keep = [j for j, discrete in enumerate(ds.meta.discrete) if discrete]
        meta = CovariateMeta(tuple(ds.meta.names[j] for j in keep), (True,) * len(keep))
        cut = SurvivalDataset(ds.y, ds.delta, ds.x[:, [0, *(j + 1 for j in keep)]], ds.z, meta,
                              z_names=ds.z_names)
        assert cut.meta.n_continuous == 0 and len(keep) == 2
        with pytest.raises(ConfigurationError, match="continuous"):
            fit_presmoothing(cut, grid=np.array([0.1, 0.5]))
        assert fit_presmoothing(cut).bandwidth.size == 0

    @pytest.mark.parametrize("options", [{"tol": np.inf}, {"max_iter": 0}], ids=["tol-inf", "max_iter-zero"])
    def test_bad_stop_rule_never_reaches_the_bandwidth_scan(self, monkeypatch, ds, options):
        def cv_bandwidth(ds, grid=None):
            raise AssertionError("cross-validated before checking the stop rule")

        monkeypatch.setattr(pipeline, "cv_bandwidth", cv_bandwidth)
        with pytest.raises(ConfigurationError):
            fit_presmoothing(ds, **options)

    def test_stop_rule_reaches_the_latency_em(self, ds):
        assert fit_presmoothing(ds, max_iter=1).latency.iterations == 1
        assert fit_cure_model(ds, "presmooth", max_iter=1).latency.iterations == 1


@pytest.mark.parametrize("method", METHODS)
def test_fit_without_latency_covariates(method):
    # q = 0: the latency is the baseline hazard alone, with nothing to fit by Newton.
    ds = generate(make_scenario("m1/s1/c1", n=200), seed=1729)
    ds0 = SurvivalDataset(ds.y, ds.delta, ds.x, np.empty((ds.n, 0)), ds.meta)
    fit = fit_cure_model(ds0, method)
    assert fit.converged and fit.beta.shape == (0,)
    assert np.all(np.isfinite(fit.gamma)) and np.isfinite(fit.loglik)
    assert np.all(np.isfinite(fit.Lambda.values))


@pytest.mark.parametrize("key, n", [("m1/s1/c1", 100), ("m3/s2/c1", 150), ("m4/s1/c1", 120),
                                    ("demo/convergence", 60), ("demo/convergence", 100)])
def test_warm_refits_agree_with_cold_ones(key, n):
    # A refit started from the full-sample fit (as bootstrap_se starts its
    # presmoothing refits) converges, or fails, as the cold refit does, to
    # within 10 x the EM tolerance (1e-6 relative; 1.2e-8 measured here), and
    # takes no more EM passes in all; a single refit can take one or two more.
    cold_passes = warm_passes = 0
    for replication in range(2):
        ds = generate(make_scenario(key, n=n), DEFAULT_SEED, replication)
        full = fit_presmoothing(ds)
        bandwidth = Bandwidth(full.bandwidth)
        for r in range(6):
            resample = inference._counted(ds, resample_indices(1, r, ds.n_subjects))
            fits = []
            for start in (None, full.latency):
                try:
                    fits.append(fit_presmoothing(resample, bandwidth=bandwidth, start=start))
                except CureModelError:
                    fits.append(None)
            cold, warm = fits
            assert (cold is not None and cold.converged) == (warm is not None and warm.converged)
            if cold is None or warm is None:
                continue
            cold_passes += cold.latency.iterations
            warm_passes += warm.latency.iterations
            if cold.converged:
                a, b = np.concatenate([cold.gamma, cold.beta]), np.concatenate([warm.gamma, warm.beta])
                assert np.all(np.abs(a - b) <= 1e-6 * (1.0 + np.abs(a)))
    assert warm_passes <= cold_passes


@pytest.mark.slow
def test_bootstrap_se_brackets_sampling_sd():
    # B=200 presmoothing refits on one Model 1 draw: the bootstrap se of the
    # incidence slope should bracket the Monte Carlo sd implied by the
    # tabulated sampling variance 0.164.
    ds = generate(make_scenario("m1/s1/c1", n=200), seed=14)
    res = bootstrap_se(ds, method="presmooth", B=200, seed=14)
    target = math.sqrt(0.164)
    assert 0.6 * target <= res.se[1] <= 1.5 * target

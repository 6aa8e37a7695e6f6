import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from smoothcure import (
    Bandwidth,
    ConfigurationError,
    NumericalError,
    ParseError,
    SingularHessianError,
    StepFunction,
    SurvivalDataset,
    breslow_update,
    compute_weights,
    fit_latency,
    make_scenario,
    observed_loglik,
    prediction_error,
    profile_residual,
    weighted_partial_fit,
)

from smoothcure.latency_cox import _breslow_cumhaz, _partial_likelihood, _riskset_mass
from smoothcure.pipeline import METHODS, fit_cure_model
from smoothcure.simulate import generate

from conftest import build_dataset, random_dataset


class TestStepFunction:
    def test_right_continuous_evaluation(self):
        f = StepFunction(np.array([1.0, 2.0]), np.array([0.5, 1.25]))
        assert f(0.5) == 0.0
        assert f(1.0) == 0.5
        assert f(1.5) == 0.5
        assert f(2.0) == 1.25
        assert np.allclose(f(np.array([0.0, 1.0, 3.0])), [0.0, 0.5, 1.25])

    def test_jumps_and_lookup(self):
        f = StepFunction(np.array([1.0, 2.0]), np.array([0.5, 1.25]))
        assert np.allclose(f.jumps, [0.5, 0.75])
        assert f.jump_at(2.0) == pytest.approx(0.75)
        assert f.jump_at(1.7) == 0.0
        assert np.array_equal(f.jump_at(np.array([0.5, 1.0, 1.7, 2.0, 3.0])), [0.0, 0.5, 0.0, 0.75, 0.0])
        empty = StepFunction(np.empty(0), np.empty(0))
        assert empty.jump_at(1.0) == 0.0
        assert np.array_equal(empty.jump_at(np.array([0.0, 1.0])), [0.0, 0.0])

    def test_copies_writeable_input(self):
        times, values = np.array([1.0, 2.0]), np.array([0.5, 1.25])
        f = StepFunction(times, values)
        assert times.flags.writeable and values.flags.writeable
        times[0], values[0] = 0.0, 0.0
        assert f(1.0) == 0.5 and f.jump_at(1.0) == 0.5
        assert StepFunction(f.times, f.values).times is f.times

    def test_survival_variant(self):
        s = StepFunction(np.array([1.0, 3.0]), np.array([0.75, 0.375]), initial=1.0)
        assert s(0.0) == 1.0
        assert s(3.0) == 0.375

    def test_validation(self):
        with pytest.raises(ParseError):
            StepFunction(np.array([2.0, 1.0]), np.array([0.1, 0.2]))
        with pytest.raises(ParseError):
            StepFunction(np.array([1.0, 2.0]), np.array([0.5, 0.25]))  # not monotone from 0
        with pytest.raises(ParseError):
            StepFunction(np.array([1.0]), np.array([np.inf]))


class TestGFunction:
    """The expected susceptibility g(t) of one subject censored at t."""

    def setup_method(self):
        self.Lambda = StepFunction(np.array([1.0, 2.0]), np.array([0.4, 1.0]))
        self.gamma = np.array([0.0])

    @staticmethod
    def g(t, Lambda, gamma):
        # A dataset needs two subjects and an event, so an event row rides
        # along; weights are computed row by row.
        ds = build_dataset([t, t], [0, 1], z_cols=[[0.0, 0.0]])
        return float(compute_weights(ds, gamma, np.zeros(1), Lambda)[0])

    def test_zero_hazard_reduces_to_phi(self):
        # with S_u = 1 the posterior susceptibility equals phi itself
        assert self.g(0.5, self.Lambda, self.gamma) == 0.5
        sure = np.array([60.0])  # phi = 1 at double precision
        assert self.g(0.5, self.Lambda, sure) == 1.0

    def test_zero_tail_gives_zero(self):
        assert self.g(2.5, self.Lambda, self.gamma) == 0.0

    def test_direct_formula(self):
        # phi = 0.5 and Lambda(t) e^{beta'z} = 1
        Lam = StepFunction(np.array([1.0]), np.array([1.0]))
        g = self.g(1.0, Lam, self.gamma)
        assert g == pytest.approx(math.exp(-1) / (1 + math.exp(-1)), rel=1e-12)


class TestComputeWeights:
    def test_all_uncensored(self, rng):
        ds = build_dataset([1, 2, 3], [1, 1, 1], x_cols=[[0.1, 0.2, 0.3]], z_cols=[[0.0, 0.1, 0.2]])
        Lam = breslow_update(ds, np.ones(3), np.zeros(1))
        w = compute_weights(ds, np.array([0.3, 0.1]), np.zeros(1), Lam)
        assert np.allclose(w, 1.0)

    def test_zero_tail_weight(self):
        ds = build_dataset([1, 2, 5], [1, 1, 0], x_cols=[[0.1, 0.2, 0.3]], z_cols=[[0.0, 0.1, 0.2]])
        Lam = breslow_update(ds, np.ones(3), np.zeros(1))
        w = compute_weights(ds, np.array([0.0, 0.0]), np.zeros(1), Lam)
        assert w[2] == 0.0

    def test_zero_tail_starts_beyond_the_last_jump(self):
        # Lambda's last jump (2.5) is past the dataset's last event time (2):
        # a subject censored there is still at risk, one beyond it is cured.
        ds = build_dataset([1.0, 2.0, 2.5, 3.0], [1, 1, 0, 0], z_cols=[[0.0] * 4])
        Lam = StepFunction(np.array([1.0, 2.0, 2.5]), np.array([0.5, 1.0, 1.5]))
        w = compute_weights(ds, np.zeros(1), np.zeros(1), Lam)  # phi = 1/2
        s = math.exp(-1.5)
        assert w[2] == pytest.approx(s / (1.0 + s), rel=1e-12)
        assert w[3] == 0.0

    def test_direct_ratio(self):
        # phi = 0.8, S_u = 0.5 -> 0.4 / 0.6; censored time inside the support
        ds = build_dataset([1.0, 0.5], [1, 0], z_cols=[[0.0, 0.0]])
        lam_val = -math.log(0.5)
        Lam = StepFunction(np.array([0.2, 1.0]), np.array([lam_val, lam_val + 0.1]))
        gamma = np.array([math.log(4.0)])  # phi = 0.8
        w = compute_weights(ds, gamma, np.zeros(1), Lam)
        assert w[1] == pytest.approx((0.8 * 0.5) / (0.2 + 0.4), rel=1e-12)


def partial_loglik_oracle(ds, weights, beta):
    """Direct evaluation of the weight-adjusted partial likelihood."""
    total = 0.0
    for i in range(ds.n):
        if ds.delta[i] != 1:
            continue
        risk = sum(
            weights[k] * math.exp(float(ds.z[k] @ beta)) for k in range(ds.n) if ds.y[k] >= ds.y[i]
        )
        total += float(ds.z[i] @ beta) - math.log(risk)
    return total


@pytest.mark.parametrize("fn", [compute_weights, profile_residual])
def test_empty_cumulative_hazard_is_a_typed_error(fn):
    ds = generate(make_scenario("m1/s1/c1", 50), 1729)
    gamma, beta = np.zeros(ds.x.shape[1]), np.zeros(ds.q)
    empty = StepFunction(np.empty(0), np.empty(0))
    with pytest.raises(NumericalError, match="no jump times"):
        fn(ds, gamma, beta, empty)
    # The event term has no jump to read, so the likelihood stays a -inf sentinel.
    assert observed_loglik(ds, gamma, beta, empty) == -math.inf


class TestWeightedPartialFit:
    def test_matches_grid_oracle(self):
        ds = build_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 0],
                           z_cols=[[0.0, 1.0, 0.5, 1.5]])
        w = np.ones(4)
        fit = weighted_partial_fit(ds, w)
        grid = np.linspace(-4, 4, 4001)
        vals = [partial_loglik_oracle(ds, w, np.array([b])) for b in grid]
        coarse = grid[int(np.argmax(vals))]
        fine = np.linspace(coarse - 0.01, coarse + 0.01, 2001)
        vals = [partial_loglik_oracle(ds, w, np.array([b])) for b in fine]
        assert fit.x[0] == pytest.approx(fine[int(np.argmax(vals))], abs=1e-5)
        assert fit.converged

    def test_weighted_matches_oracle(self, rng):
        ds = random_dataset(rng, n=12)
        w = np.where(ds.delta == 1, 1.0, rng.uniform(0.2, 1.0, 12))
        fit = weighted_partial_fit(ds, w)
        grid = np.linspace(fit.x[0] - 0.02, fit.x[0] + 0.02, 4001)
        vals = [partial_loglik_oracle(ds, w, np.array([b])) for b in grid]
        assert abs(grid[int(np.argmax(vals))] - fit.x[0]) < 2e-5

    def test_zero_mass_risk_set_raises(self):
        # z varies, so the rank check passes; the last event's risk set has weight 0.
        ds = build_dataset([1.0, 2.0, 3.0], [0, 0, 1], z_cols=[[0.0, 1.0, 0.5]])
        with pytest.raises(NumericalError, match="event time 3"):
            weighted_partial_fit(ds, np.array([1.0, 1.0, 0.0]))

    def test_constant_z_rejected(self):
        ds = build_dataset([1, 2, 3], [1, 1, 0], z_cols=[[0.0, 0.0, 0.0]])
        with pytest.raises(SingularHessianError):
            weighted_partial_fit(ds, np.ones(3))

    def test_weight_scaling_invariance(self, rng):
        ds = random_dataset(rng, n=15)
        w = np.where(ds.delta == 1, 1.0, rng.uniform(0.1, 1.0, 15))
        a = weighted_partial_fit(ds, w)
        b = weighted_partial_fit(ds, 3.7 * w)
        assert np.allclose(a.x, b.x, atol=1e-9)

    def test_score_matches_finite_differences(self, rng):
        for _ in range(5):
            ds = random_dataset(rng, n=14, q=2)
            w = np.where(ds.delta == 1, 1.0, rng.uniform(0.1, 1.0, 14))
            beta = rng.normal(0.0, 0.5, 2)
            t = ds._time_order
            score = _partial_likelihood(t, w[t.order])[1](beta)[0]
            h = 1e-5
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (
                    partial_loglik_oracle(ds, w, beta + e) - partial_loglik_oracle(ds, w, beta - e)
                ) / (2 * h)
                assert fd == pytest.approx(score[j], rel=1e-5, abs=1e-7)


class TestBreslowUpdate:
    def test_nelson_aalen_reduction(self):
        ds = build_dataset([1, 2, 3, 4], [1, 1, 1, 1], z_cols=[[0.0, 0.0, 0.0, 0.0]])
        # constant z is fine here; only the partial fit needs variation
        Lam = breslow_update(ds, np.ones(4), np.zeros(1))
        assert np.allclose(Lam.jumps, [1 / 4, 1 / 3, 1 / 2, 1.0])

    def test_two_subject_hand_case(self):
        ds = build_dataset([1.0, 2.0], [1, 0], z_cols=[[0.0, 0.0]])
        Lam = breslow_update(ds, np.array([1.0, 0.5]), np.zeros(1))
        assert Lam.values[0] == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_risk_scaling_halves_jumps(self, rng):
        ds = random_dataset(rng, n=10)
        w = np.ones(10)
        base = breslow_update(ds, w, np.zeros(1))
        shifted = breslow_update(ds, w, np.array([math.log(2.0) / np.std(ds.z[:, 0])]))
        # doubling every e^{beta'z} (via weights) halves every jump
        doubled = breslow_update(ds, 2.0 * w, np.zeros(1))
        assert np.allclose(doubled.jumps, base.jumps / 2.0, atol=1e-14)
        assert shifted.times.shape == base.times.shape

    def test_zero_mass_risk_set_raises(self):
        ds = build_dataset([1.0, 2.0, 3.0], [0, 0, 1], z_cols=[[0.0, 0.0, 0.0]])
        with pytest.raises(NumericalError, match="3"):
            breslow_update(ds, np.array([1.0, 1.0, 0.0]), np.zeros(1))


class TestFitLatency:
    def test_no_censoring_is_single_pass(self, rng):
        n = 20
        ds = build_dataset(
            rng.exponential(1, n), np.ones(n, int),
            x_cols=[rng.normal(size=n)], z_cols=[rng.normal(size=n)],
        )
        lat = fit_latency(ds, np.array([0.4, 0.2]))
        cox = weighted_partial_fit(ds, np.ones(n))
        assert lat.converged
        assert np.allclose(lat.weights, 1.0)
        assert np.allclose(lat.beta, cox.x, atol=1e-8)

    def test_certain_susceptibility_matches_no_cure_fit(self, rng):
        ds = random_dataset(rng, n=30)
        gamma = np.array([50.0, 0.0])  # phi = 1 everywhere
        lat = fit_latency(ds, gamma)
        cox = weighted_partial_fit(ds, np.where(ds.y > lat.Lambda.times[-1], 0.0, 1.0))
        # censored beyond the last event still get weight zero by the tail rule
        assert np.allclose(lat.beta, cox.x, atol=1e-6)

    def test_fixed_point_residual_small(self, rng):
        ds = random_dataset(rng, n=40)
        lat = fit_latency(ds, np.array([0.6, 0.3]))
        assert lat.converged
        res = profile_residual(ds, np.array([0.6, 0.3]), lat.beta, lat.Lambda)
        assert res < 1e-6

    def test_weight_invariants(self, rng):
        ds = random_dataset(rng, n=25)
        lat = fit_latency(ds, np.array([0.2, -0.4]))
        assert np.all((lat.weights >= 0) & (lat.weights <= 1))
        assert np.all(lat.weights[ds.delta == 1] == 1.0)
        plateau = (ds.delta == 0) & (ds.y > lat.Lambda.times[-1])
        assert np.all(lat.weights[plateau] == 0.0)

    def test_permutation_invariance(self, rng):
        ds = random_dataset(rng, n=18)
        perm = rng.permutation(18)
        a = fit_latency(ds, np.array([0.5, 0.1]))
        b = fit_latency(ds.take(perm), np.array([0.5, 0.1]))
        assert np.allclose(a.beta, b.beta, atol=1e-9)
        assert np.allclose(a.Lambda.values, b.Lambda.values, atol=1e-9)

    def test_em_objective_monotone(self, rng):
        ds = random_dataset(rng, n=30)
        gamma = np.array([0.5, 0.2])
        beta = weighted_partial_fit(ds, np.ones(30)).x
        Lam = breslow_update(ds, np.ones(30), beta)
        values = [observed_loglik(ds, gamma, beta, Lam)]
        for _ in range(25):
            w = compute_weights(ds, gamma, beta, Lam)
            beta = weighted_partial_fit(ds, w, init=beta).x
            Lam = breslow_update(ds, w, beta)
            values.append(observed_loglik(ds, gamma, beta, Lam))
        assert np.all(np.diff(values) >= -1e-10)


@pytest.fixture(scope="module")
def m3_fit():
    ds = generate(make_scenario("m3/s1/c1", n=300), 1729)
    return ds, fit_cure_model(ds, "presmooth", bandwidth=Bandwidth(np.array([0.3])))


@pytest.mark.parametrize(
    "entry,short",
    [(entry, short) for entry in ("compute_weights", "observed_loglik", "profile_residual", "prediction_error")
     for short in ("gamma", "beta")] + [("fit_latency", "gamma"), ("fit_latency", "beta")],
)
def test_coefficients_of_the_wrong_length_are_typed(m3_fit, entry, short):
    # One coefficient too few is a ConfigurationError that names the
    # vector, not numpy's matmul ValueError.
    ds, fit = m3_fit
    gamma = fit.gamma[:-1] if short == "gamma" else fit.gamma
    beta = fit.beta[:-1] if short == "beta" else fit.beta
    calls = {
        "compute_weights": lambda: compute_weights(ds, gamma, beta, fit.Lambda),
        "observed_loglik": lambda: observed_loglik(ds, gamma, beta, fit.Lambda),
        # A warm start's beta is checked as the dataset's own.
        "fit_latency": lambda: fit_latency(ds, gamma, start=replace(fit.latency, beta=beta)),
        "profile_residual": lambda: profile_residual(ds, gamma, beta, fit.Lambda),
        "prediction_error": lambda: prediction_error(replace(fit, gamma=gamma, beta=beta), ds),
    }
    with pytest.raises(ConfigurationError, match=f"{short} needs one entry per column"):
        calls[entry]()


@pytest.mark.parametrize(
    "options",
    [{"tol": np.inf}, {"tol": np.nan}, {"tol": -1.0}, {"tol": 0.0},
     {"max_iter": -3}, {"max_iter": 0}, {"max_iter": 2.5}],
    ids=["tol-inf", "tol-nan", "tol-negative", "tol-zero", "max-iter-negative", "max-iter-zero", "max-iter-fraction"],
)
@pytest.mark.parametrize("method", METHODS)
def test_em_stop_rule_it_cannot_honour_is_refused(method, options):
    # tol=inf would report convergence after one pass, tol=nan or -1 would
    # run every pass and then report failure, and max_iter=-3 would return
    # the start state: each is refused before the first pass.
    ds = generate(make_scenario("m1/s1/c1", n=300), 1729)
    extra = {"bandwidth": Bandwidth(np.array([0.5]))} if method == "presmooth" else {}
    with pytest.raises(ConfigurationError, match="tol" if "tol" in options else "max_iter"):
        fit_cure_model(ds, method, **extra, **options)


class TestProfileResidual:
    def test_exact_fixed_point_is_zero(self, rng):
        ds = random_dataset(rng, n=20)
        gamma = np.array([0.3, 0.2])
        beta = weighted_partial_fit(ds, np.ones(20)).x
        Lam = breslow_update(ds, np.ones(20), beta)
        for _ in range(400):
            w = compute_weights(ds, gamma, beta, Lam)
            new = breslow_update(ds, w, beta)
            if np.max(np.abs(new.values - Lam.values)) < 1e-15:
                Lam = new
                break
            Lam = new
        assert profile_residual(ds, gamma, beta, Lam) < 1e-12

    def test_perturbed_jump_detected(self, rng):
        ds = random_dataset(rng, n=20)
        gamma = np.array([0.3, 0.2])
        lat = fit_latency(ds, gamma)
        jumps = np.array(lat.Lambda.jumps)
        jumps[0] += 0.1
        bumped = StepFunction(lat.Lambda.times, np.cumsum(jumps))
        assert profile_residual(ds, gamma, lat.beta, bumped) > 0.01


def location_shifted_draw(shift):
    """Replication 2 of ``m1/s1/c1`` (n=200, seed 1729) and the same draw with
    ``shift`` added to z, which leaves the Cox model unchanged in exact
    arithmetic."""
    ds = generate(make_scenario("m1/s1/c1", n=200), 1729, 2)
    return ds, SurvivalDataset(ds.y, ds.delta, ds.x, ds.z + shift, ds.meta, z_names=ds.z_names)


class TestLocationShiftedLatencyCovariate:
    def test_not_a_number_mass_is_a_typed_error(self):
        # An overflowed e^{beta'z} at a plateau subject, whose weight is 0,
        # gives a NaN risk weight and so a NaN mass at every event time.
        ds = generate(make_scenario("m1/s1/c1", n=200), 1729, 2)
        t = ds._time_order
        risk = np.ones(ds.n)
        risk[np.flatnonzero(t.plateau)[0]] = np.inf
        with np.errstate(invalid="ignore"):
            r = np.where(t.plateau, 0.0, 1.0) * risk
        with pytest.raises(NumericalError, match="mass nan"):
            _riskset_mass(t, r)
        with pytest.raises(NumericalError):
            _breslow_cumhaz(t, r)

    @pytest.mark.xfail(
        strict=True,
        raises=(NumericalError, RuntimeWarning),
        reason="the exponentials of the linear predictor are unshifted in em_iterates's risk, "
        "breslow_update, compute_weights and _loglik, so e^{beta'z} overflows at z + 720",
    )
    @pytest.mark.parametrize("method", METHODS)
    def test_location_shift_leaves_the_fit(self, method):
        ds, shifted = location_shifted_draw(720.0)
        base = fit_cure_model(ds, method)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_cure_model(shifted, method)
        assert (fit.converged, fit.latency.converged) == (base.converged, base.latency.converged)
        assert np.allclose(fit.beta, base.beta, rtol=0.0, atol=1e-6)

import math

import numpy as np
import pytest

import smoothcure.mle_baseline as mle_baseline
from smoothcure import (
    CureModelError,
    SingularHessianError,
    StepFunction,
    breslow_update,
    compute_weights,
    fit_incidence,
    fit_mle_em,
    make_scenario,
    observed_loglik,
    weighted_partial_fit,
)
from smoothcure.simulate import generate

from conftest import build_dataset, random_dataset


class TestObservedLoglik:
    def test_single_event_hand_value(self):
        # two events with unit jump at their time, beta = 0 and phi = 1/2:
        # each contributes log(1/2) + log(1) + 0 - 1
        ds = build_dataset([1.0, 1.0], [1, 1], z_cols=[[0.0, 0.0]])
        Lam = StepFunction(np.array([1.0]), np.array([1.0]))
        value = observed_loglik(ds, np.array([0.0]), np.zeros(1), Lam)
        assert value == pytest.approx(-1.0 + math.log(0.5), abs=1e-12)

    def test_censored_past_plateau(self):
        ds = build_dataset([1.0, 5.0], [1, 0], z_cols=[[0.0, 0.0]])
        Lam = breslow_update(ds, np.ones(2), np.zeros(1))
        gamma = np.array([math.log(0.3 / 0.7)])  # phi = 0.3
        value = observed_loglik(ds, gamma, np.zeros(1), Lam)
        # event: log phi + log jump - Lambda(1); censored beyond the last
        # jump: log(1 - phi)
        event_term = math.log(0.3) + math.log(Lam.jump_at(1.0)) - Lam(1.0)
        assert value == pytest.approx((event_term + math.log(0.7)) / 2, rel=1e-10)

    def test_zero_tail_starts_beyond_the_last_jump(self):
        # Lambda's last jump (2.5) is past the dataset's last event time (2):
        # censored at 2.5 gives log(1 - phi + phi S_u), beyond it log(1 - phi).
        ds = build_dataset([1.0, 2.0, 2.5, 3.0], [1, 1, 0, 0], z_cols=[[0.0] * 4])
        Lam = StepFunction(np.array([1.0, 2.0, 2.5]), np.array([0.5, 1.0, 1.5]))
        value = observed_loglik(ds, np.zeros(1), np.zeros(1), Lam)  # phi = 1/2
        half = math.log(0.5)
        events = (half + half - 0.5) + (half + half - 1.0)
        censored = math.log(0.5 * (1.0 + math.exp(-1.5))) + half
        assert value == pytest.approx((events + censored) / 4, rel=1e-12)

    def test_zero_jump_sentinel(self):
        ds = build_dataset([1.0, 2.0], [1, 1], z_cols=[[0.0, 0.0]])
        Lam = StepFunction(np.array([2.0]), np.array([1.0]))  # no jump at t=1
        assert observed_loglik(ds, np.zeros(1), np.zeros(1), Lam) == -np.inf
        empty = StepFunction(np.empty(0), np.empty(0))  # no jump at all
        assert observed_loglik(ds, np.zeros(1), np.zeros(1), empty) == -np.inf


class TestFitMleEm:
    def test_monotone_loglik_on_model1_draw(self):
        ds = generate(make_scenario("m1/s1/c1", n=400), seed=31)
        fit = fit_mle_em(ds)
        assert fit.converged
        assert np.all(np.diff(fit.loglik_path) >= -1e-10)
        assert fit.loglik == pytest.approx(fit.loglik_path[-1])

    def test_no_censoring_flags_nonconvergence(self, rng):
        n = 40
        ds = build_dataset(
            rng.exponential(1, n), np.ones(n, int),
            x_cols=[rng.normal(size=n)], z_cols=[rng.normal(size=n)],
        )
        fit = fit_mle_em(ds, max_iter=60)
        assert not fit.converged
        assert np.all(np.isfinite(fit.gamma))

    def test_loglik_never_falls_on_small_samples(self):
        # Small samples drive the incidence far out, where an EM step that
        # raises the likelihood through log phi alone is common.
        sce = make_scenario("demo/convergence")
        for r in range(40):
            path = fit_mle_em(generate(sce, seed=2024, replication=r)).loglik_path
            assert np.min(np.diff(path)) >= -1e-10, r

    def test_small_sample_failures_surface(self):
        sce = make_scenario("demo/convergence")
        flags = [fit_mle_em(generate(sce, seed=5, replication=r)).converged for r in range(25)]
        assert sum(not f for f in flags) > 0

    def test_frozen_weights_mstep_equals_latency_iteration(self, rng):
        ds = random_dataset(rng, n=35)
        gamma = np.array([0.4, 0.3])
        beta0 = weighted_partial_fit(ds, np.ones(35)).x
        Lam0 = breslow_update(ds, np.ones(35), beta0)
        w = compute_weights(ds, gamma, beta0, Lam0)
        # the shared code path makes the two updates bit-identical
        pf_a = weighted_partial_fit(ds, w, init=beta0)
        Lam_a = breslow_update(ds, w, pf_a.x)
        pf_b = weighted_partial_fit(ds, w, init=beta0)
        Lam_b = breslow_update(ds, w, pf_b.x)
        assert np.array_equal(pf_a.x, pf_b.x)
        assert np.array_equal(Lam_a.values, Lam_b.values)
        # and the incidence M-step with soft responses w is fit_incidence on 1-w
        inc = fit_incidence(1.0 - w, ds.x, init=gamma)
        assert inc.converged

    def test_incidence_rank_checked_every_pass(self, monkeypatch):
        # The start fit and every pass's refit are one fit_incidence call
        # each, and every call checks the rank of ds.x.
        ds = generate(make_scenario("m1/s1/c1", n=200), seed=31)
        real_rank, real_fit = np.linalg.matrix_rank, mle_baseline.fit_incidence
        checks, fits = [0], []

        def counted_rank(a, *args, **kwargs):
            checks[0] += a is ds.x
            return real_rank(a, *args, **kwargs)

        def counted_fit(*args, **kwargs):
            before = checks[0]
            out = real_fit(*args, **kwargs)
            fits.append(checks[0] - before)
            return out

        monkeypatch.setattr(np.linalg, "matrix_rank", counted_rank)
        monkeypatch.setattr(mle_baseline, "fit_incidence", counted_fit)
        fit = fit_mle_em(ds)
        assert fit.iterations > 1 and fits == [1] * (fit.iterations + 1)

    def test_rank_deficient_incidence_rejected(self, rng):
        n = 20
        ds = build_dataset(rng.exponential(1.0, n), np.ones(n, int),
                           x_cols=[np.full(n, 2.0)], z_cols=[rng.normal(size=n)])
        with pytest.raises(SingularHessianError):
            fit_mle_em(ds)

    def test_permutation_invariance(self, rng):
        ds = random_dataset(rng, n=30)
        perm = rng.permutation(30)
        a = fit_mle_em(ds)
        b = fit_mle_em(ds.take(perm))
        assert np.allclose(a.gamma, b.gamma, atol=1e-8)
        assert np.allclose(a.beta, b.beta, atol=1e-8)

    def test_runaway_incidence_ends_finite_or_typed(self):
        # gamma drifts to about 1e3 on this draw; the incidence Newton system
        # then solves to a NaN direction, which must not be taken as a step.
        ds = generate(make_scenario("demo/convergence"), 10006, 6)
        try:
            fit = fit_mle_em(ds)
        except CureModelError:
            return
        assert not fit.converged
        assert np.all(np.isfinite(fit.gamma)) and np.all(np.isfinite(fit.beta))
        assert np.all(np.isfinite(fit.Lambda.values)) and np.isfinite(fit.loglik)

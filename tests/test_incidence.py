import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothcure
from smoothcure import CureModelError, ParseError, SingularHessianError, fit_incidence
from smoothcure.incidence import LINPRED_SATURATION, TOL, _soft_label, expit


def soft_label_loglik(gamma, pihat, x):
    return _soft_label(pihat, x)[0](gamma)


def soft_label_score(gamma, pihat, x):
    return _soft_label(pihat, x)[1](gamma)[0]


def soft_label_hessian(gamma, pihat, x):
    return -_soft_label(pihat, x)[1](gamma)[1]()


X8 = np.column_stack([np.ones(8), np.linspace(-1.0, 1.0, 8)])
PIHAT8 = np.full(8, 0.4)


def with_entry(a, i, value):
    """A float copy of ``a`` with flat entry i set to ``value``."""
    a = np.array(a, dtype=float)
    a.flat[i] = value
    return a


def random_design(rng, n=40, p=2):
    return np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p - 1)])


class TestLogisticPhi:
    def test_zero_gamma_is_half(self, rng):
        x = random_design(rng, n=6, p=3)
        assert np.allclose(expit(x @ np.zeros(3)), 0.5)

    def test_log_three(self):
        assert expit(math.log(3.0)) == pytest.approx(0.75)

    def test_extreme_linear_predictor_stable(self):
        x = np.array([[1.0]])
        ll = soft_label_loglik(np.array([-1000.0]), np.array([0.0]), x)
        assert ll == pytest.approx(-1000.0)
        assert 0.0 < expit(-50.0) < 1e-20


    def test_expit_saturates_without_warning(self):
        eta = np.array([-1e308, -800.0, -745.0, -40.0, 0.0, 1.5, 40.0, 800.0, np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = expit(eta)
        assert phi[0] == phi[1] == phi[2] == phi[-1] == 0.0
        assert phi[4] == 0.5 and phi[6] == phi[7] == phi[8] == 1.0
        assert phi[3] == pytest.approx(math.exp(-40.0), rel=1e-15)
        assert phi[5] == pytest.approx(1.0 / (1.0 + math.exp(-1.5)), rel=1e-15)


def test_import_leaves_scipy_out():
    # scipy is a test dependency only: the package must import without it.
    src = str(Path(smoothcure.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, smoothcure; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestSoftLabelLoglik:
    def test_symmetric_case(self, rng):
        x = random_design(rng, n=9)
        assert soft_label_loglik(np.zeros(2), np.full(9, 0.5), x) == pytest.approx(9 * math.log(0.5))

    def test_score_vanishes_at_matching_labels(self, rng):
        x = random_design(rng, n=12)
        gamma = np.array([0.3, -0.8])
        pihat = 1.0 - expit(x @ gamma)
        assert np.max(np.abs(soft_label_score(gamma, pihat, x))) < 1e-12

    def test_three_point_against_fsum_oracle(self):
        x = np.array([[1.0, -0.4], [1.0, 0.2], [1.0, 1.1]])
        pihat = np.array([0.2, 0.7, 0.5])
        gamma = np.array([0.6, -1.2])
        terms = []
        for i in range(3):
            eta = gamma[0] * x[i, 0] + gamma[1] * x[i, 1]
            phi = 1.0 / (1.0 + math.exp(-eta))
            terms.append((1 - pihat[i]) * math.log(phi))
            terms.append(pihat[i] * math.log(1 - phi))
        assert soft_label_loglik(gamma, pihat, x) == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_hard_labels_allowed(self, rng):
        x = random_design(rng, n=8)
        pihat = np.array([0.0, 1.0] * 4)
        assert np.isfinite(soft_label_loglik(np.array([0.2, 0.1]), pihat, x))


def grid_refine_oracle(pihat, x, spans, rounds=9, points=31):
    """Derivative-free nested grid search over the soft-label objective."""
    centers = np.zeros(x.shape[1])
    widths = np.asarray(spans, dtype=float)
    for _ in range(rounds):
        axes = [np.linspace(c - w, c + w, points) for c, w in zip(centers, widths)]
        best, best_val = None, -np.inf
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = np.column_stack([m.ravel() for m in mesh])
        for gamma in flat:
            val = soft_label_loglik(gamma, pihat, x)
            if val > best_val:
                best, best_val = gamma, val
        centers = best
        widths = widths * (2.0 / (points - 1)) * 2.0
    return centers


class TestFitIncidence:
    def test_recovers_forced_maximizer(self, rng):
        x = random_design(rng, n=30)
        gamma_star = np.array([0.7, -1.1])
        pihat = 1.0 - expit(x @ gamma_star)
        fit = fit_incidence(pihat, x)
        assert fit.converged
        assert np.allclose(fit.x, gamma_star, atol=1e-8)

    def test_intercept_only_half_labels(self):
        x = np.ones((6, 1))
        fit = fit_incidence(np.full(6, 0.5), x)
        assert fit.converged
        assert fit.x[0] == pytest.approx(0.0, abs=1e-12)

    def test_six_point_grid_oracle(self):
        x = np.array([[1.0, -1.2], [1.0, -0.5], [1.0, 0.1], [1.0, 0.4], [1.0, 0.9], [1.0, 1.5]])
        pihat = np.array([0.9, 0.6, 0.55, 0.3, 0.2, 0.15])
        fit = fit_incidence(pihat, x)
        oracle = grid_refine_oracle(pihat, x, spans=[4.0, 4.0])
        assert fit.converged
        assert np.allclose(fit.x, oracle, atol=1e-6)

    def test_rank_deficient_design_rejected(self):
        x = np.column_stack([np.ones(8), np.full(8, 2.0), np.full(8, 4.0)])
        with pytest.raises(SingularHessianError):
            fit_incidence(np.full(8, 0.4), x)

    @pytest.mark.parametrize(
        "pihat,x,counts",
        [
            pytest.param(with_entry(PIHAT8, 2, np.nan), X8, None, id="nan-pihat"),
            pytest.param(with_entry(PIHAT8, 2, 1.5), X8, None, id="pihat-above-one"),
            pytest.param(PIHAT8[:7], X8, None, id="short-pihat"),
            pytest.param(PIHAT8, with_entry(X8, 5, np.nan), None, id="nan-x"),
            pytest.param(PIHAT8, with_entry(X8, 5, np.inf), None, id="inf-x"),
            pytest.param(PIHAT8, X8[None], None, id="3d-x"),
            pytest.param(PIHAT8, X8, np.zeros(8), id="zero-count"),
            pytest.param(PIHAT8, X8, np.full(8, 0.5), id="fractional-count"),
            pytest.param(PIHAT8[:1], X8[:1], np.array([-3]), id="negative-count"),
            pytest.param(PIHAT8, X8, np.ones(7), id="short-counts"),
        ],
    )
    def test_bad_input_rejected(self, pihat, x, counts):
        # The faults SurvivalDataset rejects are a ParseError here too: no
        # NaN fit, no raw LinAlgError or ValueError, no count of 0 or 0.5.
        with pytest.raises(ParseError):
            fit_incidence(pihat, x, counts=counts)

    def test_more_params_than_subjects_rejected(self, rng):
        x = random_design(rng, n=3, p=3)
        with pytest.raises(SingularHessianError):
            fit_incidence(np.full(3, 0.5), x)

    def test_max_iter_flagged(self, rng):
        x = random_design(rng, n=20)
        pihat = (x[:, 1] < 0).astype(float)  # perfectly separated labels
        fit = fit_incidence(pihat, x)
        assert not fit.converged

    def test_label_complement_negates_fit(self, rng):
        for _ in range(10):
            x = random_design(rng, n=25)
            pihat = rng.uniform(0.05, 0.95, 25)
            up = fit_incidence(pihat, x)
            down = fit_incidence(1.0 - pihat, x)
            assert up.converged and down.converged
            assert np.allclose(up.x, -down.x, atol=1e-8)

    def test_permutation_invariance(self, rng):
        x = random_design(rng, n=18)
        pihat = rng.uniform(0.0, 1.0, 18)
        perm = rng.permutation(18)
        a = fit_incidence(pihat, x)
        b = fit_incidence(pihat[perm], x[perm])
        assert np.allclose(a.x, b.x, atol=1e-10)

    def test_converged_state_is_stationary_and_concave(self, rng):
        for _ in range(5):
            x = random_design(rng, n=30)
            pihat = rng.uniform(0.1, 0.9, 30)
            fit = fit_incidence(pihat, x)
            assert fit.converged
            assert fit.score_norm < 1e-8
            eigs = np.linalg.eigvalsh(soft_label_hessian(fit.x, pihat, x))
            assert np.all(eigs < 0)


class TestDerivatives:
    def test_score_and_hessian_match_finite_differences(self, rng):
        h = 1e-5
        for _ in range(10):
            n = int(rng.integers(10, 40))
            x = random_design(rng, n=n)
            pihat = rng.uniform(0.0, 1.0, n)
            gamma = rng.normal(0.0, 0.8, 2)
            score = soft_label_score(gamma, pihat, x)
            hess = soft_label_hessian(gamma, pihat, x)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (soft_label_loglik(gamma + e, pihat, x) - soft_label_loglik(gamma - e, pihat, x)) / (2 * h)
                assert fd == pytest.approx(score[j], rel=1e-5, abs=1e-7)
                fd_row = (soft_label_score(gamma + e, pihat, x) - soft_label_score(gamma - e, pihat, x)) / (2 * h)
                assert np.allclose(fd_row, hess[j], rtol=1e-5, atol=1e-6)


@st.composite
def incidence_problems(draw):
    """(pihat, x): an intercept plus up to two tied columns at one scale,
    with uniform, hard, separated or constant labels."""
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3, 1e6, 1e9]))
    # Integers in tenths of the scale, so columns carry ties.
    cols = [np.ones(n)] + [
        np.asarray(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))) * (scale / 10)
        for _ in range(p - 1)
    ]
    x = np.column_stack(cols)
    kind = draw(st.sampled_from(["uniform", "hard", "separated", "constant"]))
    if kind == "uniform":
        pihat = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    elif kind == "hard":
        pihat = np.asarray(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    elif kind == "separated":
        pihat = (x[:, min(1, p - 1)] > 0.0).astype(float)
    else:
        pihat = np.full(n, draw(st.sampled_from([0.0, 0.5, 1.0])))
    return pihat, x


@settings(max_examples=200, deadline=None)
@given(incidence_problems())
def test_fit_contract_on_hostile_input(problem):
    # A typed error, or a finite result whose converged flag is honest: a
    # vanished score at an unsaturated linear predictor.  Underflow is left
    # unraised: log(phi) of a far-out linear predictor underflows in
    # logaddexp harmlessly.
    pihat, x = problem
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            res = fit_incidence(pihat, x)
        except CureModelError:
            return
    assert np.all(np.isfinite(res.x)) and np.isfinite(res.value) and np.isfinite(res.score_norm)
    if res.converged:
        assert res.score_norm < TOL
        assert np.max(np.abs(x @ res.x)) <= LINPRED_SATURATION

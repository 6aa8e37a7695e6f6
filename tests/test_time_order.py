"""The one follow-up-time order per dataset, checked against brute-force sums.

Every reader of the time order (risk-set sums, the partial likelihood and
its derivatives, the Breslow update, presmoothing, the bandwidth criterion
and the latency EM) is compared with a direct O(n^2) evaluation of its
definition, or with the public subject-order formula, on inputs where the
order is easy to get wrong: tie groups that mix events with censored
subjects, heavy ties and duplicated rows.
"""

from dataclasses import replace

import numpy as np
import pytest

from smoothcure import (
    Bandwidth,
    breslow_update,
    compute_weights,
    fit_latency,
    fit_mle_em,
    fit_presmoothing,
    make_scenario,
    observed_loglik,
    presmooth_all,
)
from smoothcure import latency_cox, mle_baseline
from smoothcure.kernels import cv_criterion
from smoothcure.latency_cox import _event_riskset_sums, _partial_likelihood
from smoothcure.simulate import generate

from conftest import build_dataset


def tie_cases():
    rng = np.random.default_rng(4242)
    cases = []
    # Every time holds a censored subject listed before an event.
    n = 30
    y = np.repeat(rng.exponential(1.0, n // 2).round(2), 2)
    delta = np.tile([0, 1], n // 2)
    cases.append(("mixed-ties", build_dataset(
        y, delta, x_cols=[rng.normal(size=n)], z_cols=[rng.normal(size=n)])))
    n = 40
    delta = (rng.random(n) < 0.5).astype(int)
    delta[0] = 1
    cases.append(("heavy-ties", build_dataset(
        rng.integers(1, 4, n).astype(float), delta,
        x_cols=[rng.normal(size=n)], z_cols=[rng.normal(size=n)])))
    n = 25
    delta = (rng.random(n) < 0.6).astype(int)
    delta[0] = 1
    base = build_dataset(rng.exponential(1.0, n).round(1), delta,
                         x_cols=[rng.normal(size=n)], z_cols=[rng.normal(size=n)])
    cases.append(("duplicated-rows", base.take(rng.integers(0, n, n))))
    return cases


CASES = tie_cases()
IDS = [name for name, _ in CASES]


def event_times(ds):
    return sorted(set(ds.y[ds.delta == 1].tolist()))


def riskset_oracle(ds, values):
    return np.array([np.sum(values[ds.y >= t], axis=0) for t in event_times(ds)])


def breslow_oracle(ds, w, beta):
    r = w * np.exp(ds.z @ beta)
    jumps = [np.sum((ds.y == t) & (ds.delta == 1)) / np.sum(r[ds.y >= t]) for t in event_times(ds)]
    return np.asarray(event_times(ds)), np.cumsum(jumps)


def presmooth_oracle(ds, h):
    out = np.empty(ds.n)
    for i in range(ds.n):
        u = (ds.x[:, 1] - ds.x[i, 1]) / h
        w = np.maximum(0.75 * (1.0 - u * u), 0.0) / h
        prob = 1.0
        for t in event_times(ds):
            at_risk = np.sum(w[ds.y >= t])
            if at_risk > 0.0:
                prob *= 1.0 - np.sum(w[(ds.y == t) & (ds.delta == 1)]) / at_risk
        out[i] = prob
    return out


def cv_oracle(ds, h):
    total = 0.0
    for i in range(ds.n):
        u = (ds.x[:, 1] - ds.x[i, 1]) / h
        w = np.exp(-0.5 * u * u)
        w[i] = 0.0
        if not np.sum(w) > 0.0:
            continue
        for t in event_times(ds):
            total += (float(ds.y[i] <= t) - np.sum(w[ds.y <= t]) / np.sum(w)) ** 2
    return total


@pytest.mark.parametrize("name,ds", CASES, ids=IDS)
class TestAgainstBruteForce:
    def test_riskset_sums(self, name, ds):
        values = np.column_stack([np.exp(ds.z[:, 0]), ds.z[:, 0], np.ones(ds.n)])
        t = ds._time_order
        got = _event_riskset_sums(t, values[t.order])
        np.testing.assert_allclose(got, riskset_oracle(ds, values), rtol=1e-12, atol=1e-12)
        got = _event_riskset_sums(t, values[t.order, 0])
        np.testing.assert_allclose(got, riskset_oracle(ds, values[:, 0]), rtol=1e-12)

    def test_breslow_update(self, name, ds):
        w = np.where(ds.delta == 1, 1.0, np.linspace(0.2, 0.9, ds.n))
        beta = np.array([0.4])
        lam = breslow_update(ds, w, beta)
        times, values = breslow_oracle(ds, w, beta)
        assert np.array_equal(lam.times, times)
        np.testing.assert_allclose(lam.values, values, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("h", [0.3, 1.5])
    def test_presmooth_all(self, name, ds, h):
        got = presmooth_all(ds, Bandwidth(np.array([h])))
        assert np.max(np.abs(got - presmooth_oracle(ds, h))) <= 1e-12

    @pytest.mark.parametrize("h", [0.3, 1.5])
    def test_cv_criterion(self, name, ds, h):
        assert cv_criterion(ds, Bandwidth(np.array([h]))) == pytest.approx(cv_oracle(ds, h), rel=1e-12, abs=0.0)

    def test_tie_groups_and_event_times(self, name, ds):
        t = ds._time_order
        y = ds.y[t.order]
        assert np.all(np.diff(y) >= 0.0)
        # events first within every tie
        assert np.all((np.diff(y) > 0.0) | (np.diff(ds.delta[t.order]) <= 0))
        assert np.array_equal(y[t.start], y) and np.all((t.start == 0) | (y[t.start - 1] < y))
        assert np.array_equal(t.event_times, event_times(ds))
        assert np.array_equal(t.event_counts, [np.sum((ds.y == v) & (ds.delta == 1)) for v in t.event_times])
        assert np.array_equal(y[t.event_first], t.event_times)
        assert np.array_equal(y[t.event_last], t.event_times)
        after = np.minimum(t.event_last + 1, ds.n - 1)
        assert np.all((t.event_last == ds.n - 1) | (y[after] > t.event_times))


def with_plateau(ds, seed):
    """The case with a second latency covariate and three censored subjects
    beyond its last event time (two of them tied), plus their weights: 1 for
    events, in (0.2, 1) for the other censored subjects and 0 in the plateau."""
    rng = np.random.default_rng(seed)
    n = ds.n + 3
    tail = ds.y[ds.delta == 1].max() + np.array([0.5, 0.5, 1.0])
    out = build_dataset(
        np.concatenate([ds.y, tail]), np.concatenate([ds.delta, [0, 0, 0]]),
        x_cols=[rng.normal(size=n)],
        z_cols=[np.concatenate([ds.z[:, 0], rng.normal(size=3)]), rng.normal(size=n)])
    w = np.where(out.delta == 1, 1.0, rng.uniform(0.2, 1.0, n))
    w[ds.n:] = 0.0
    return out, w


def partial_loglik_oracle(ds, w, beta):
    """Breslow log partial likelihood, one event at a time."""
    eta = ds.z @ beta
    total = 0.0
    for i in np.flatnonzero(ds.delta == 1):
        at_risk = ds.y >= ds.y[i]
        total += eta[i] - np.log(np.sum(w[at_risk] * np.exp(eta[at_risk])))
    return total


@pytest.mark.parametrize("name,ds", CASES, ids=IDS)
def test_partial_likelihood_derivatives(name, ds):
    # q = 2, so the off-diagonal information entries are checked too.
    ds, w = with_plateau(ds, seed=len(name))
    beta = np.array([0.4, -0.3])
    t = ds._time_order
    objective, derivatives = _partial_likelihood(t, w[t.order])
    assert objective(beta) == pytest.approx(partial_loglik_oracle(ds, w, beta), rel=1e-12)
    score, information = derivatives(beta)

    def loglik(step):
        return partial_loglik_oracle(ds, w, beta + step)

    h = 1e-4
    e = h * np.eye(2)
    fd_score = [(loglik(e[j]) - loglik(-e[j])) / (2 * h) for j in range(2)]
    fd_information = [
        [-(loglik(e[j] + e[k]) - loglik(e[j] - e[k]) - loglik(e[k] - e[j]) + loglik(-e[j] - e[k])) / (4 * h * h)
         for k in range(2)]
        for j in range(2)
    ]
    np.testing.assert_allclose(score, fd_score, rtol=1e-5)
    np.testing.assert_allclose(information(), fd_information, rtol=1e-5)


def em_cases():
    """The tie cases with plateau-censored subjects added, and one of them
    without latency covariates (q = 0)."""
    cases = [(f"{name}+plateau", with_plateau(ds, seed=len(name))[0]) for name, ds in CASES]
    ds = cases[1][1]
    cases.append(("q0", build_dataset(ds.y, ds.delta, x_cols=[ds.x[:, 1]])))
    return cases


EM_CASES = em_cases()


def recorded_states(monkeypatch, module):
    """Patch ``module.em_iterates`` so that every state it yields is kept."""
    states = []

    def recording(*args, _real=latency_cox.em_iterates, **kwargs):
        for state in _real(*args, **kwargs):
            states.append(state)
            yield state

    monkeypatch.setattr(module, "em_iterates", recording)
    return states


@pytest.mark.parametrize("method", ["fixed-gamma", "mle"])
@pytest.mark.parametrize("name,ds", EM_CASES, ids=[name for name, _ in EM_CASES])
def test_em_states_match_subject_order_formulas(monkeypatch, name, ds, method):
    # The EM runs in the time order; every state it yields must give the
    # weights of compute_weights (Lambda(Y) through StepFunction.__call__)
    # bit for bit, a Lambda that is the Breslow update of the previous
    # state's weights (all ones before the start) at the state's beta, and
    # the log-likelihood of observed_loglik up to the order of summation.
    if method == "fixed-gamma":
        states = recorded_states(monkeypatch, latency_cox)
        latency = fit_latency(ds, np.array([0.4, -0.6]))
    else:
        states = recorded_states(monkeypatch, mle_baseline)
        latency = fit_mle_em(ds).latency
    assert len(states) == latency.iterations + 1 >= 3
    previous = np.ones(ds.n)
    for state in states:
        weights = compute_weights(ds, state.gamma, state.beta, state.Lambda)
        assert np.array_equal(state.weights, weights)
        times, values = breslow_oracle(ds, previous, state.beta)
        assert np.array_equal(state.Lambda.times, times)
        np.testing.assert_allclose(state.Lambda.values, values, rtol=1e-12, atol=0.0)
        assert abs(state.loglik - observed_loglik(ds, state.gamma, state.beta, state.Lambda)) <= 1e-13
        previous = weights
    # The fit is the EM's final state, and its weights are in subject order:
    # 1 at every event, 0 beyond the last event time and strictly between
    # for the other censored.
    assert latency is states[-1]
    plateau = ds.y > ds.y[ds.delta == 1].max()
    assert np.all(latency.weights[ds.delta == 1] == 1.0)
    assert np.all(latency.weights[plateau] == 0.0) and np.sum(plateau) >= 3
    middle = latency.weights[(ds.delta == 0) & ~plateau]
    assert np.all((middle > 0.0) & (middle < 1.0))


def test_time_order_is_cached_and_read_only():
    ds = CASES[0][1]
    t = ds._time_order
    assert ds._time_order is t
    with pytest.raises(ValueError):
        t.order[0] = 1
    assert ds.take(np.arange(ds.n))._time_order is not t


@pytest.mark.parametrize("name,ds", CASES, ids=IDS)
def test_covariates_in_time_order(name, ds):
    t = ds._time_order
    assert np.array_equal(t.x, ds.x[t.order]) and np.array_equal(t.z, ds.z[t.order])
    for block in (t.x, t.z):
        with pytest.raises(ValueError):
            block[0, 0] = 2.0


def test_presmoothing_loglik_is_the_raw_datasets():
    # The fit reports its final state's log-likelihood, which reads the
    # standardized covariates; observed_loglik reads the raw ones with the
    # incidence mapped back.
    for key in ("m1/s1/c1", "m4/s2/c1"):
        ds = generate(make_scenario(key, n=150), seed=11)
        fit = fit_presmoothing(ds)
        assert fit.loglik == fit.latency.loglik
        expected = observed_loglik(ds, fit.gamma, fit.beta, fit.Lambda)
        assert fit.loglik == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_state_with_a_zero_jump_has_no_likelihood():
    ds = EM_CASES[0][1]
    state = fit_latency(ds, np.array([0.4, -0.6]))
    assert np.isfinite(state.loglik)
    cumhaz = np.array(state.cumhaz)
    cumhaz[1] = cumhaz[0]
    flat = replace(state, cumhaz=cumhaz)
    assert flat.loglik == -np.inf
    assert observed_loglik(ds, flat.gamma, flat.beta, flat.Lambda) == -np.inf


def test_presmoothing_fit_sorts_once(monkeypatch):
    # Standardization gives a new dataset; everything after it reads that
    # dataset's one time order.
    ds = generate(make_scenario("m1/s1/c1", n=120), seed=3)
    calls = []
    for name in ("argsort", "lexsort"):
        real = getattr(np, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    fit_presmoothing(ds, bandwidth=Bandwidth(np.array([0.5])))
    assert calls == ["lexsort"]

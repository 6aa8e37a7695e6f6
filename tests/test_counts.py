"""Counted datasets: a row with count c gives the estimates of c copies of it.

Every estimator stage weighs a row by its count, so each fit of a counted
dataset is checked against the fit of its expansion (each row repeated
count times) on inputs where the weighing is easy to get wrong: tie groups
that mix events with censored subjects, rows duplicated across tie groups,
plateau-censored rows with a count above 1 and a discrete cell of one row
with count 5.  Counted and expanded sums round differently, so values agree
within 1e-12 (1 + |expanded|); iterations, flags and failures agree exactly.
"""

import numpy as np
import pytest

from smoothcure import (
    Bandwidth,
    ConfigurationError,
    CureModelError,
    ParseError,
    SurvivalDataset,
    bootstrap_se,
    cv_bandwidth,
    fit_incidence,
    fit_latency,
    make_scenario,
    observed_loglik,
    plateau_fraction,
    prediction_error,
    presmooth_all,
    standardize_continuous,
    write_csv,
)
from smoothcure.inference import resample_indices
from smoothcure.pipeline import METHODS, fit_cure_model
from smoothcure.simulate import generate

from conftest import build_dataset
from test_time_order import CASES, with_plateau

RTOL = 1e-12


def close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= RTOL * (1.0 + np.abs(want))))


def counted(ds, counts):
    return SurvivalDataset(ds.y, ds.delta, ds.x, ds.z, ds.meta, ds.z_names, counts=counts)


def expanded(ds, counts):
    return ds.take(np.repeat(np.arange(ds.n), counts))


def one_row_cell():
    """A discrete cell that holds one row, counted 5 times, beside two larger cells."""
    rng = np.random.default_rng(5)
    n = 31
    level = np.repeat([0.0, 1.0, 2.0], [15, 15, 1])
    delta = (rng.random(n) < 0.6).astype(int)
    delta[[0, 15, 30]] = 1
    ds = build_dataset(rng.exponential(1.0, n).round(1), delta,
                       x_cols=[rng.normal(size=n), level], z_cols=[rng.normal(size=n)],
                       discrete=[False, True])
    counts = rng.integers(1, 4, n)
    counts[30] = 5
    return ds, counts


def count_cases():
    """(name, base dataset, counts): the time-order tie cases with plateau
    rows added (each plateau row counted 2 or 3 times), and the one-row cell.
    The duplicated-rows case repeats rows as rows, so one subject's data sits
    in several counted rows of one tie group."""
    rng = np.random.default_rng(2468)
    cases = []
    for name, ds in CASES:
        base = with_plateau(ds, seed=len(name))[0]
        counts = rng.integers(1, 5, base.n)
        plateau = base.y > base.y[base.delta == 1].max()
        counts[plateau] = rng.integers(2, 4, int(plateau.sum()))
        cases.append((name, base, counts))
    cases.append(("one-row-cell", *one_row_cell()))
    return cases


COUNT_CASES = count_cases()
COUNT_IDS = [name for name, _, _ in COUNT_CASES]


def options(ds, method):
    return {"bandwidth": Bandwidth(np.full(ds.meta.n_continuous, 0.8))} if method == "presmooth" else {}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name,base,counts", COUNT_CASES, ids=COUNT_IDS)
def test_counted_fit_is_the_expanded_fit(name, base, counts, method):
    got = fit_cure_model(counted(base, counts), method, **options(base, method))
    want = fit_cure_model(expanded(base, counts), method, **options(base, method))
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert close(got.gamma, want.gamma) and close(got.beta, want.beta)
    assert np.array_equal(got.Lambda.times, want.Lambda.times) and close(got.Lambda.values, want.Lambda.values)
    assert close(got.loglik, want.loglik)
    assert close(got.loglik_path if method == "mle" else got.latency.loglik,
                 want.loglik_path if method == "mle" else want.latency.loglik)


def assert_same_bootstrap(base, counts, method, B, seed):
    """The counted and the expanded bootstrap: the same failures and
    estimates, or the same error.  A counted row's subjects are its copies,
    drawn one by one, so both draw the same subjects for every replicate."""
    outcomes = []
    for ds in (counted(base, counts), expanded(base, counts)):
        try:
            outcomes.append(bootstrap_se(ds, method=method, B=B, seed=seed, n_jobs=1, **options(base, method)))
        except CureModelError as exc:
            outcomes.append(exc)
    got, want = outcomes
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got.failures == want.failures
        assert close(got.point, want.point) and close(got.estimates, want.estimates)
    return want


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name,base,counts", COUNT_CASES, ids=COUNT_IDS)
def test_counted_bootstrap_is_the_expanded_bootstrap(name, base, counts, method):
    assert_same_bootstrap(base, counts, method, B=6, seed=4)


@pytest.mark.parametrize("replication, outcome", [(0, 3), (4, 5), (3, "1 of 8 bootstrap refits converged")])
def test_counted_bootstrap_fails_where_the_expanded_one_does(replication, outcome):
    # Small joint-EM fits of demo/convergence: 3 of 8 refits fail on
    # replication 0 and 5 on replication 4; on replication 3, 7 fail, which
    # leaves too few to bootstrap.
    base = generate(make_scenario("demo/convergence", n=60), 1729, replication)
    counts = np.random.default_rng(replication).integers(1, 3, base.n)
    want = assert_same_bootstrap(base, counts, "mle", B=8, seed=1)
    if isinstance(outcome, int):
        assert want.failures == outcome
    else:
        assert outcome in str(want)


@pytest.mark.parametrize("name,base,counts", COUNT_CASES, ids=COUNT_IDS)
def test_stages_weigh_by_count(name, base, counts):
    ds, big = counted(base, counts), expanded(base, counts)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))  # each row's first copy
    assert ds.n == base.n and ds.n_subjects == big.n
    b = Bandwidth(np.full(base.meta.n_continuous, 0.8))
    assert close(presmooth_all(ds, b), presmooth_all(big, b)[first])
    std, big_std = standardize_continuous(ds), standardize_continuous(big)
    assert close(std.meta.means, big_std.meta.means) and close(std.meta.sds, big_std.meta.sds)
    pihat = presmooth_all(big, b)
    inc, big_inc = fit_incidence(ds, pihat[first]), fit_incidence(big, pihat)
    assert (inc.iterations, inc.converged) == (big_inc.iterations, big_inc.converged)
    assert close(inc.x, big_inc.x)
    gamma = np.linspace(0.4, -0.3, base.p)
    lat, big_lat = fit_latency(ds, gamma), fit_latency(big, gamma)
    assert (lat.iterations, lat.converged) == (big_lat.iterations, big_lat.converged)
    assert close(lat.beta, big_lat.beta) and close(lat.cumhaz, big_lat.cumhaz)
    assert close(lat.loglik, big_lat.loglik)
    assert close(observed_loglik(ds, gamma, lat.beta, lat.Lambda), observed_loglik(big, gamma, lat.beta, lat.Lambda))
    t, big_t = ds._time_order, big._time_order
    assert np.array_equal(t.event_counts, big_t.event_counts) and close(t.z_events, big_t.z_events)
    assert plateau_fraction(ds) == plateau_fraction(big)
    fit = fit_cure_model(big, "mle")
    assert close(prediction_error(fit, ds), prediction_error(fit, big))


def test_random_counted_datasets(rng):
    # Heavy ties in time and covariate, a discrete cell, counts up to 6.
    for _ in range(25):
        n = int(rng.integers(6, 30))
        delta = (rng.random(n) < 0.6).astype(int)
        delta[0] = 1
        base = build_dataset(rng.integers(1, 6, n).astype(float), delta,
                             x_cols=[rng.normal(size=n).round(1), rng.integers(0, 2, n).astype(float)],
                             z_cols=[rng.normal(size=n)], discrete=[False, True])
        counts = rng.integers(1, 7, n)
        ds, big = counted(base, counts), expanded(base, counts)
        first = np.concatenate(([0], np.cumsum(counts)[:-1]))
        for h in (0.3, 2.0):
            b = Bandwidth(np.array([h]))
            assert close(presmooth_all(ds, b), presmooth_all(big, b)[first])
        gamma = np.array([0.3, -0.5, 0.2])
        lat, big_lat = fit_latency(ds, gamma), fit_latency(big, gamma)
        assert (lat.iterations, lat.converged) == (big_lat.iterations, big_lat.converged)
        assert close(lat.beta, big_lat.beta) and close(lat.cumhaz, big_lat.cumhaz) and close(lat.loglik, big_lat.loglik)


def test_counted_cross_validation_scores_the_expansion():
    # A refit that selects its bandwidth scans the expansion: the same
    # leave-one-out rule, one subject left out at a time.
    ds = generate(make_scenario("m1/s1/c1", n=60), seed=8)
    for r in range(3):
        idx = resample_indices(21, r, ds.n)
        counts = np.bincount(idx, minlength=ds.n)
        rows = np.flatnonzero(counts)
        base = ds.take(rows)
        got = cv_bandwidth(standardize_continuous(counted(base, counts[rows])))
        want = cv_bandwidth(standardize_continuous(ds.take(idx)))
        assert np.array_equal(got.h, want.h)


def test_unit_counts_are_no_counts():
    base, counts = COUNT_CASES[0][1], np.ones(COUNT_CASES[0][1].n, dtype=int)
    ds = counted(base, counts)
    assert ds.n_subjects == base.n_subjects == base.n and base.counts is None
    assert np.array_equal(presmooth_all(ds, Bandwidth(np.array([0.5]))), presmooth_all(base, Bandwidth(np.array([0.5]))))
    got, want = fit_cure_model(ds, "mle"), fit_cure_model(base, "mle")
    assert close(got.gamma, want.gamma) and got.iterations == want.iterations


def test_take_keeps_counts():
    name, base, counts = COUNT_CASES[0]
    ds = counted(base, counts)
    sub = ds.take([3, 3, 0])
    assert sub.counts.tolist() == [counts[3], counts[3], counts[0]]
    assert base.take([3, 0]).counts is None


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(lambda n: np.r_[0, np.ones(n - 1, dtype=int)], id="zero"),
        pytest.param(lambda n: np.r_[-2, np.ones(n - 1, dtype=int)], id="negative"),
        pytest.param(lambda n: np.r_[1.5, np.ones(n - 1)], id="non-integer"),
        pytest.param(lambda n: np.r_[np.nan, np.ones(n - 1)], id="nan"),
        pytest.param(lambda n: np.r_[np.inf, np.ones(n - 1)], id="inf"),
        pytest.param(lambda n: np.ones(n - 1, dtype=int), id="short"),
        pytest.param(lambda n: np.ones((n, 1), dtype=int), id="two-dimensional"),
        pytest.param(lambda n: np.array(["1"] * n), id="text"),
    ],
)
def test_bad_counts_are_typed(bad):
    base = COUNT_CASES[0][1]
    with pytest.raises(ParseError):
        counted(base, bad(base.n))


def test_counts_are_stored_read_only():
    name, base, counts = COUNT_CASES[0]
    mine = np.array(counts, dtype=float)
    ds = counted(base, mine)
    mine[0] = 99.0
    assert ds.counts.dtype == np.int64 and ds.counts[0] == counts[0]
    with pytest.raises(ValueError):
        ds.counts[0] = 2


def test_write_csv_refuses_counts(tmp_path):
    name, base, counts = COUNT_CASES[0]
    with pytest.raises(ConfigurationError):
        write_csv(counted(base, counts), tmp_path / "counted.csv")
    assert not (tmp_path / "counted.csv").exists()

import math

import numpy as np
import pytest

from smoothcure import (
    Bandwidth,
    ConfigurationError,
    EmptyNeighborhoodError,
    estimate_cure_prob,
    kaplan_meier,
    presmooth_all,
)
from smoothcure import SurvivalDataset, generate, make_scenario, presmoother, resample_indices, standardize_continuous
from smoothcure.kernels import _continuous_weights, kernel_weight_matrix
from smoothcure.simulate import DEFAULT_SEED, SCENARIOS

from conftest import build_dataset, hostile_kernel_cases, random_dataset

WIDE = Bandwidth(np.array([1000.0]))


def direct_masses(w, ds):
    """Event and at-risk masses from the n x T indicator tables (the oracle)."""
    times = np.unique(ds.y[ds.delta == 1])
    event_mask = ((ds.y[:, None] == times[None, :]) & (ds.delta[:, None] == 1)).astype(float)
    risk_mask = (ds.y[:, None] >= times[None, :]).astype(float)
    return times, w @ event_mask, w @ risk_mask


def direct_presmooth(ds, b):
    """The n x T formula presmooth_all replaced, kept as an oracle."""
    w = kernel_weight_matrix(ds.x, ds.x, b, ds.meta)
    w = w / w.sum(axis=1)[:, None]
    _, h1, at_risk = direct_masses(w, ds)
    with np.errstate(invalid="ignore", divide="ignore"):
        factors = np.where(at_risk > 0.0, 1.0 - h1 / np.where(at_risk > 0.0, at_risk, 1.0), 1.0)
    return np.clip(np.prod(np.clip(factors, 0.0, 1.0), axis=1), 0.0, 1.0)


def dense_cure_probs(ds, x_query, b):
    """Presmoothing over every column of each query row's cell, the code
    that the support restriction replaced, kept as an oracle: the same
    weights, running sums and products, with no column dropped."""
    cont = ds.meta.continuous_columns()
    t = ds._time_order
    cell_of = ds._cells.of(x_query[:, ds.meta.discrete_columns()])
    out = np.empty(x_query.shape[0])
    for k, positions in enumerate(ds._cells.positions):
        rows, data = np.flatnonzero(cell_of == k), positions[::-1]
        w = _continuous_weights(x_query[rows][:, cont], t.x[data][:, cont], b.h)
        if ds.counts is not None:
            w *= t.mass[data]
        at_risk = np.cumsum(w, axis=1)
        np.divide(w, at_risk, out=w, where=at_risk > 0.0)
        out[rows] = np.prod(1.0 - w, axis=1, where=t.event[data])
    return out


def counted_resample(ds, seed, r):
    idx = resample_indices(seed, r, ds.n)
    counts = np.bincount(idx, minlength=ds.n)
    rows = np.flatnonzero(counts)
    sub = ds.take(rows)
    return SurvivalDataset(sub.y, sub.delta, sub.x, sub.z, sub.meta, sub.z_names, counts=counts[rows])


class TestSupport:
    """Presmoothing forms only the pairs inside the kernel's support, and
    gives the estimates of every pair bit for bit."""

    @pytest.mark.parametrize("h", [0.3, 1.0])
    @pytest.mark.parametrize("key", sorted(SCENARIOS))
    def test_registry_and_resamples_match_the_dense_oracle(self, key, h):
        ds = generate(make_scenario(key), DEFAULT_SEED, 0)
        b = Bandwidth(np.full(ds.meta.n_continuous, h))
        draws = [ds, ds.take(resample_indices(7, 0, ds.n)), counted_resample(ds, 7, 1)]
        for draw in map(standardize_continuous, draws):
            assert np.array_equal(presmooth_all(draw, b), dense_cure_probs(draw, draw.x, b))
            assert np.array_equal(estimate_cure_prob(draw, draw.x[::3], b), dense_cure_probs(draw, draw.x[::3], b))

    @pytest.mark.parametrize("case", range(6))
    def test_hostile_cases_match_the_dense_oracle(self, rng, case):
        name, ds, values = hostile_kernel_cases(rng)[case]
        for h in values:
            b = Bandwidth(np.full(ds.meta.n_continuous, h))
            assert np.array_equal(presmooth_all(ds, b), dense_cure_probs(ds, ds.x, b)), (name, h)

    def test_points_on_and_just_inside_the_support_edge(self):
        # At h = 0.5 the point at 0.5 lies exactly h from the query at 0
        # (weight exactly 0), and the one a few ulps inside -0.5 carries a
        # weight near 1e-15 (h^-1 (3/4)(1 - u^2)); beyond them only points
        # far away.  So the query's estimate rests on that one event alone.
        inside = np.nextafter(np.nextafter(np.nextafter(-0.5, 0.0), 0.0), 0.0)
        x = np.array([0.5, inside, 3.0, 3.1, -3.0])
        ds = build_dataset([1.0, 2.0, 3.0, 1.5, 2.5], [1, 1, 0, 1, 0], x_cols=[x])
        b = Bandwidth(np.array([0.5]))
        weights = kernel_weight_matrix(np.array([[1.0, 0.0]]), ds.x, b, ds.meta)[0]
        assert weights[0] == 0.0 and 0.0 < weights[1] < 1e-14
        query = np.array([[1.0, 0.0], [1.0, 3.05]])
        assert estimate_cure_prob(ds, query[:1], b)[0] == 0.0
        assert np.array_equal(estimate_cure_prob(ds, query, b), dense_cure_probs(ds, query, b))
        assert np.array_equal(presmooth_all(ds, b), dense_cure_probs(ds, ds.x, b))
        # A query whose only neighbour in reach lies exactly h away has no
        # kernel mass.
        with pytest.raises(EmptyNeighborhoodError):
            estimate_cure_prob(ds, np.array([[1.0, 1.0]]), b)

    @pytest.mark.parametrize("key", ["m1/s1/c1", "m3/s1/c1", "m4/s1/c1"])
    def test_shuffled_queries_give_the_permuted_values(self, key):
        # The query order is chosen inside the presmoother, so the order
        # the rows come in changes no bit, unit or counted.
        ds = generate(make_scenario(key, n=300), DEFAULT_SEED, 0)
        b = Bandwidth(np.full(ds.meta.n_continuous, 0.3))
        perm = np.random.default_rng(5).permutation(ds.n)
        for draw in map(standardize_continuous, [ds, counted_resample(ds, 7, 1)]):
            rows = perm[perm < draw.n]
            assert np.array_equal(estimate_cure_prob(draw, draw.x[rows], b), estimate_cure_prob(draw, draw.x, b)[rows])


class TestDirectFormulaOracle:
    @pytest.mark.parametrize("case", range(6))
    def test_presmooth_all(self, rng, case):
        name, ds, values = hostile_kernel_cases(rng)[case]
        for h in values:
            b = Bandwidth(np.full(ds.meta.n_continuous, h))
            got = presmooth_all(ds, b)
            assert np.max(np.abs(got - direct_presmooth(ds, b))) <= 1e-12, (name, h)

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("case", range(6))
    def test_presmooth_all_in_row_blocks(self, rng, monkeypatch, case, rows):
        # The weights are built a block of query rows at a time; blocks of 1
        # and of 7 rows (most cases end on a partial block) change nothing.
        name, ds, values = hostile_kernel_cases(rng)[case]
        monkeypatch.setattr(presmoother, "_BLOCK_ROWS", rows)
        for h in values:
            b = Bandwidth(np.full(ds.meta.n_continuous, h))
            got = presmooth_all(ds, b)
            assert np.max(np.abs(got - direct_presmooth(ds, b))) <= 1e-12, (name, h)

    @pytest.mark.parametrize("case", range(6))
    def test_estimate_cure_prob(self, rng, case):
        # Every third subject's row as an (m, p) query block.
        name, ds, values = hostile_kernel_cases(rng)[case]
        for h in values:
            b = Bandwidth(np.full(ds.meta.n_continuous, h))
            got = estimate_cure_prob(ds, ds.x[::3], b)
            assert got.shape == (len(range(0, ds.n, 3)),)
            assert np.max(np.abs(got - direct_presmooth(ds, b)[::3])) <= 1e-12, (name, h)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_cell_split_in_row_blocks(self, rng, monkeypatch, rows):
        # Each discrete cell's query rows run in blocks of exactly ``rows``
        # rows over that cell's subjects only.
        name, ds, values = hostile_kernel_cases(rng)[5]
        monkeypatch.setattr(presmoother, "_BLOCK_ROWS", rows)
        for h in values:
            b = Bandwidth(np.full(ds.meta.n_continuous, h))
            got = presmooth_all(ds, b)
            assert np.max(np.abs(got - direct_presmooth(ds, b))) <= 1e-12, (name, h)

    def test_every_tied_event_at_the_last_time(self):
        # The last event time has two tied events and a tied censored
        # subject: its factor is 1 - 2/3 under uniform weights.
        ds = build_dataset([1, 2, 2, 2], [1, 1, 0, 1], x_cols=[[0.0, 0.1, 0.2, 0.3]])
        expected = (1 - 1 / 4) * (1 - 2 / 3)
        assert np.allclose(presmooth_all(ds, WIDE), expected, atol=1e-15)


class TestEstimateCureProb:
    @pytest.mark.parametrize("width", [pytest.param(2, id="narrow"), pytest.param(6, id="wide")])
    def test_query_of_the_wrong_width_rejected(self, width):
        # m3 has four incidence columns, the intercept first: a narrower
        # query is not indexed past its end, a wider one's extra columns
        # are not ignored.
        ds = standardize_continuous(generate(make_scenario("m3/s1/c1", n=60), DEFAULT_SEED, 0))
        b = Bandwidth(np.full(ds.meta.n_continuous, 0.5))
        with pytest.raises(ConfigurationError, match="4 columns, the intercept first"):
            estimate_cure_prob(ds, np.ones((3, width)), b)

    def test_discrete_mismatch_raises(self):
        ds = build_dataset([1, 2, 3], [1, 1, 0], x_cols=[[0.0, 0.0, 1.0]], discrete=[True])
        query = np.array([[1.0, 2.0]])  # level matching nobody
        with pytest.raises(EmptyNeighborhoodError):
            estimate_cure_prob(ds, query, Bandwidth(np.empty(0)))

    def test_unseen_cell_raises(self, rng):
        # The middle query row has a discrete level that no subject has.
        name, ds, values = hostile_kernel_cases(rng)[5]
        b = Bandwidth(np.array([values[-1]]))
        query = np.array(ds.x[:3])
        assert np.all(np.isfinite(estimate_cure_prob(ds, query, b)))
        query[1, 2] = 9.0
        with pytest.raises(EmptyNeighborhoodError):
            estimate_cure_prob(ds, query, b)

    def test_hand_computed_weights(self):
        # Kernel values proportional to (4, 3, 2, 1): distances chosen so the
        # squared arguments are 0, 1/4, 1/2, 3/4 at unit bandwidth.  The event
        # masses at times 1 and 3 are 0.4 and 0.2, the at-risk masses 1 and 0.3.
        offsets = np.array([0.0, 0.5, math.sqrt(0.5), math.sqrt(0.75)])
        ds = build_dataset([1, 2, 3, 4], [1, 0, 1, 0], x_cols=[offsets])
        value = estimate_cure_prob(ds, ds.x[:1], Bandwidth(np.array([1.0])))[0]
        assert value == pytest.approx((1 - 0.4) * (1 - 0.2 / 0.3), abs=1e-12)

    def test_all_uncensored_gives_zero(self):
        ds = build_dataset([1, 2, 3, 4], [1, 1, 1, 1], x_cols=[[0.1, 0.2, 0.3, 0.4]])
        est = estimate_cure_prob(ds, ds.x[:1], WIDE)[0]
        assert est == 0.0

    def test_no_events_in_neighborhood_gives_one(self):
        # The queried discrete cell holds only censored subjects, so the
        # product over event times is empty there.
        ds = build_dataset(
            [1, 2, 3, 4], [1, 0, 0, 0],
            x_cols=[[0.0, 1.0, 1.0, 1.0]], discrete=[True],
        )
        est = estimate_cure_prob(ds, ds.x[1:2], Bandwidth(np.empty(0)))[0]
        assert est == 1.0

    def test_uniform_weights_equal_km_at_last_event(self):
        ds = build_dataset([1, 2, 3, 4], [1, 0, 1, 0], x_cols=[[0.5, 0.5, 0.5, 0.5]])
        est = estimate_cure_prob(ds, ds.x[:1], Bandwidth(np.array([1.0])))[0]
        assert est == pytest.approx(0.375, abs=1e-15)

    def test_km_equivalence_random(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 13))
            y = rng.exponential(1.0, n).round(3)
            delta = (rng.random(n) < 0.6).astype(int)
            if not delta.any():
                delta[0] = 1
            ds = build_dataset(y, delta, x_cols=[np.full(n, 0.3)])
            km = kaplan_meier(ds.y, ds.delta)
            expected = km(km.times[-1])
            est = estimate_cure_prob(ds, ds.x[:1], Bandwidth(np.array([1.0])))[0]
            assert est == pytest.approx(expected, abs=1e-12)

    def test_value_in_unit_interval(self, rng):
        for _ in range(20):
            ds = random_dataset(rng, n=15)
            i = int(rng.integers(15))
            v = estimate_cure_prob(ds, ds.x[i : i + 1], Bandwidth(np.array([0.5])))[0]
            assert 0.0 <= v <= 1.0


class TestPresmoothAll:
    def test_shape_and_agreement_with_single_queries(self, rng):
        ds = random_dataset(rng, n=14)
        b = Bandwidth(np.array([0.9]))
        vec = presmooth_all(ds, b)
        assert vec.shape == (14,)
        for i in range(14):
            assert vec[i] == pytest.approx(estimate_cure_prob(ds, ds.x[i : i + 1], b)[0], abs=1e-12)

    def test_censored_only_cell_gets_one(self):
        ds = build_dataset(
            [1, 2, 3, 4, 5], [1, 1, 0, 0, 0],
            x_cols=[[0.0, 0.0, 1.0, 1.0, 1.0]], discrete=[True],
        )
        vec = presmooth_all(ds, Bandwidth(np.empty(0)))
        assert np.allclose(vec[2:], 1.0)
        assert vec[0] < 1.0

    def test_permutation_equivariance(self, rng):
        ds = random_dataset(rng, n=11)
        b = Bandwidth(np.array([0.7]))
        perm = rng.permutation(11)
        ds2 = ds.take(perm)
        assert np.allclose(presmooth_all(ds, b)[perm], presmooth_all(ds2, b), atol=1e-12)

    def test_censoring_flip_cannot_decrease(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            ds = random_dataset(rng, n=10)
            if ds.delta.sum() < 2:
                continue
            b = Bandwidth(np.array([2.0]))
            before = presmooth_all(ds, b)
            # flip the largest uncensored observation to censored
            events = np.flatnonzero(ds.delta == 1)
            flip = events[np.argmax(ds.y[events])]
            delta2 = np.array(ds.delta)
            delta2[flip] = 0
            ds2 = build_dataset(ds.y, delta2, x_cols=[ds.x[:, 1]])
            after = presmooth_all(ds2, b)
            assert np.all(after >= before - 1e-12)

    def test_affine_rescaling_invariance(self, rng):
        ds = random_dataset(rng, n=12)
        b = Bandwidth(np.array([0.8]))
        a = 3.7
        ds2 = build_dataset(ds.y, ds.delta, x_cols=[a * ds.x[:, 1]])
        assert np.allclose(
            presmooth_all(ds, b), presmooth_all(ds2, Bandwidth(np.array([0.8 * a]))), atol=1e-12
        )

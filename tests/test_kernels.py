import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from smoothcure import (
    Bandwidth,
    ConfigurationError,
    cv_bandwidth,
    default_grid,
    standardize_continuous,
)
from smoothcure import fanout, kernels
from smoothcure.kernels import DEFAULT_CAP, cv_criterion, epanechnikov, kernel_weight_matrix
from smoothcure.simulate import DEFAULT_SEED, SCENARIOS, generate, make_scenario

from conftest import build_dataset, hostile_kernel_cases, random_dataset


class TestEpanechnikov:
    @pytest.mark.parametrize("u,expected", [(0.0, 0.75), (1.0, 0.0), (0.5, 0.5625), (-1.2, 0.0)])
    def test_values(self, u, expected):
        assert epanechnikov(u) == pytest.approx(expected, abs=1e-15)

    def test_integrates_to_one(self):
        total, _ = quad(epanechnikov, -1, 1)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-3, max_value=3))
    def test_symmetric(self, u):
        assert epanechnikov(u) == epanechnikov(-u)


class TestKernelWeight:
    """Single entries of kernel_weight_matrix: W[i, j] is data row j at query row i."""

    def setup_method(self):
        self.ds = build_dataset(
            [1, 2, 3], [1, 1, 0],
            x_cols=[[0.0, 0.5, 1.0], [1.0, 0.0, 1.0]],
            discrete=[False, True],
        )

    def test_same_point_unit_bandwidth(self):
        ds = build_dataset([1, 2], [1, 0], x_cols=[[0.3, 0.9]])
        w = kernel_weight_matrix(ds.x[:1], ds.x[:1], Bandwidth(np.array([1.0])), ds.meta)
        assert w.shape == (1, 1)
        assert w[0, 0] == pytest.approx(0.75)

    def test_discrete_mismatch_annihilates(self):
        w = kernel_weight_matrix(self.ds.x[1:2], self.ds.x[:1], Bandwidth(np.array([1.0])), self.ds.meta)
        assert w[0, 0] == 0.0

    def test_support_edge(self):
        ds = build_dataset([1, 2], [1, 0], x_cols=[[0.0, 0.5]])
        w = kernel_weight_matrix(ds.x[:1], ds.x[1:], Bandwidth(np.array([0.5])), ds.meta)
        assert w[0, 0] == 0.0

    def test_symmetry(self, rng):
        ds = random_dataset(rng, n=8)
        w = kernel_weight_matrix(ds.x, ds.x, Bandwidth(np.array([0.7])), ds.meta)
        for i, j in itertools.combinations(range(8), 2):
            assert w[j, i] == pytest.approx(w[i, j], rel=1e-14)

    @given(st.floats(min_value=0.1, max_value=8.0))
    @settings(max_examples=30, deadline=None)
    def test_affine_rescaling(self, a):
        meta = build_dataset([1, 2], [1, 0], x_cols=[[0.3, 0.9]]).meta
        xi = np.array([[1.0, 0.9]])
        x = np.array([[1.0, 0.3]])
        base = kernel_weight_matrix(x, xi, Bandwidth(np.array([0.8])), meta)[0, 0]
        scaled = kernel_weight_matrix(
            x * [1.0, a], xi * [1.0, a], Bandwidth(np.array([0.8 * a])), meta
        )[0, 0]
        assert scaled == pytest.approx(base / a, rel=1e-12)

    def test_bandwidth_copies_writeable_input(self):
        h = np.array([0.5, 1.5])
        b = Bandwidth(h)
        assert h.flags.writeable
        h[0] = 9.0
        assert b.h[0] == 0.5
        assert Bandwidth(b.h).h is b.h

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Bandwidth(np.array([0.0]))

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (1, 1, 1)])
    def test_bandwidth_must_be_one_dimensional(self, shape):
        # A 2-D h would reach the scan and the fit as a raw numpy error, or
        # be reported back as a 2-D bandwidth.
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            Bandwidth(np.full(shape, 0.5))

    def test_scalar_bandwidth_is_one_entry(self):
        assert Bandwidth(0.5).h.shape == (1,)


def brute_force_cv(ds, grid):
    """Independent double-loop evaluation of the leave-one-out criterion.

    Mirrors the definition directly: Gaussian reference weights with exact
    matching on discrete covariates, one leave-one-out Nadaraya-Watson
    estimate per (subject, event time) pair.
    """
    import math

    t_grid = np.unique(ds.y[ds.delta == 1])
    cont = ds.meta.continuous_columns()
    disc = ds.meta.discrete_columns()
    scores = []
    for h in grid:
        total = 0.0
        for i in range(ds.n):
            w = np.zeros(ds.n)
            for j in range(ds.n):
                if j == i:
                    continue
                value = 1.0
                for col in cont:
                    u = (ds.x[j, col] - ds.x[i, col]) / h
                    value *= math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi) / h
                for col in disc:
                    value *= float(ds.x[j, col] == ds.x[i, col])
                w[j] = value
            if w.sum() <= 0:
                continue
            w = w / w.sum()
            for t in t_grid:
                est = float(np.sum(w * (ds.y <= t)))
                total += (float(ds.y[i] <= t) - est) ** 2
        scores.append(total)
    return np.asarray(scores)


def gaussian_weight_matrix(ds, b):
    """Pairwise product Gaussian weights with exact discrete matching."""
    w = np.ones((ds.n, ds.n))
    for h, col in zip(b.h, ds.meta.continuous_columns()):
        u = (ds.x[None, :, col] - ds.x[:, None, col]) / h
        w *= np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi) / h
    for col in ds.meta.discrete_columns():
        w *= ds.x[None, :, col] == ds.x[:, None, col]
    np.fill_diagonal(w, 0.0)
    return w


def direct_cv_criterion(ds, b):
    """The n x T formula cv_criterion replaced, kept as an oracle."""
    t = np.unique(ds.y[ds.delta == 1])
    indicator = (ds.y[:, None] <= t[None, :]).astype(float)
    w = gaussian_weight_matrix(ds, b)
    den = w.sum(axis=1)
    keep = den > 0.0
    if not np.any(keep):
        return np.inf
    resid = indicator[keep] - w[keep] @ indicator / den[keep, None]
    return float(np.sum(resid * resid))


def largest_span(ds):
    """Columns of the widest cell in the criterion's chunk-major layout,
    padding included: the row width that sizes its blocks."""
    return max(cell.events.size for cell in kernels._cv_table(ds))


class TestCvCriterionOracle:
    @pytest.mark.parametrize("case", range(6))
    def test_matches_direct_formula(self, rng, case):
        name, ds, values = hostile_kernel_cases(rng)[case]
        for h in values:
            b = Bandwidth(np.full(ds.meta.n_continuous, h))
            expected = direct_cv_criterion(ds, b)
            assert math.isfinite(expected), name
            assert cv_criterion(ds, b) == pytest.approx(expected, rel=1e-12, abs=0.0), (name, h)

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("case", range(6))
    def test_row_blocks_match_direct_formula(self, rng, monkeypatch, case, rows):
        # The score is built a block of rows at a time; blocks of 1 and of 7
        # rows (most cases end on a partial block) give the same criterion.
        name, ds, values = hostile_kernel_cases(rng)[case]
        span = largest_span(ds)
        monkeypatch.setattr(kernels, "_CV_BLOCK_BYTES", 8 * span * rows)
        assert kernels._cv_block_rows(span) == rows
        for h in values:
            b = Bandwidth(np.full(ds.meta.n_continuous, h))
            expected = direct_cv_criterion(ds, b)
            assert cv_criterion(ds, b) == pytest.approx(expected, rel=1e-12, abs=0.0), (name, h)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_cell_split_in_row_blocks(self, rng, monkeypatch, rows):
        # Each discrete cell is scored on its own columns, in blocks of
        # exactly ``rows`` rows whatever the cell's size.
        name, ds, values = hostile_kernel_cases(rng)[5]
        t, cells = ds._time_order, ds._cells.positions
        cell_at = np.empty(ds.n, dtype=int)
        for k, positions in enumerate(cells):
            cell_at[positions] = k
        # A singleton cell, a cell without events, and tie groups that
        # start at a subject of another cell.
        assert min(p.size for p in cells) == 1
        assert min(ds.delta[t.order[p]].sum() for p in cells) == 0
        assert np.any(cell_at[t.start] != cell_at)
        monkeypatch.setattr(kernels, "_cv_block_rows", lambda n: rows)
        for h in values:
            b = Bandwidth(np.full(ds.meta.n_continuous, h))
            expected = direct_cv_criterion(ds, b)
            assert cv_criterion(ds, b) == pytest.approx(expected, rel=1e-12, abs=0.0), (name, h)

    def test_empty_neighborhoods_are_skipped(self, rng):
        name, ds, values = hostile_kernel_cases(rng)[4]
        b = Bandwidth(np.array([values[-1]]))
        mass = gaussian_weight_matrix(ds, b).sum(axis=1)
        # The case exercises both kinds of row: no leave-one-out mass at
        # all, and mass far from underflow.
        assert np.any(mass == 0.0) and np.min(mass[mass > 0.0]) > 1e-100

    def test_subnormal_mass_counts(self):
        # Each subject's only neighbor has weight exp(-744.5), a subnormal
        # number; the density 1/sqrt(2 pi) times it rounds to 0, so the
        # direct formula skips both rows.  Without the constants the mass
        # stays positive, and each row scores its neighbor's point mass:
        # a residual of 1 at the earlier event time.
        ds = build_dataset([1.0, 2.0], [1, 1], x_cols=[[0.0, math.sqrt(1489.0)]])
        b = Bandwidth(np.array([1.0]))
        assert gaussian_weight_matrix(ds, b).sum() == 0.0
        assert cv_criterion(ds, b) == 2.0

    def test_tiny_bandwidth_keeps_exact_ties(self, rng):
        # At h = 1e-200 only identical covariate values carry weight; the
        # resample has such duplicates.
        name, ds, _ = hostile_kernel_cases(rng)[3]
        b = Bandwidth(np.array([1e-200]))
        with np.errstate(all="ignore"):
            expected = direct_cv_criterion(ds, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cv_criterion(ds, b)
        assert math.isfinite(expected)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_no_mass_anywhere_is_infinite(self):
        ds = build_dataset([1.0, 2.0, 3.0], [1, 1, 0], x_cols=[[0.0, 10.0, 20.0]])
        assert cv_criterion(ds, Bandwidth(np.array([0.01]))) == np.inf

    def test_two_continuous_product_grid(self, rng):
        n = 35
        delta = (rng.random(n) < 0.7).astype(int)
        delta[0] = 1
        ds = build_dataset(rng.exponential(1, n).round(1), delta,
                           x_cols=[rng.normal(size=n), rng.normal(size=n)])
        for h in itertools.product([0.1, 0.6, 2.5], repeat=2):
            b = Bandwidth(np.array(h))
            assert cv_criterion(ds, b) == pytest.approx(direct_cv_criterion(ds, b), rel=1e-12, abs=0.0)

    def test_bandwidth_length_checked(self, rng):
        ds = random_dataset(rng, n=10)
        with pytest.raises(ConfigurationError):
            cv_criterion(ds, Bandwidth(np.array([0.5, 0.5])))


class TestChunkMajorLayout:
    """Each cell's columns are stored chunk-major, chunks of width c =
    ``kernels._chunks(n)[0]``, the last one padded; the criterion is the
    direct formula's whatever the cell sizes, ties and padding."""

    @staticmethod
    def check(ds, values):
        for h in values:
            b = Bandwidth(np.full(ds.meta.n_continuous, h))
            with np.errstate(all="ignore"):
                expected = direct_cv_criterion(ds, b)
            assert math.isfinite(expected), h
            assert cv_criterion(ds, b) == pytest.approx(expected, rel=1e-12, abs=0.0), h

    def test_chunk_widths(self):
        # ceil(sqrt(n)), at most 16: a cell of 1 is one slot, and from 226
        # subjects on every chunk is 16 wide.
        assert kernels._chunks(1) == (1, 1)
        assert kernels._chunks(2) == (2, 1)
        assert kernels._chunks(16) == (4, 4)
        assert kernels._chunks(17) == (5, 4)
        assert kernels._chunks(225) == (15, 15)
        assert [kernels._chunks(n) for n in (255, 256, 257, 273)] == [(16, 16), (16, 16), (16, 17), (16, 18)]

    @pytest.mark.parametrize("sizes", [(1, 15, 16, 17, 33), (255, 256), (257, 1, 273)])
    def test_cell_sizes(self, rng, sizes):
        # Cells of 1, c - 1, c, c + 1 and 2c + 1 subjects for c = 16, and
        # cells at the widest chunk that fill their last chunk, miss it by
        # one slot, or hold a single subject in it (257 = 16 * 16 + 1).
        n = sum(sizes)
        delta = (rng.random(n) < 0.7).astype(int)
        delta[0] = 1
        cell = np.repeat(np.arange(len(sizes)), sizes).astype(float)
        ds = build_dataset(rng.exponential(1.0, n).round(2), delta,
                           x_cols=[rng.normal(size=n), cell], discrete=[False, True])
        assert sorted(p.size for p in ds._cells.positions) == sorted(sizes)
        self.check(ds, (0.05, 0.4, 3.0))

    @pytest.mark.parametrize("n", [23, 257])
    def test_one_cell_not_a_multiple(self, rng, n):
        # At h = 1e200 every pair has weight 1 and the padding still none.
        width, chunks = kernels._chunks(n)
        assert n % width != 0
        delta = (rng.random(n) < 0.7).astype(int)
        delta[0] = 1
        ds = build_dataset(rng.exponential(1.0, n), delta, x_cols=[rng.normal(size=n)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check(ds, (0.05, 0.4, 3.0, 1e200))

    def test_tie_groups_cross_chunk_boundaries(self, rng):
        # Runs of 7 equal times, events and censored mixed, in chunks of 5.
        n = 25
        width, _ = kernels._chunks(n)
        assert width == 5
        y = np.repeat(np.arange(1.0, 5.0), 7)[:n]
        delta = (rng.random(n) < 0.6).astype(int)
        delta[0] = 1
        ds = build_dataset(y, delta, x_cols=[rng.normal(size=n)])
        start = ds._time_order.start
        assert np.any(start // width != np.arange(n) // width)
        self.check(ds, (0.05, 0.4, 3.0))

    def test_padding_next_to_zero_distance_pair(self, rng):
        # 15 subjects in chunks of 4 leave one padded slot, after the last
        # subject; the last two share their covariate value, so at h = 1e-200
        # they are each other's whole neighborhood.
        n = 15
        assert kernels._chunks(n) == (4, 4)
        y = np.arange(1.0, n + 1)
        delta = np.ones(n, dtype=int)
        x = rng.normal(size=n)
        x[-1] = x[-2]
        ds = build_dataset(y, delta, x_cols=[x])
        b = Bandwidth(np.array([1e-200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cv_criterion(ds, b)
        with np.errstate(all="ignore"):
            expected = direct_cv_criterion(ds, b)
        assert math.isfinite(expected) and expected > 0.0
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def batched_cases(rng):
    """The hostile cases plus mixed and three-covariate product grids."""
    cases = list(hostile_kernel_cases(rng))
    n = 33
    delta = (rng.random(n) < 0.7).astype(int)
    delta[0] = 1
    cases.append((
        "two-continuous-one-discrete",
        build_dataset(rng.exponential(1.0, n).round(1), delta,
                      x_cols=[rng.normal(size=n), rng.integers(0, 2, n).astype(float), rng.normal(size=n)],
                      discrete=[False, True, False]),
        (0.2, 0.6, 1.5, 3.0),
    ))
    n = 20
    delta = (rng.random(n) < 0.7).astype(int)
    delta[0] = 1
    cases.append((
        "three-continuous",
        build_dataset(rng.exponential(1.0, n).round(1), delta,
                      x_cols=[rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)]),
        (0.3, 1.2),
    ))
    return cases


def blockwise_scores(table, grids):
    """Each cell cut into blocks of ``_cv_block_rows`` rows, every block
    scored alone, and each candidate's block sums added by ``math.fsum``."""
    g = grids[-1].size
    sums, has_mass = [], False
    for k, cell in enumerate(table):
        n, step = cell.x.shape[1], kernels._cv_block_rows(g * cell.events.size)
        for lo in range(0, n, step):
            block_sums, mass = kernels._cv_block_scores((table, grids, [(k, lo, min(lo + step, n))]))
            sums.append(block_sums[0])
            has_mass = has_mass | mass
    totals = np.array([math.fsum(column) for column in zip(*sums)])
    return np.where(has_mass, totals, np.inf)


class TestBatchedScores:
    """``_cv_scores`` scores a product grid in batches; each score is the per-candidate criterion."""

    @pytest.mark.parametrize("rows", [None, 1, 7])
    @pytest.mark.parametrize("case", range(8))
    def test_exact_sum_of_blocks_scored_alone(self, rng, monkeypatch, case, rows):
        # The scan's scores are, bit for bit, the exactly rounded sums of
        # each block's own sums; no block's sums depend on its neighbours.
        name, ds, values = batched_cases(rng)[case]
        grid = np.asarray(values)
        if rows is not None:
            monkeypatch.setattr(kernels, "_CV_BLOCK_BYTES", 8 * largest_span(ds) * grid.size * rows)
        table, grids = kernels._cv_table(ds), [grid] * ds.meta.n_continuous
        assert np.array_equal(kernels._cv_scores(table, grids), blockwise_scores(table, grids)), name

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("case", range(8))
    def test_batch_matches_per_candidate(self, rng, monkeypatch, case, rows):
        name, ds, values = batched_cases(rng)[case]
        grid = np.asarray(values)
        # Batches of ``rows`` rows in the largest cell (7 ends every case on
        # a partial block); the one-candidate calls of cv_criterion get
        # len(grid) times as many.
        span = largest_span(ds)
        monkeypatch.setattr(kernels, "_CV_BLOCK_BYTES", 8 * span * grid.size * rows)
        assert kernels._cv_block_rows(span * grid.size) == rows
        n_cont = ds.meta.n_continuous
        scores = kernels._cv_scores(kernels._cv_table(ds), [grid] * n_cont)
        combos = list(itertools.product(grid, repeat=n_cont))
        assert scores.shape == (len(combos),)
        for combo, score in zip(combos, scores):
            single = cv_criterion(ds, Bandwidth(np.array(combo)))
            assert math.isfinite(single), (name, combo)
            assert score == pytest.approx(single, rel=1e-14, abs=0.0), (name, combo)
            expected = direct_cv_criterion(ds, Bandwidth(np.array(combo)))
            assert score == pytest.approx(expected, rel=1e-12, abs=0.0), (name, combo)

    @pytest.mark.parametrize("case", range(8))
    def test_cv_bandwidth_takes_first_minimizer(self, rng, monkeypatch, case):
        name, ds, values = batched_cases(rng)[case]
        ds = standardize_continuous(ds)
        grid = np.asarray(values)
        monkeypatch.setattr(kernels, "_CV_BLOCK_BYTES", 8 * largest_span(ds) * grid.size)
        n_cont = ds.meta.n_continuous
        scores = kernels._cv_scores(kernels._cv_table(ds), [grid] * n_cont)
        best = list(itertools.product(grid, repeat=n_cont))[int(np.argmin(scores))]
        assert tuple(cv_bandwidth(ds, grid=grid).h) == tuple(np.minimum(best, 2.0)), name

    def test_selection_skips_nan_and_keeps_first_tie(self, rng, monkeypatch):
        ds = standardize_continuous(random_dataset(rng, n=12))
        monkeypatch.setattr(
            kernels, "_cv_scores", lambda table, grids: np.array([np.nan, 3.0, 1.0, 1.0, np.inf])
        )
        grid = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert cv_bandwidth(ds, grid=grid).h[0] == 0.3

    @pytest.mark.parametrize("rows", [None, 1])
    def test_block_mixes_subnormal_and_ordinary_mass(self, monkeypatch, rows):
        # Three subjects share x = 0 and weigh 1 to each other; the fourth,
        # at distance sqrt(1489), has only the three of them, each at weight
        # exp(-744.5), a subnormal number (see test_subnormal_mass_counts).
        # Its row divides before squaring, the ordinary rows after, whether
        # they share one block or each has its own.  Event times 1 to 4:
        # rows Y = 1 and 3 score 1 + 1/4, row Y = 2 scores 1/4 + 1/4, and
        # the far row, H = 1/3, 2/3, 1, 1 against 0, 0, 0, 1, scores 14/9.
        ds = build_dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], x_cols=[[0.0, 0.0, 0.0, math.sqrt(1489.0)]])
        if rows is not None:
            monkeypatch.setattr(kernels, "_cv_block_rows", lambda n: rows)
        table, grids = kernels._cv_table(ds), [np.array([1.0])]
        blocks = -(-ds.n // kernels._cv_block_rows(table[0].events.size))
        assert blocks == (1 if rows is None else ds.n)
        scores = kernels._cv_scores(table, grids)
        assert np.array_equal(scores, blockwise_scores(table, grids))
        assert scores[0] == pytest.approx(3.0 + 14.0 / 9.0, rel=1e-15, abs=0.0)

    def test_each_candidate_flags_its_own_mass(self):
        # No row has mass at h = 0.01; every row has some at h = 100.
        ds = build_dataset([1.0, 2.0, 3.0], [1, 1, 0], x_cols=[[0.0, 10.0, 20.0]])
        scores = kernels._cv_scores(kernels._cv_table(ds), [np.array([0.01, 100.0])])
        assert scores[0] == np.inf and math.isfinite(scores[1])


def test_cv_underflow_raises_no_warning(rng):
    """Small bandwidths on widely spread covariates underflow the weights.

    No RuntimeWarning may escape, and every candidate scores a number or
    +inf, never NaN (a NaN score loses every comparison silently).
    """
    n = 60
    delta = (rng.random(n) < 0.7).astype(int)
    delta[0] = 1
    ds = build_dataset(
        rng.exponential(1.0, n), delta,
        x_cols=[rng.standard_cauchy(n) * 100.0, rng.lognormal(0.0, 3.0, n), rng.integers(0, 3, n)],
        discrete=[False, False, True],
    )
    ds = standardize_continuous(ds)
    grid = np.geomspace(0.01, 2.0, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        selected = cv_bandwidth(ds, grid=grid)
        scores = [cv_criterion(ds, Bandwidth(np.array(h))) for h in itertools.product(grid, repeat=2)]
    assert np.all(selected.h > 0.0)
    assert not np.any(np.isnan(scores))
    assert np.any(np.isfinite(scores))
    # The smallest candidate does underflow: some neighborhoods lose all mass.
    assert np.any(gaussian_weight_matrix(ds, Bandwidth(np.full(2, grid[0]))).sum(axis=1) == 0.0)


def _workers_seen(_):
    return fanout._free_workers()


class TestFanOut:
    """The scan's blocks give the same scores in any number of worker processes."""

    @staticmethod
    def scores(table, grids, monkeypatch, workers):
        monkeypatch.setattr(kernels, "_CV_FAN_OUT_PAIRS", 0)
        monkeypatch.setattr(kernels, "_free_workers", lambda: workers)
        return kernels._cv_scores(table, grids)

    @staticmethod
    def m4_like():
        # Four discrete cells of unequal size, two continuous covariates.
        ds = standardize_continuous(generate(make_scenario("m4/s1/c1", n=400), DEFAULT_SEED, 0))
        sizes = sorted(p.size for p in ds._cells.positions)
        assert len(sizes) == 4 and sizes[-1] > 1.5 * sizes[0]
        return ds

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("rows", [None, 1, 7])
    @pytest.mark.parametrize("case", [0, 5])
    def test_identical_for_any_worker_count(self, rng, monkeypatch, case, rows, workers):
        # Case 0 is one cell; case 5 has cells of 1 to 13 subjects, smaller
        # than one block at the default size.  Blocks of 1 and 7 rows split
        # every cell across shards, so a shard's first block of a cell is
        # not the cell's first, and 7 ends most cells on a partial block.
        # One run per worker, 8 and 64 cut the blocks differently each time.
        name, ds, values = hostile_kernel_cases(rng)[case]
        if rows is not None:
            monkeypatch.setattr(kernels, "_CV_BLOCK_BYTES", 8 * largest_span(ds) * len(values) * rows)
        table, grids = kernels._cv_table(ds), [np.asarray(values)] * ds.meta.n_continuous
        expected = blockwise_scores(table, grids)
        for runs in (1, 8, 64):
            monkeypatch.setattr(kernels, "_CV_RUNS_PER_WORKER", runs)
            assert np.array_equal(self.scores(table, grids, monkeypatch, workers), expected), (name, runs)

    @pytest.mark.parametrize("rows", [None, 5])
    def test_unequal_cells_identical(self, monkeypatch, rows):
        ds = self.m4_like()
        grid = default_grid(num=4)
        if rows is not None:
            monkeypatch.setattr(kernels, "_CV_BLOCK_BYTES", 8 * largest_span(ds) * grid.size * rows)
        table = kernels._cv_table(ds)
        serial = self.scores(table, [grid] * 2, monkeypatch, 1)
        assert np.array_equal(serial, blockwise_scores(table, [grid] * 2))
        for workers, runs in itertools.product((2, 3), (1, 8, 64)):
            monkeypatch.setattr(kernels, "_CV_RUNS_PER_WORKER", runs)
            assert np.array_equal(self.scores(table, [grid] * 2, monkeypatch, workers), serial), (workers, runs)
        selected = cv_bandwidth(ds, grid=grid)
        monkeypatch.setattr(kernels, "_free_workers", lambda: 1)
        assert np.array_equal(cv_bandwidth(ds, grid=grid).h, selected.h)

    def test_default_threshold_decides(self, monkeypatch):
        # Without a patched threshold, a scan of the m4 input fans out and
        # a small one does not.
        calls = []
        fan_out = kernels._fan_out

        def spy(replicate, tasks, n_jobs):
            calls.append(n_jobs)
            return fan_out(replicate, tasks, n_jobs)

        monkeypatch.setattr(kernels, "_fan_out", spy)
        monkeypatch.setattr(kernels, "_free_workers", lambda: 2)
        ds = self.m4_like()
        cv_bandwidth(ds, grid=default_grid(num=30))
        cv_bandwidth(ds, grid=default_grid(num=3))
        assert calls == [2, 1]

    def test_every_worker_joined(self, monkeypatch):
        ds = self.m4_like()
        monkeypatch.setattr(kernels, "_CV_FAN_OUT_PAIRS", 0)
        monkeypatch.setattr(kernels, "_free_workers", lambda: 2)
        cv_bandwidth(ds, grid=default_grid(num=4))
        assert multiprocessing.active_children() == []

    def test_identical_for_any_blas_thread_count(self, tmp_path):
        # The scan's residuals go through BLAS, in forked workers when the
        # scan is large enough (both inputs here are); its scores must not
        # depend on how many threads BLAS runs.
        src = str(Path(kernels.__file__).resolve().parents[1])
        script = (
            "import sys, numpy as np\n"
            "from smoothcure import default_grid, kernels, standardize_continuous\n"
            "from smoothcure.simulate import DEFAULT_SEED, generate, make_scenario\n"
            "out = {}\n"
            "for key, n in (('m4/s1/c1', 400), ('m1/s1/c1', 1500)):\n"
            "    ds = standardize_continuous(generate(make_scenario(key, n=n), DEFAULT_SEED, 0))\n"
            "    grids = [default_grid()] * ds.meta.n_continuous\n"
            "    out[key.replace('/', '_')] = kernels._cv_scores(kernels._cv_table(ds), grids)\n"
            "np.savez(sys.argv[1], **out)\n"
        )
        scores = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            path = tmp_path / f"threads-{threads}.npz"
            subprocess.run([sys.executable, "-c", script, str(path)], env=env, check=True)
            with np.load(path) as saved:
                scores.append({key: saved[key] for key in saved.files})
        assert sorted(scores[0]) == ["m1_s1_c1", "m4_s1_c1"]
        for key in scores[0]:
            assert np.all(np.isfinite(scores[0][key])), key
            assert np.array_equal(scores[0][key], scores[1][key]), key

    def test_free_workers(self, monkeypatch):
        # One per usable CPU in a process that is not a worker, under fork;
        # 1 inside a worker and under any other start method.
        assert multiprocessing.get_start_method() == "fork"
        assert fanout._free_workers() == len(os.sched_getaffinity(0))
        assert fanout._fan_out(_workers_seen, [0, 1], 2) == [1, 1]
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: "spawn")
        assert fanout._free_workers() == 1


class TestCvBandwidth:
    def test_matches_exhaustive_scan(self, rng):
        ds = standardize_continuous(random_dataset(rng, n=20))
        grid = np.geomspace(0.1, 2.0, 15)
        selected = cv_bandwidth(ds, grid=grid)
        scores = brute_force_cv(ds, grid)
        assert selected.h[0] == pytest.approx(min(grid[int(np.argmin(scores))], 2.0))
        direct = np.array([cv_criterion(ds, Bandwidth(np.array([h]))) for h in grid])
        assert np.allclose(direct, scores, rtol=1e-10)

    def test_output_always_capped(self, rng):
        for seed in range(5):
            ds = standardize_continuous(random_dataset(np.random.default_rng(seed), n=25))
            b = cv_bandwidth(ds, grid=np.geomspace(0.2, 5.0, 8))
            assert 0.0 < b.h[0] <= 2.0

    def test_independent_covariate_hits_cap(self):
        hits = 0
        reps = 50
        for r in range(reps):
            rng = np.random.default_rng(1000 + r)
            n = 60
            y = rng.exponential(1.0, n)
            delta = (rng.random(n) < 0.7).astype(int)
            if not delta.any():
                delta[0] = 1
            x = rng.normal(0.0, 1.0, n)  # independent of (y, delta)
            ds = build_dataset(y, delta, x_cols=[x])
            ds = standardize_continuous(ds)
            b = cv_bandwidth(ds)
            hits += b.h[0] == 2.0
        assert hits > reps / 2

    def test_deterministic(self, rng):
        ds = standardize_continuous(random_dataset(rng, n=30))
        a = cv_bandwidth(ds)
        b = cv_bandwidth(ds)
        assert np.array_equal(a.h, b.h)

    def test_requires_continuous_covariate(self, rng):
        # Both entry points go through the one check; a standardized
        # discrete-only dataset passes every other one.
        ds = standardize_continuous(random_dataset(rng, n=20, discrete=True))
        with pytest.raises(ConfigurationError, match="no continuous covariates"):
            cv_criterion(ds, Bandwidth(np.empty(0)))
        with pytest.raises(ConfigurationError, match="no continuous covariates"):
            cv_bandwidth(ds)

    def test_empty_grid_rejected(self, rng):
        ds = standardize_continuous(random_dataset(rng, n=10))
        with pytest.raises(ConfigurationError):
            cv_bandwidth(ds, grid=np.array([]))

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([np.nan, -1.0, 0.3], "positive and finite"),
            ([0.3, 0.0], "positive and finite"),
            ([np.inf], "positive and finite"),
            ([[0.3, 0.5], [0.2, 0.1]], "one-dimensional"),
            (0.3, "one-dimensional"),
        ],
    )
    def test_bad_candidate_or_shape_rejected(self, rng, grid, message):
        # A bad candidate is an error, not dropped; a grid is not flattened.
        ds = standardize_continuous(random_dataset(rng, n=10))
        with pytest.raises(ConfigurationError, match=message):
            cv_bandwidth(ds, grid=grid)

    def test_unstandardized_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            cv_bandwidth(random_dataset(rng, n=10))

    def test_product_grid_two_continuous(self, rng):
        n = 24
        ds = build_dataset(
            rng.exponential(1, n),
            (rng.random(n) < 0.8).astype(int),
            x_cols=[rng.normal(size=n), rng.normal(size=n)],
        )
        ds = standardize_continuous(ds)
        grid = np.array([0.3, 0.8, 1.5])
        selected = cv_bandwidth(ds, grid=grid)
        combos = list(itertools.product(grid, repeat=2))
        scores = [cv_criterion(ds, Bandwidth(np.array(c))) for c in combos]
        assert tuple(selected.h) == tuple(combos[int(np.argmin(scores))])


def test_default_grid_shape():
    g = default_grid()
    assert g.size == 30 and g[0] == pytest.approx(0.05) and g[-1] == pytest.approx(2.0)
    assert np.all(np.diff(np.log(g)) > 0)


def test_weight_matrix_matches_scalar(rng):
    # Every entry equals the one-pair matrix of its query and data rows.
    ds = random_dataset(rng, n=7)
    b = Bandwidth(np.array([0.9]))
    m = kernel_weight_matrix(ds.x, ds.x, b, ds.meta)
    for i in range(7):
        for j in range(7):
            pair = kernel_weight_matrix(ds.x[i:i + 1], ds.x[j:j + 1], b, ds.meta)
            assert m[i, j] == pytest.approx(pair[0, 0], abs=1e-14)


# Grid index of each registry scenario's selected bandwidth, per continuous
# covariate, recorded from the exact O(n^2) scan before it was split by
# discrete cells.
PINNED = json.loads(Path(__file__).with_name("cv_bandwidth_pins.json").read_text())


@pytest.mark.parametrize("key", sorted(SCENARIOS))
def test_registry_bandwidth_is_pinned(key):
    """Every registry scenario (default n, replication 0) selects its pinned grid point.

    The 30-point default grid, or 12 x 12 with two continuous covariates;
    a faster criterion must not move the selection.
    """
    ds = standardize_continuous(generate(make_scenario(key), DEFAULT_SEED, 0))
    grid = default_grid(num=30 if ds.meta.n_continuous == 1 else 12)
    expected = np.minimum(grid[PINNED[key]], DEFAULT_CAP)
    assert tuple(cv_bandwidth(ds, grid=grid).h) == tuple(expected)

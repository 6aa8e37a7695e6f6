"""Nonparametric cure-probability estimation by kernel-weighted products.

For a covariate point x, the susceptible/cured split is estimated from the
kernel-weighted conditional subdistributions of the follow-up time: the
product over observed event times of one minus the local hazard increment.
With uniform weights this collapses to the Kaplan-Meier survival estimate
evaluated at the largest event time.
"""

from __future__ import annotations

import numpy as np

from .data import SurvivalDataset
from .errors import ConfigurationError, EmptyNeighborhoodError
from .kernels import Bandwidth, _check_bandwidth, _continuous_weights

__all__ = ["estimate_cure_prob", "presmooth_all"]

# The weights are built a block of query rows at a time, each block over
# the columns inside its kernel support only (see :func:`_cure_probs`).
# The query rows run in order of the first continuous covariate, so a block
# of this many rows spans a short stretch of it.
_BLOCK_ROWS = 64


def _support(x_data: np.ndarray, x_rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Which data rows may carry kernel weight at some query row.

    A data row is dropped where, along some continuous covariate, its
    scaled distance to the nearest query row exceeds 1 as
    :func:`_continuous_weights` rounds it: floating-point subtraction and
    division are monotone, so every query row then gives it a factor of
    exactly 0.  Every row with weight lies inside, some with weight 0 too.
    """
    inside = np.ones(x_data.shape[0], dtype=bool)
    for c, h_c in enumerate(h):
        inside &= (x_data[:, c] - x_rows[:, c].max()) / h_c <= 1.0
        inside &= (x_data[:, c] - x_rows[:, c].min()) / h_c >= -1.0
    return inside


def _cure_probs(ds: SurvivalDataset, x_query: np.ndarray, queries: list[np.ndarray], b: Bandwidth) -> np.ndarray:
    """Cure-probability estimates at the query rows, rows ``queries[k]`` from
    the subjects of cell k only (see :func:`estimate_cure_prob`).

    Each cell's query rows are sorted by the first continuous covariate
    (stably, so ties keep the order given) and taken :data:`_BLOCK_ROWS` at
    a time; each block builds its own weights over the cell's columns
    inside its support (:func:`_support`), still in reversed time order.  A
    dropped column would add +0.0 to every running sum and a factor of
    exactly 1.0 to every product, so the estimates are those over all of
    the cell's columns, bit for bit.
    """
    cont = ds.meta.continuous_columns()
    x_cont = x_query[:, cont]
    t = ds._time_order
    out = np.empty(x_query.shape[0])
    for positions, rows in zip(ds._cells.positions, queries):
        if cont.size:
            rows = rows[x_cont[rows, 0].argsort(kind="stable")]
        data = positions[::-1]
        x_data = t.x[data][:, cont]
        for lo in range(0, rows.size, _BLOCK_ROWS):
            block = rows[lo : lo + _BLOCK_ROWS]
            inside = _support(x_data, x_cont[block], b.h)
            cols = data[inside]
            w = _continuous_weights(x_cont[block], x_data[inside], b.h)
            if ds.counts is not None:
                w *= t.mass[cols]
            at_risk = np.cumsum(w, axis=1)
            if cols.size == 0 or np.any(at_risk[:, -1] <= 0.0):
                raise EmptyNeighborhoodError("all kernel weights vanish at a query point")
            np.divide(w, at_risk, out=w, where=at_risk > 0.0)
            np.subtract(1.0, w, out=w)
            out[block] = np.prod(w, axis=1, where=t.event[cols])
    return out


def estimate_cure_prob(ds: SurvivalDataset, x_query: np.ndarray, b: Bandwidth) -> np.ndarray:
    """Cure-probability estimates at the (m, p) query rows ``x_query``,
    given like the dataset's ``x``: p columns, the intercept first.

    Weights vanish between different discrete cells, so each query row is
    estimated from the subjects of its own cell only.  Their columns run in
    the dataset's time order reversed: decreasing time, events after
    censored ties.  Each event column j then contributes the factor
    1 - w_j / S_j, where S_j is the running weight sum up to j; over the
    tied events of one time these telescope to 1 - (event mass) / (at-risk
    mass).  A counted row (see :class:`SurvivalDataset`) weighs as its
    count times its kernel weight, m_j K_ij, which is the telescoped factor
    of its copies.  The estimates are thus products along the rows of each
    cell's weight matrix, with no table over the event times.  Only pairs
    inside the kernel's support are formed: :func:`_cure_probs` takes each
    cell's query rows in order of the first continuous covariate, 64 at a
    time, and each block over the columns that can carry weight at one of
    its rows (the Epanechnikov weight is exactly 0 beyond one bandwidth),
    still in time order.  A dropped column would add +0.0 to each running
    sum and a factor of 1.0 to each product, so the estimates are those
    over every column, bit for bit, in whatever order the query rows come;
    only one small block is in memory at a time.  Each factor lies in
    [0, 1] exactly, since the running sum at j already contains w_j, and a
    column with no mass up to it gives 1.  A query of the wrong width
    raises :class:`ConfigurationError`; a query row whose cell holds no
    subject, or whose kernel weights all vanish, raises
    :class:`EmptyNeighborhoodError`.
    """
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    if x_query.ndim != 2 or x_query.shape[1] != ds.p:
        raise ConfigurationError(f"x_query must have {ds.p} columns, the intercept first, got shape {x_query.shape}")
    _check_bandwidth(b, ds.meta)
    cell_of = ds._cells.of(x_query[:, ds.meta.discrete_columns()])
    if np.any(cell_of < 0):
        raise EmptyNeighborhoodError("no subject shares the discrete covariates of a query point")
    queries = [np.flatnonzero(cell_of == k) for k in range(len(ds._cells.positions))]
    return _cure_probs(ds, x_query, queries, b)


def presmooth_all(ds: SurvivalDataset, b: Bandwidth) -> np.ndarray:
    """Cure-probability estimates at every sample point, as a length-n vector.

    Evaluation at a sample point always has positive kernel mass (the point
    weights itself), so no neighborhood can be empty here, and each point's
    cell is the dataset's own.  The estimates are those of
    :func:`estimate_cure_prob`, one per row: a counted row's value is that
    of each of its copies in the expansion.  Each cell's rows go to
    :func:`_cure_probs` in time order, which sorts them by the first
    continuous covariate, so each block of rows forms only the pairs inside
    the kernel's support: at most O(sum_k n_k^2) time for discrete cells of
    n_k rows (O(n^2) without discrete covariates), far less where the
    bandwidth is small against the covariate's spread, for any number of
    event times, and O(n) memory beyond one small block.
    """
    _check_bandwidth(b, ds.meta)
    order = ds._time_order.order
    return _cure_probs(ds, ds.x, [order[p] for p in ds._cells.positions], b)

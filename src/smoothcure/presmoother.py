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
from .errors import EmptyNeighborhoodError
from .kernels import Bandwidth, _check_bandwidth, _continuous_weights

__all__ = ["estimate_cure_prob", "presmooth_all"]

# The weights are built a block of query rows at a time, about 256 KB of
# doubles per buffer: every pass over a block stays in a core's private
# cache, and no call allocates an n x n array (18 MB of doubles at
# n = 1500, mapped afresh, page faults included, on every call).  At 1 MiB,
# presmooth_all on m3 at n = 1000 measured slower.
_BLOCK_BYTES = 1 << 18


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n))


def _cure_probs(ds: SurvivalDataset, x_query: np.ndarray, queries: list[np.ndarray], b: Bandwidth) -> np.ndarray:
    """Cure-probability estimates at the query rows, rows ``queries[k]`` from
    the subjects of cell k only (see :func:`estimate_cure_prob`)."""
    cells = ds._cells
    cont = ds.meta.continuous_columns()
    x_cont = x_query[:, cont]
    t = ds._time_order
    steps = [_block_rows(p.size) for p in cells.positions]
    # One set of block buffers for the call, sized for the largest block.
    size = max(min(step, q.size) * p.size for step, q, p in zip(steps, queries, cells.positions))
    w_work, at_risk_work = np.empty(size), np.empty(size)
    k_work = np.empty(size) if cont.size > 1 else None
    out = np.empty(x_query.shape[0])
    for positions, cell_queries, step in zip(cells.positions, queries, steps):
        data = positions[::-1]
        x_data, event_col = t.x[data][:, cont], t.event[data]
        for lo in range(0, cell_queries.size, step):
            rows = cell_queries[lo : lo + step]
            shape, m = (rows.size, data.size), rows.size * data.size
            work = None if k_work is None else k_work[:m].reshape(shape)
            w = _continuous_weights(x_cont[rows], x_data, b.h, out=w_work[:m].reshape(shape), work=work)
            at_risk = np.cumsum(w, axis=1, out=at_risk_work[:m].reshape(shape))
            if np.any(at_risk[:, -1] <= 0.0):
                raise EmptyNeighborhoodError("all kernel weights vanish at a query point")
            np.divide(w, at_risk, out=w, where=at_risk > 0.0)
            np.subtract(1.0, w, out=w)
            out[rows] = np.prod(w, axis=1, where=event_col)
    return out


def estimate_cure_prob(ds: SurvivalDataset, x_query: np.ndarray, b: Bandwidth) -> np.ndarray:
    """Cure-probability estimates at the (m, p) query rows ``x_query``.

    Weights vanish between different discrete cells, so each query row is
    estimated from the subjects of its own cell only.  Their columns run in
    the dataset's time order reversed: decreasing time, events after
    censored ties.  Each event column j then contributes the factor
    1 - w_j / S_j, where S_j is the running weight sum up to j; over the
    tied events of one time these telescope to 1 - (event mass) / (at-risk
    mass).  The estimates are thus products along the rows of each cell's
    weight matrix, with no table over the event times; it is built a block
    of rows at a time, so only a few cache-sized blocks are in memory and a
    cell of n_k subjects costs O(n_k) per query row.  Each factor lies in
    [0, 1] exactly, since the running sum at j already contains w_j, and a
    column with no mass up to it gives 1.  A query row whose cell holds no
    subject, or whose kernel weights all vanish, raises
    :class:`EmptyNeighborhoodError`.
    """
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
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
    :func:`estimate_cure_prob`, in O(sum_k n_k^2) time for discrete cells of
    n_k subjects (O(n^2) without discrete covariates), for any number of
    event times, and O(n) memory beyond a few fixed-size blocks.
    """
    _check_bandwidth(b, ds.meta)
    order = ds._time_order.order
    return _cure_probs(ds, ds.x, [order[p] for p in ds._cells.positions], b)

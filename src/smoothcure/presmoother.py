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
from .kernels import Bandwidth, _block_rows, kernel_weight_matrix

__all__ = ["estimate_cure_prob", "presmooth_all"]


def estimate_cure_prob(ds: SurvivalDataset, x_query: np.ndarray, b: Bandwidth) -> np.ndarray:
    """Cure-probability estimates at the (m, p) query rows ``x_query``.

    The data columns run in the dataset's time order reversed: decreasing
    time, events after censored ties.  Each event column j then contributes
    the factor 1 - w_j / S_j, where S_j is the running weight sum up to j;
    over the tied events of one time these telescope to 1 - (event mass) /
    (at-risk mass).  The estimates are thus products along the rows of the
    m x n weight matrix, with no table over the event times; it is built a
    block of rows at a time, so only a few cache-sized blocks are in memory.
    Each factor lies in [0, 1] exactly, since the running sum at j already
    contains w_j, and a column with no mass up to it gives 1.  A query row
    whose kernel weights all vanish raises :class:`EmptyNeighborhoodError`.
    """
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    order = ds._time_order.order[::-1]
    x_data, event_col = ds.x[order], ds.delta[order] == 1
    out = np.empty(x_query.shape[0])
    step = _block_rows(ds.n)
    for lo in range(0, out.size, step):
        w = kernel_weight_matrix(x_query[lo : lo + step], x_data, b, ds.meta)
        at_risk = np.cumsum(w, axis=1)
        if np.any(at_risk[:, -1] <= 0.0):
            raise EmptyNeighborhoodError("all kernel weights vanish at a query point")
        np.divide(w, at_risk, out=w, where=at_risk > 0.0)
        np.subtract(1.0, w, out=w)
        np.prod(w, axis=1, where=event_col, out=out[lo : lo + step])
    return out


def presmooth_all(ds: SurvivalDataset, b: Bandwidth) -> np.ndarray:
    """Cure-probability estimates at every sample point, as a length-n vector.

    Evaluation at a sample point always has positive kernel mass (the point
    weights itself), so no neighborhood can be empty here.  The estimates
    come from :func:`estimate_cure_prob` in O(n^2) time, for any number of
    event times, and O(n) memory beyond a few fixed-size blocks.
    """
    return estimate_cure_prob(ds, ds.x, b)

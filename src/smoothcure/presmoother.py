"""Nonparametric cure-probability estimation by kernel-weighted products.

For a covariate point x, the susceptible/cured split is estimated from the
kernel-weighted conditional subdistributions of the follow-up time: the
product over observed event times of one minus the local hazard increment.
With uniform weights this collapses to the Kaplan-Meier survival estimate
evaluated at the largest event time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .errors import EmptyNeighborhoodError
from .kernels import Bandwidth, _block_rows, kernel_weight_matrix

__all__ = [
    "ConditionalSubdist",
    "CureProbEstimate",
    "conditional_subdist",
    "estimate_cure_prob",
    "presmooth_all",
]


@dataclass(frozen=True)
class ConditionalSubdist:
    """Kernel-weighted event mass and at-risk mass at each distinct event time."""

    event_times: np.ndarray
    h1_mass: np.ndarray
    at_risk: np.ndarray


@dataclass(frozen=True)
class CureProbEstimate:
    value: float
    x: np.ndarray
    bandwidth: Bandwidth


def _time_order(ds: SurvivalDataset) -> np.ndarray:
    """Order of the data in decreasing time, events after censored ties.

    With the kernel weights in this column order, the running sum along a
    row up to the last column at or above t is the at-risk mass at t.
    """
    return np.lexsort((1 - ds.delta, ds.y))[::-1]


def conditional_subdist(ds: SurvivalDataset, x: np.ndarray, b: Bandwidth) -> ConditionalSubdist:
    """Normalized kernel-weighted subdistribution of (Y, delta) at point x."""
    order = _time_order(ds)
    y, event_col = ds.y[order], ds.delta[order] == 1
    w = kernel_weight_matrix(np.asarray(x, dtype=float)[None, :], ds.x[order], b, ds.meta)[0]
    at_risk = np.cumsum(w)
    total = at_risk[-1]
    if not total > 0.0:
        raise EmptyNeighborhoodError("all kernel weights vanish at the requested point")
    times, k = np.unique(y[event_col], return_inverse=True)
    h1 = np.bincount(k, weights=w[event_col], minlength=times.size)
    last_at_risk = np.searchsorted(-y, -times, side="right") - 1
    return ConditionalSubdist(times, h1 / total, at_risk[last_at_risk] / total)


def _cure_probs(x_query: np.ndarray, ds: SurvivalDataset, b: Bandwidth) -> np.ndarray:
    """Cure-probability estimates at the rows of ``x_query``.

    Each event column j contributes the factor 1 - w_j / S_j, where S_j is
    the running weight sum up to j in the column order of
    :func:`_time_order`; over the tied events of one time these telescope
    to 1 - (event mass) / (at-risk mass).  The estimates are thus products
    along the rows of the query x n weight matrix, with no table over the
    event times; it is built a block of rows at a time, so only a few
    cache-sized blocks are in memory.  Each factor lies in [0, 1] exactly,
    since the running sum at j already contains w_j, and a column with no
    mass up to it gives 1.
    """
    order = _time_order(ds)
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


def estimate_cure_prob(ds: SurvivalDataset, x: np.ndarray, b: Bandwidth) -> CureProbEstimate:
    """Cure probability at x: product over event times of local survival factors."""
    x = np.asarray(x, dtype=float)
    return CureProbEstimate(float(_cure_probs(x[None, :], ds, b)[0]), x, b)


def presmooth_all(ds: SurvivalDataset, b: Bandwidth) -> np.ndarray:
    """Cure-probability estimates at every sample point, as a length-n vector.

    Evaluation at a sample point always has positive kernel mass (the point
    weights itself), so no neighborhood can be empty here.  The estimates
    come from :func:`_cure_probs` in O(n^2) time, for any number of event
    times, and O(n) memory beyond a few fixed-size blocks.
    """
    return _cure_probs(ds.x, ds, b)

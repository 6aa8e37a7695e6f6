"""Product-kernel weights and cross-validation bandwidth selection.

Continuous incidence covariates are smoothed with a compactly supported
kernel; discrete covariates contribute an exact-match indicator.  The
bandwidth minimizes a leave-one-out least-squares criterion for the kernel
estimator of the conditional follow-up distribution H(t|x) = P(Y <= t | X=x),
with t restricted to the observed event times (all of which lie at or below
the largest event time).  Bandwidths are selected on standardized covariates
and truncated from above at a fixed cap, 2 by default.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import CovariateMeta, SurvivalDataset
from .errors import ConfigurationError

__all__ = [
    "Bandwidth",
    "cv_bandwidth",
    "cv_criterion",
    "default_grid",
    "epanechnikov",
    "gaussian",
    "kernel_weight",
    "kernel_weight_matrix",
]

DEFAULT_CAP = 2.0


@dataclass(frozen=True)
class Bandwidth:
    """One strictly positive entry per continuous incidence covariate."""

    h: np.ndarray

    def __post_init__(self) -> None:
        h = np.atleast_1d(np.asarray(self.h, dtype=float))
        if h.size and (not np.all(np.isfinite(h)) or np.any(h <= 0.0)):
            raise ConfigurationError(f"bandwidth entries must be positive and finite, got {h}")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    def __len__(self) -> int:
        return self.h.size


def epanechnikov(u):
    """(3/4)(1 - u^2) on |u| <= 1, zero outside."""
    u = np.asarray(u, dtype=float)
    out = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    return out if out.ndim else float(out)


def gaussian(u):
    """Standard normal density; the cross-validation reference kernel."""
    u = np.asarray(u, dtype=float)
    out = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    return out if out.ndim else float(out)


def kernel_weight_matrix(
    x_query: np.ndarray, x_data: np.ndarray, b: Bandwidth, meta: CovariateMeta, kernel=epanechnikov
) -> np.ndarray:
    """All pairwise weights W[i, j] of data point j at query point i.

    Each entry is the product over continuous covariates of
    k((x_data[j] - x_query[i]) / h) / h, times 1 if every discrete covariate
    matches exactly and 0 otherwise.  The intercept column is ignored.
    """
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    x_data = np.atleast_2d(np.asarray(x_data, dtype=float))
    cont = meta.continuous_columns()
    disc = meta.discrete_columns()
    if len(b) != cont.size:
        raise ConfigurationError(
            f"bandwidth has {len(b)} entries but there are {cont.size} continuous covariates"
        )
    w = np.ones((x_query.shape[0], x_data.shape[0]))
    for h_j, col in zip(b.h, cont):
        u = (x_data[None, :, col] - x_query[:, None, col]) / h_j
        w *= kernel(u) / h_j
    for col in disc:
        w *= x_data[None, :, col] == x_query[:, None, col]
    return w


def kernel_weight(xi: np.ndarray, x: np.ndarray, b: Bandwidth, meta: CovariateMeta) -> float:
    """Weight of observation ``xi`` at query point ``x`` (both full x rows)."""
    return float(kernel_weight_matrix(np.asarray(x)[None, :], np.asarray(xi)[None, :], b, meta)[0, 0])


def default_grid(lo: float = 0.05, hi: float = DEFAULT_CAP, num: int = 30) -> np.ndarray:
    """Logarithmically spaced candidate bandwidths on the standardized scale."""
    if not (0 < lo < hi) or num < 1:
        raise ConfigurationError(f"invalid bandwidth grid [{lo}, {hi}] with {num} points")
    return np.geomspace(lo, hi, num)


def cv_criterion(ds: SurvivalDataset, b: Bandwidth) -> float:
    """Leave-one-out least-squares score of a candidate bandwidth.

    Sums, over subjects i and observed event times t, the squared gap
    between the indicator 1{Y_i <= t} and the leave-one-out Nadaraya-Watson
    estimate of H(t | X_i).  The smoother inside the criterion uses the
    Gaussian reference kernel: that is the scale convention of the standard
    conditional-distribution bandwidth selectors this mirrors, and it is the
    scale the cap of 2 on standardized covariates presumes.  Subjects whose
    leave-one-out neighborhood carries no kernel mass are skipped.
    """
    t = np.unique(ds.y[ds.delta == 1])
    indicator = (ds.y[:, None] <= t[None, :]).astype(float)
    w = kernel_weight_matrix(ds.x, ds.x, b, ds.meta, kernel=gaussian)
    np.fill_diagonal(w, 0.0)
    den = w.sum(axis=1)
    keep = den > 0.0
    if not np.any(keep):
        return np.inf
    h_hat = w[keep] @ indicator / den[keep, None]
    resid = indicator[keep] - h_hat
    return float(np.sum(resid * resid))


def cv_bandwidth(
    ds: SurvivalDataset,
    grid: np.ndarray | None = None,
    cap: float = DEFAULT_CAP,
) -> Bandwidth:
    """Select the bandwidth by leave-one-out cross-validation.

    ``grid`` is a one-dimensional set of candidate values shared by every
    continuous covariate; with several continuous covariates the full product
    grid is scanned.  Each selected entry is truncated from above at ``cap``.
    The criterion smooths with the Gaussian reference kernel (see
    :func:`cv_criterion`); the returned bandwidth is meant to feed the
    compact-support product kernel of the estimators.  The criterion is
    deterministic.
    """
    if not ds.meta.standardized:
        raise ConfigurationError("bandwidth selection expects standardized covariates")
    n_cont = ds.meta.n_continuous
    if n_cont == 0:
        raise ConfigurationError("no continuous covariates to select a bandwidth for")
    if not np.any(ds.delta == 1):
        raise ConfigurationError("bandwidth selection is undefined without events")
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    grid = grid[np.isfinite(grid) & (grid > 0)]
    if grid.size == 0:
        raise ConfigurationError("bandwidth grid is empty")

    best: tuple[float, ...] | None = None
    best_score = np.inf
    for combo in itertools.product(grid, repeat=n_cont):
        score = cv_criterion(ds, Bandwidth(np.asarray(combo)))
        if score < best_score:
            best_score = score
            best = combo
    if best is None or not np.isfinite(best_score):
        raise ConfigurationError("cross-validation criterion is degenerate on this grid")
    return Bandwidth(np.minimum(np.asarray(best), cap))

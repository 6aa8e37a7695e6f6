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
    out = np.square(u, out=np.empty_like(u))
    np.subtract(1.0, out, out=out)
    np.fmax(out, 0.0, out=out)  # also maps a NaN argument to 0
    out *= 0.75
    return out if out.ndim else float(out)


def _check_bandwidth(b: Bandwidth, meta: CovariateMeta) -> None:
    if len(b) != meta.n_continuous:
        raise ConfigurationError(
            f"bandwidth has {len(b)} entries but there are {meta.n_continuous} continuous covariates"
        )


def kernel_weight_matrix(
    x_query: np.ndarray, x_data: np.ndarray, b: Bandwidth, meta: CovariateMeta
) -> np.ndarray:
    """All pairwise weights W[i, j] of data point j at query point i.

    Each entry is the product over continuous covariates of
    k((x_data[j] - x_query[i]) / h) / h, with k the Epanechnikov kernel,
    times 1 if every discrete covariate matches exactly and 0 otherwise.
    The intercept column is ignored.
    """
    x_query = np.atleast_2d(np.asarray(x_query, dtype=float))
    x_data = np.atleast_2d(np.asarray(x_data, dtype=float))
    _check_bandwidth(b, meta)
    cont = meta.continuous_columns()
    disc = meta.discrete_columns()
    # In place, and without a matrix of ones: each fresh n x n temporary
    # costs a pass and page faults, and sets the peak memory of presmoothing.
    w = None
    for h_j, col in zip(b.h, cont):
        u = np.subtract(x_data[None, :, col], x_query[:, None, col])
        u /= h_j
        k = epanechnikov(u)
        k /= h_j
        w = k if w is None else np.multiply(w, k, out=w)
    if w is None:
        w = np.ones((x_query.shape[0], x_data.shape[0]))
    for col in disc:
        w *= x_data[None, :, col] == x_query[:, None, col]
    return w


def default_grid(lo: float = 0.05, hi: float = DEFAULT_CAP, num: int = 30) -> np.ndarray:
    """Logarithmically spaced candidate bandwidths on the standardized scale."""
    if not (0 < lo < hi) or num < 1:
        raise ConfigurationError(f"invalid bandwidth grid [{lo}, {hi}] with {num} points")
    return np.geomspace(lo, hi, num)


# The n x n computations run a block of rows at a time, about 256 KB of
# doubles per buffer (a batch of G candidates takes 1/G of the rows): every
# pass over a block stays in a core's private cache, and no call allocates
# an n x n float array (18 MB at n = 1500, mapped afresh, page faults
# included, on every call).
_BLOCK_BYTES = 1 << 18


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n))


@dataclass(frozen=True)
class _CvTable:
    """Bandwidth-free part of the criterion, subjects in time order.

    ``x_cont`` holds the continuous covariates of the sorted subjects, one
    row per covariate; ``match`` flags the pairs other than i = j that agree
    on every discrete covariate and is ``None`` when there are none.
    ``event_last`` is 1 at the last sorted position of each distinct event
    time and 0 elsewhere, and ``start`` is each subject's first sorted
    position with ``y >= Y_i``.
    """

    x_cont: np.ndarray
    match: np.ndarray | None
    event_last: np.ndarray
    start: np.ndarray


def _cv_table(ds: SurvivalDataset) -> _CvTable:
    t = ds._time_order
    x = ds.x[t.order]
    event_last = np.zeros(ds.n)
    event_last[t.event_last] = 1.0
    match = None
    for col in ds.meta.discrete_columns():
        same = x[:, None, col] == x[None, :, col]
        match = same if match is None else np.logical_and(match, same, out=match)
    if match is not None:
        np.fill_diagonal(match, False)
    return _CvTable(
        x_cont=np.ascontiguousarray(x[:, ds.meta.continuous_columns()].T),
        match=match,
        event_last=event_last,
        start=t.start,
    )


def _cv_scores(table: _CvTable, grids: list[np.ndarray]) -> np.ndarray:
    """Criterion of every candidate in the product of per-covariate grids.

    ``grids`` holds one array of values per continuous covariate, and the
    scores come in :func:`itertools.product` order (the last covariate's
    value varies fastest).  The Gaussian constants cancel in the
    Nadaraya-Watson ratio, so row i of a candidate holds the weights
    exp(-sum_c D_c^2 / (2 h_c^2)) in time order.  Their running sum, less
    the row total from position ``start[i]`` on and divided by that total,
    is H(t | X_i) - 1{Y_i <= t} at every sorted position; the squares at the
    event-time positions sum to the residual.  A candidate under which no
    row has leave-one-out mass scores +inf.

    Rows are scored a block at a time, with the last covariate's grid as a
    batch axis.  Each block forms its squared distances once per covariate
    and the last covariate's factors exp(-D^2 / (2 h^2)) once per grid
    value; every combination of the other covariates multiplies them by its
    own factor.  Beyond the blocks, memory is O(K + n) for K candidates.
    """
    n = table.start.size
    n_cont = len(grids)
    # The scale stays finite however small h is, so a zero distance keeps
    # weight 1 instead of becoming 0 * inf; D^2 times it may overflow to
    # -inf, which is weight 0.
    with np.errstate(divide="ignore", over="ignore"):
        scales = [
            np.maximum(-0.5 / np.square(np.asarray(g, dtype=float)), -np.finfo(float).max)
            for g in grids
        ]
    batch = scales[-1] if scales else np.zeros(1)
    outer = list(itertools.product(*scales[:-1]))
    g = batch.size
    step = min(n, _block_rows(g * n))
    d2 = np.empty((n_cont, step, n))
    outer_work = np.empty((2, step, n)) if n_cont > 1 else None
    factors = np.empty(g * step * n)
    weights = np.empty_like(factors) if n_cont > 1 else factors
    mass_work = np.empty(g * step)
    resid_work = np.empty(g * step)
    block_sum = np.empty((len(outer), g))
    block_max = np.empty((len(outer), g))
    total = np.zeros(block_sum.size)
    carry = np.zeros(block_sum.size)
    has_mass = np.zeros(block_sum.size, dtype=bool)
    with np.errstate(over="ignore"):
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            m = hi - lo
            for c, xc in enumerate(table.x_cont):
                np.subtract(xc[lo:hi, None], xc[None, :], out=d2[c, :m])
                np.square(d2[c, :m], out=d2[c, :m])
            # Contiguous views, so a partial last block reshapes freely.
            f = factors[: g * m * n].reshape(g, m, n)
            if n_cont:
                np.multiply(d2[-1, :m], batch[:, None, None], out=f)
                np.exp(f, out=f)
            else:
                f.fill(1.0)
            rows = np.arange(m)
            if table.match is None:
                f[:, rows, rows + lo] = 0.0
            else:
                f *= table.match[lo:hi]
            # Flat position of (row, start[row]) in each candidate's weights.
            at = (((np.arange(g) * m)[:, None] + rows) * n + table.start[lo:hi]).ravel()
            for o, outer_scale in enumerate(outer):
                w = f
                if outer_scale:
                    e, part = outer_work[0, :m], outer_work[1, :m]
                    for c, s in enumerate(outer_scale):
                        np.multiply(d2[c, :m], s, out=part if c else e)
                        if c:
                            e += part
                    np.exp(e, out=e)
                    w = np.multiply(f, e, out=weights[: g * m * n].reshape(g, m, n))
                w = w.reshape(g * m, n)
                mass = w.sum(axis=1, out=mass_work[: g * m])
                w.reshape(-1)[at] -= mass
                np.cumsum(w, axis=1, out=w)
                # Normalize before squaring: mass**2 can underflow where mass does not.
                w /= np.where(mass > 0.0, mass, 1.0)[:, None]
                resid = np.einsum("ij,ij,j->i", w, w, table.event_last, out=resid_work[: g * m])
                # A row without mass has all-zero weights and a residual of 0.
                resid.reshape(g, m).sum(axis=1, out=block_sum[o])
                mass.reshape(g, m).max(axis=1, out=block_max[o])
            # Compensated sum over blocks, so the totals do not depend on
            # the block size beyond rounding.
            y = block_sum.ravel() - carry
            t = total + y
            carry = (t - total) - y
            total = t
            has_mass |= block_max.ravel() > 0.0
    return np.where(has_mass, total, np.inf)


def cv_criterion(ds: SurvivalDataset, b: Bandwidth) -> float:
    """Leave-one-out least-squares score of a candidate bandwidth.

    Sums, over subjects i and observed event times t, the squared gap
    between the indicator 1{Y_i <= t} and the leave-one-out Nadaraya-Watson
    estimate of H(t | X_i).  The smoother inside the criterion uses the
    Gaussian reference kernel: that is the scale convention of the standard
    conditional-distribution bandwidth selectors this mirrors, and it is the
    scale the cap of 2 on standardized covariates presumes.  Subjects whose
    leave-one-out neighborhood carries no kernel mass are skipped.  The
    weights leave out the Gaussian constants, which cancel in the estimate,
    so a neighborhood whose mass is positive but subnormal (a lone neighbor
    at exp(-744.5), say) counts, though the density scaled by
    1/(sqrt(2 pi) h) would round it to zero.

    With the subjects sorted by follow-up time every estimate of H is a
    running sum along a row, so the score costs O(n^2) time for any number
    of event times; no n x T table is formed.  This is the one-candidate
    case of the scan :func:`cv_bandwidth` makes.  Memory is O(n) beyond a
    few blocks of rows of about 256 KB each, plus an n x n boolean mask when
    there are discrete covariates.
    """
    _check_bandwidth(b, ds.meta)
    return float(_cv_scores(_cv_table(ds), list(b.h[:, None]))[0])


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

    The bandwidth-free part of the criterion (time order, sorted covariates,
    discrete-match mask) is built once.  All candidates are then scored
    together, a block of rows at a time, with the last covariate's grid of
    G values as a batch axis: a block forms its squared distances once per
    covariate and the last covariate's Gaussian factors once per value, and
    each combination of the other covariates multiplies those factors by its
    own.  A G x G grid thus takes 2G exponentials per pair of subjects
    instead of G^2.  Time is O(n^2) per candidate.  Memory is O(K + n) for
    K candidates beyond a few blocks of about 256 KB each, plus the n x n
    boolean mask of the discrete covariates.
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

    scores = _cv_scores(_cv_table(ds), [grid] * n_cont)
    best: tuple[float, ...] | None = None
    best_score = np.inf
    for combo, score in zip(itertools.product(grid, repeat=n_cont), scores):
        if score < best_score:
            best_score = score
            best = combo
    if best is None or not np.isfinite(best_score):
        raise ConfigurationError("cross-validation criterion is degenerate on this grid")
    return Bandwidth(np.minimum(np.asarray(best), cap))

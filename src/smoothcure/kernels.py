"""Product-kernel weights and cross-validation bandwidth selection.

Continuous incidence covariates are smoothed with a compactly supported
kernel; discrete covariates contribute an exact-match indicator.  The
bandwidth minimizes a leave-one-out least-squares criterion for the kernel
estimator of the conditional follow-up distribution H(t|x) = P(Y <= t | X=x),
with t restricted to the observed event times (all of which lie at or below
the largest event time).  Bandwidths are selected on standardized covariates
and truncated from above at a fixed cap of 2, :data:`DEFAULT_CAP`.
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

# The cap on every cross-validated bandwidth entry, on the standardized scale.
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


def epanechnikov(u, out=None):
    """(3/4)(1 - u^2) on |u| <= 1, zero outside; into ``out`` (``u`` itself
    allowed) when given."""
    u = np.asarray(u, dtype=float)
    out = np.square(u, out=np.empty_like(u) if out is None else out)
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
    w = _continuous_weights(x_query[:, cont], x_data[:, cont], b.h)
    for col in meta.discrete_columns():
        w *= x_data[None, :, col] == x_query[:, None, col]
    return w


def _continuous_weights(
    x_query: np.ndarray,
    x_data: np.ndarray,
    h: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """The continuous factor of :func:`kernel_weight_matrix`, on continuous
    columns only; into ``out`` when given, with ``work`` (of the same shape)
    as working space for each covariate after the first."""
    # In place, and without a matrix of ones: each fresh temporary of the
    # block's size costs a pass and page faults.
    w = None
    for c, h_c in enumerate(h):
        u = np.subtract(x_data[None, :, c], x_query[:, None, c], out=out if w is None else work)
        u /= h_c
        k = epanechnikov(u, out=u)
        k /= h_c
        w = k if w is None else np.multiply(w, k, out=w)
    if w is None:
        w = np.empty((x_query.shape[0], x_data.shape[0])) if out is None else out
        w.fill(1.0)
    return w


def default_grid(lo: float = 0.05, hi: float = DEFAULT_CAP, num: int = 30) -> np.ndarray:
    """Logarithmically spaced candidate bandwidths on the standardized scale."""
    if not (0 < lo < hi) or num < 1:
        raise ConfigurationError(f"invalid bandwidth grid [{lo}, {hi}] with {num} points")
    return np.geomspace(lo, hi, num)


# The kernel computations run a block of rows at a time, about 256 KB of
# doubles per buffer (a batch of G candidates takes 1/G of the rows): every
# pass over a block stays in a core's private cache, and no call allocates
# an n x n array (18 MB of doubles at n = 1500, mapped afresh, page faults
# included, on every call).
_BLOCK_BYTES = 1 << 18


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n))


@dataclass(frozen=True)
class _CvCell:
    """Bandwidth-free part of one discrete cell's share of the criterion.

    Pairs across cells have weight 0, so a cell is scored on its own
    subjects only, in time order; ``x_cont`` holds their continuous
    covariates, one row per covariate.  ``events[a]`` counts the event-time
    positions (the last sorted position of each distinct event time, in any
    cell) from the cell's subject a up to its next one; a row's running sum
    is constant over them.  ``start[a]`` is the cell's first subject with
    ``y >= Y_a``.  An event-time position ends its tie group, so it lies at
    or after subject a exactly when it lies at or after a's tie-group start:
    1{Y_a <= t} may switch on at ``start[a]`` even when that tie group
    starts at a subject of another cell.
    """

    x_cont: np.ndarray
    start: np.ndarray
    events: np.ndarray


def _cv_table(ds: SurvivalDataset) -> tuple[_CvCell, ...]:
    if ds.meta.n_continuous == 0:
        raise ConfigurationError("no continuous covariates to select a bandwidth for")
    t = ds._time_order
    x = ds.x[t.order][:, ds.meta.continuous_columns()]
    # before[k]: event-time positions before sorted position k.
    before = np.zeros(ds.n + 1)
    before[t.event_last + 1] = 1.0
    np.cumsum(before, out=before)
    return tuple(
        _CvCell(
            x_cont=np.ascontiguousarray(x[pos].T),
            start=np.searchsorted(pos, t.start[pos]),
            events=np.diff(before[pos], append=before[-1]),
        )
        for pos in ds._cells.positions
    )


def _cv_scores(table: tuple[_CvCell, ...], grids: list[np.ndarray]) -> np.ndarray:
    """Criterion of every candidate in the product of per-covariate grids.

    ``grids`` holds one array of values per continuous covariate, and the
    scores come in :func:`itertools.product` order (the last covariate's
    value varies fastest).  The Gaussian constants cancel in the
    Nadaraya-Watson ratio, so row i of a candidate holds the weights
    exp(-sum_c D_c^2 / (2 h_c^2)) of its cell's subjects, in time order.
    Their running sum, less the row total from ``start[i]`` on and divided
    by that total, is H(t | X_i) - 1{Y_i <= t} at every event-time position
    up to the next subject; the squares times the ``events`` counts sum to
    the residual.  A candidate under which no row has leave-one-out
    mass scores +inf.

    Each cell's rows are scored a block at a time, with the last
    covariate's grid as a batch axis.  Each block forms its squared
    distances once per covariate and the last covariate's factors
    exp(-D^2 / (2 h^2)) once per grid value; every combination of the other
    covariates multiplies them by its own factor.  The block totals are
    summed with compensation, cell by cell and block by block.  Beyond the
    blocks, sized for the largest cell, memory is O(K + n) for K candidates.
    """
    n_cont = len(grids)
    # The scale stays finite however small h is, so a zero distance keeps
    # weight 1 instead of becoming 0 * inf; D^2 times it may overflow to
    # -inf, which is weight 0.
    with np.errstate(divide="ignore", over="ignore"):
        scales = [
            np.maximum(-0.5 / np.square(np.asarray(g, dtype=float)), -np.finfo(float).max)
            for g in grids
        ]
    batch = scales[-1]
    outer = list(itertools.product(*scales[:-1]))
    g = batch.size
    steps = [min(cell.start.size, _block_rows(g * cell.start.size)) for cell in table]
    size = max(step * cell.start.size for step, cell in zip(steps, table))
    d2_work = np.empty((n_cont, size))
    outer_work = np.empty((2, size)) if n_cont > 1 else None
    factors = np.empty(g * size)
    weights = np.empty_like(factors) if n_cont > 1 else factors
    mass_work = np.empty(g * max(steps))
    resid_work = np.empty_like(mass_work)
    block_sum = np.empty((len(outer), g))
    block_max = np.empty((len(outer), g))
    total = np.zeros(block_sum.size)
    carry = np.zeros(block_sum.size)
    has_mass = np.zeros(block_sum.size, dtype=bool)
    with np.errstate(over="ignore"):
        for cell, step in zip(table, steps):
            n = cell.start.size
            for lo in range(0, n, step):
                hi = min(lo + step, n)
                m = hi - lo
                # Contiguous views, so a partial last block reshapes freely.
                d2 = d2_work[:, : m * n].reshape(n_cont, m, n)
                for c, xc in enumerate(cell.x_cont):
                    np.subtract(xc[lo:hi, None], xc[None, :], out=d2[c])
                    np.square(d2[c], out=d2[c])
                f = factors[: g * m * n].reshape(g, m, n)
                np.multiply(d2[-1], batch[:, None, None], out=f)
                np.exp(f, out=f)
                rows = np.arange(m)
                f[:, rows, rows + lo] = 0.0
                # Flat position of (row, start[row]) in each candidate's weights.
                at = (((np.arange(g) * m)[:, None] + rows) * n + cell.start[lo:hi]).ravel()
                for o, outer_scale in enumerate(outer):
                    w = f
                    if outer_scale:
                        e = outer_work[0, : m * n].reshape(m, n)
                        part = outer_work[1, : m * n].reshape(m, n)
                        for c, s in enumerate(outer_scale):
                            np.multiply(d2[c], s, out=part if c else e)
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
                    resid = np.einsum("ij,ij,j->i", w, w, cell.events, out=resid_work[: g * m])
                    # A row without mass has all-zero weights and a residual of 0.
                    resid.reshape(g, m).sum(axis=1, out=block_sum[o])
                    mass.reshape(g, m).max(axis=1, out=block_max[o])
                # Compensated sum over cells and blocks, so the totals do
                # not depend on the block size beyond rounding.
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
    of event times; no n x T table is formed.  Subjects in different
    discrete cells have weight 0, so each cell of n_k subjects is scored on
    its own and the cost is O(sum_k n_k^2); no pair across cells is formed.
    This is the one-candidate case of the scan :func:`cv_bandwidth` makes.
    Memory is O(n) beyond a few blocks of rows of about 256 KB each.
    """
    _check_bandwidth(b, ds.meta)
    return float(_cv_scores(_cv_table(ds), list(b.h[:, None]))[0])


def cv_bandwidth(ds: SurvivalDataset, grid: np.ndarray | None = None) -> Bandwidth:
    """Select the bandwidth by leave-one-out cross-validation.

    ``grid`` is a one-dimensional set of candidate values shared by every
    continuous covariate, :func:`default_grid` if omitted; with several
    continuous covariates the full product grid is scanned.  Each selected
    entry is truncated from above at :data:`DEFAULT_CAP`, 2.
    The criterion smooths with the Gaussian reference kernel (see
    :func:`cv_criterion`); the returned bandwidth is meant to feed the
    compact-support product kernel of the estimators.  The criterion is
    deterministic.

    The bandwidth-free part of the criterion (time order, discrete cells,
    each cell's sorted covariates) is built once.  All candidates are then
    scored together, one discrete cell and a block of its rows at a time,
    with the last covariate's grid of G values as a batch axis: a block
    forms its squared distances once per covariate and the last covariate's
    Gaussian factors once per value, and each combination of the other
    covariates multiplies those factors by its own.  A G x G grid thus takes
    2G exponentials per pair of subjects instead of G^2.  Only pairs within
    a cell are formed, so time is O(sum_k n_k^2) per candidate for cells of
    n_k subjects, O(n^2) without discrete covariates.  Memory is O(K + n)
    for K candidates beyond a few blocks of about 256 KB each.
    """
    if not ds.meta.standardized:
        raise ConfigurationError("bandwidth selection expects standardized covariates")
    table = _cv_table(ds)
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    grid = grid[np.isfinite(grid) & (grid > 0)]
    if grid.size == 0:
        raise ConfigurationError("bandwidth grid is empty")

    n_cont = ds.meta.n_continuous
    scores = _cv_scores(table, [grid] * n_cont)
    best: tuple[float, ...] | None = None
    best_score = np.inf
    for combo, score in zip(itertools.product(grid, repeat=n_cont), scores):
        if score < best_score:
            best_score = score
            best = combo
    if best is None or not np.isfinite(best_score):
        raise ConfigurationError("cross-validation criterion is degenerate on this grid")
    return Bandwidth(np.minimum(np.asarray(best), DEFAULT_CAP))

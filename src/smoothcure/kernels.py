"""Product-kernel weights and cross-validation bandwidth selection.

Continuous incidence covariates are smoothed with a compactly supported
kernel; discrete covariates contribute an exact-match indicator.  The
bandwidth minimizes a leave-one-out least-squares criterion for the kernel
estimator of the conditional follow-up distribution H(t|x) = P(Y <= t | X=x),
with t restricted to the observed event times (all of which lie at or below
the largest event time).  Bandwidths are selected on standardized covariates
and truncated from above at a fixed cap of 2, :data:`DEFAULT_CAP`.

The criterion is scored one discrete cell and one block of rows at a time.
Each cell's columns are stored chunk-major (chunks of about sqrt(n_k)
subjects, at most 16), so a row's running sum is a two-level scan: a
running sum of the chunk totals, then one vector add per slot of a chunk
over all chunks and rows of the block at once.  Each row's residual is
summed unnormalized and divided by the row's mass afterwards.  The blocks
are independent: a large scan scores them in one worker process per usable
CPU, and each score is the exactly rounded sum of its block totals
(:func:`math.fsum`), so the scores are the same for any worker count and
any order the blocks come back in.  Each worker, or this process when the
scan runs serially, holds block buffers of about 1.5 MiB each; beyond
them memory is O(K + n) for K candidates, in each.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import CovariateMeta, SurvivalDataset, _readonly
from .errors import ConfigurationError
from .fanout import _fan_out, _free_workers

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
        object.__setattr__(self, "h", _readonly(h))

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


def _continuous_weights(x_query: np.ndarray, x_data: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The continuous factor of :func:`kernel_weight_matrix`, on continuous
    columns only, as a fresh (m, n) array."""
    # In place after the difference, and without a matrix of ones: each
    # further temporary of the block's size costs a pass.
    w = None
    for c, h_c in enumerate(h):
        u = x_data[None, :, c] - x_query[:, None, c]
        u /= h_c
        k = epanechnikov(u, out=u)
        k /= h_c
        w = k if w is None else np.multiply(w, k, out=w)
    if w is None:
        w = np.ones((x_query.shape[0], x_data.shape[0]))
    return w


def default_grid(lo: float = 0.05, hi: float = DEFAULT_CAP, num: int = 30) -> np.ndarray:
    """Logarithmically spaced candidate bandwidths on the standardized scale."""
    if not (0 < lo < hi) or num < 1:
        raise ConfigurationError(f"invalid bandwidth grid [{lo}, {hi}] with {num} points")
    return np.geomspace(lo, hi, num)


# The bandwidth scan runs a block of rows at a time (a batch of G
# candidates takes 1/G of the rows), about 1.5 MiB per buffer: no call
# allocates an n x n array, longer passes cost fewer numpy calls per pair,
# and a block's working set still fits a 2 MiB L2 cache.  Against 1 MiB,
# the fanned-out scan measured 5-9% faster on m1 at n = 1500 and 3-6% on m4
# at n = 400.  Presmoothing keeps its own, smaller blocks.
_CV_BLOCK_BYTES = 3 << 19

# The fewest pair-candidates (sum_k n_k^2 times the number of candidates)
# for which the scan fans out to worker processes.  Starting and joining two
# workers costs about 10 ms; below about this many the serial scan
# measured as fast (m1 broke even near n = 400, 4.8M; m4 near n = 200,
# 9.6M, whose few large blocks balance worse).
_CV_FAN_OUT_PAIRS = 10_000_000

# A fanned-out scan cuts its blocks into runs of consecutive blocks, about
# this many per worker, and its workers take them costliest first (see
# :func:`_cv_scores`).
_CV_RUNS_PER_WORKER = 8


def _cv_block_rows(n: int) -> int:
    return max(1, _CV_BLOCK_BYTES // (8 * n))


# The widest chunk of a cell's chunk-major layout (see :class:`_CvCell`).
_CHUNK_WIDTH = 16


def _chunks(n: int) -> tuple[int, int]:
    """Chunk width and chunk count for a cell of n subjects.  The width is
    ceil(sqrt(n)), at most :data:`_CHUNK_WIDTH`: each level of a row's
    running sum then takes a few numpy calls over long slices."""
    width = min(_CHUNK_WIDTH, math.isqrt(max(n - 1, 0)) + 1)
    return width, -(-n // width)


def _slot(j: np.ndarray, width: int, chunks: int) -> np.ndarray:
    """Flat chunk-major slot (k * chunks + chunk) of time-order position
    j = chunk * width + k."""
    return (j % width) * chunks + j // width


@dataclass(frozen=True)
class _CvCell:
    """Bandwidth-free part of one discrete cell's share of the criterion.

    Pairs across cells have weight 0, so a cell is scored on its own
    subjects only.  ``x`` holds their continuous covariates in time order,
    one row per covariate.  Every per-column quantity is stored
    chunk-major: with :func:`_chunks` giving the width c, the subject at
    time-order position j = chunk * c + k goes to slot (k, chunk) of a
    (c, chunks) array, and the slots past the last subject are padding.
    ``x_slots`` holds the same covariates in that layout, +inf in the
    padding: a padded column is at infinite distance from every subject.

    ``events`` counts, per slot, the event-time positions (the last sorted
    position of each distinct event time, in any cell) from the slot's
    subject up to the cell's next one, 0 in the padding; a row's running
    sum is constant over them.  ``start[a]`` is the flat slot of the cell's
    first subject with ``y >= Y_a``.  An event-time position ends its tie
    group, so it lies at or after subject a exactly when it lies at or
    after a's tie-group start: 1{Y_a <= t} may switch on at ``start[a]``
    even when that tie group starts at a subject of another cell.
    """

    x: np.ndarray
    x_slots: np.ndarray
    events: np.ndarray
    start: np.ndarray


def _chunk_major(values: np.ndarray, pad: float) -> np.ndarray:
    """The last axis of ``values`` laid out chunk-major, ``pad`` in the padding."""
    n = values.shape[-1]
    width, chunks = _chunks(n)
    out = np.full(values.shape[:-1] + (width * chunks,), pad)
    out[..., _slot(np.arange(n), width, chunks)] = values
    return out.reshape(values.shape[:-1] + (width, chunks))


def _cv_table(ds: SurvivalDataset) -> tuple[_CvCell, ...]:
    if ds.meta.n_continuous == 0:
        raise ConfigurationError("no continuous covariates to select a bandwidth for")
    # A counted row is scored as its copies, so the leave-one-out rule
    # leaves out one subject, not the row.
    ds = ds._expanded()
    t = ds._time_order
    x = t.x[:, ds.meta.continuous_columns()]
    # before[k]: event-time positions before sorted position k.
    before = np.zeros(ds.n + 1)
    before[t.event_last + 1] = 1.0
    np.cumsum(before, out=before)
    cells = []
    for pos in ds._cells.positions:
        x_cell = np.ascontiguousarray(x[pos].T)
        cells.append(
            _CvCell(
                x=x_cell,
                x_slots=_chunk_major(x_cell, np.inf),
                events=_chunk_major(np.diff(before[pos], append=before[-1]), 0.0),
                start=_slot(np.searchsorted(pos, t.start[pos]), *_chunks(pos.size)),
            )
        )
    return tuple(cells)


# A row's residual is formed from its unnormalized running sums A and mass
# M as sum(A^2 * events) / M / M.  With M at least this, a term whose A^2
# underflows has (A / M)^2 < 2^-622, far below what a score can show; rows
# with less mass (a subnormal M, say) divide before squaring.
_FOLD_MIN_MASS = 2.0**-200


def _block_positions(slots: np.ndarray, m: int, chunks: int, batch: int) -> np.ndarray:
    """Flat position of slot ``slots[i]`` of row i % m, batch entry 0, in a
    block laid out as (width, batch, m, chunks)."""
    rows = np.arange(slots.size) % m
    return (slots // chunks) * (batch * m * chunks) + slots % chunks + rows * chunks


def _cv_scores(table: tuple[_CvCell, ...], grids: list[np.ndarray]) -> np.ndarray:
    """Criterion of every candidate in the product of per-covariate grids.

    ``grids`` holds one array of values per continuous covariate, and the
    scores come in :func:`itertools.product` order (the last covariate's
    value varies fastest).  Each cell's rows are cut once into blocks of
    :func:`_cv_block_rows` rows, for a batch of G candidates per row, and
    scored a block at a time (see :func:`_cv_block_scores`).  A candidate's
    score is the exactly rounded sum of its block sums (:func:`math.fsum`),
    whatever order the blocks come back in; a candidate under which no row
    has leave-one-out mass scores +inf.

    The blocks are independent.  When the scan holds at least
    :data:`_CV_FAN_OUT_PAIRS` pair-candidates (sum_k n_k^2 times the
    number of candidates) and the process may fan out (see
    :func:`fanout._free_workers`), they are cut into runs of consecutive
    blocks, about :data:`_CV_RUNS_PER_WORKER` per worker process, and the
    workers take the runs one at a time, costliest first (pairs of
    subjects in the run), so a worker that starts later or runs slower than
    the other takes fewer, and the last runs to finish are small.
    Otherwise one run takes every block, in this process.  Every score is
    the same for any worker count and any cut of the runs.  Each worker, or
    this process when one run takes every block, holds buffers of about
    :data:`_CV_BLOCK_BYTES` (1.5 MiB) each, or one row of G candidates
    where that is larger; beyond them memory is O(K + n) for K candidates,
    in each worker and in this process.
    """
    g = np.size(grids[-1])
    n_candidates = math.prod(np.size(grid) for grid in grids)
    blocks = []
    for k, cell in enumerate(table):
        n, step = cell.x.shape[1], _cv_block_rows(g * cell.events.size)
        blocks += [(k, lo, min(lo + step, n)) for lo in range(0, n, step)]
    pairs = n_candidates * sum(cell.x.shape[1] ** 2 for cell in table)
    workers = min(len(blocks), _free_workers()) if pairs >= _CV_FAN_OUT_PAIRS else 1
    per = -(-len(blocks) // (_CV_RUNS_PER_WORKER * workers)) if workers > 1 else len(blocks)
    runs = [blocks[lo : lo + per] for lo in range(0, len(blocks), per)]
    runs.sort(key=lambda run: sum((hi - lo) * table[k].x.shape[1] for k, lo, hi in run), reverse=True)
    shards = _fan_out(_cv_block_scores, [(table, grids, run) for run in runs], workers)
    sums = np.concatenate([block_sums for block_sums, _ in shards])
    has_mass = np.logical_or.reduce([mass for _, mass in shards])
    return np.where(has_mass, [math.fsum(column) for column in sums.T.tolist()], np.inf)


def _cv_block_scores(shard: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate residual sums of some blocks, and whether some row of
    them has leave-one-out mass under each candidate.

    ``shard`` is ``(table, grids, blocks)``, with ``blocks`` a list of
    (cell index, first row, end row) triples; row b of the returned sums
    belongs to block b, and column o * G + i of both returned arrays to the
    candidate of outer combination o and last-covariate value i.  The
    Gaussian constants cancel in the Nadaraya-Watson ratio, so row i of a
    candidate holds the weights exp(-sum_c D_c^2 / (2 h_c^2)) of its cell's
    subjects, in the cell's chunk-major layout (see :class:`_CvCell`).
    Their running sum in time order, less the row total M from ``start[i]``
    on, is M times H(t | X_i) - 1{Y_i <= t} at every event-time position
    up to the next subject.  The running sum takes two levels: an exclusive
    running sum of the chunk totals gives each chunk's first slot its
    offset, then c - 1 vector adds run down the slots of every chunk at
    once.  Folded into the residual, the squares times the ``events``
    counts are summed and then divided twice by M; rows with M below
    :data:`_FOLD_MIN_MASS` divide before squaring.

    The last covariate's grid is a batch axis.  A block of m rows is laid
    out as (c, G, m, chunks), slot k outermost, so each add of the running
    sum is one contiguous slice.  Each block forms its squared distances
    once per covariate and the last covariate's factors exp(-D^2 / (2 h^2))
    once per grid value; every combination of the other covariates
    multiplies them by its own factor.  A block's sums depend on its cell
    and rows only, not on the other blocks of the shard.
    """
    table, grids, blocks = shard
    n_cont = len(grids)
    # Every scale lies in [-max, -tiny]: it stays finite however small h is,
    # so a zero distance keeps weight 1 instead of becoming 0 * inf, and
    # negative however large h is, so an infinite distance (a padded slot,
    # or the row's own subject) has weight 0.  D^2 times it may overflow to
    # -inf, which is weight 0.
    finfo = np.finfo(float)
    with np.errstate(divide="ignore", over="ignore"):
        scales = [np.clip(-0.5 / np.square(np.asarray(g, dtype=float)), -finfo.max, -finfo.tiny) for g in grids]
    batch = scales[-1]
    outer = list(itertools.product(*scales[:-1]))
    g = batch.size
    size = max((hi - lo) * table[k].events.size for k, lo, hi in blocks)
    d2_work = np.empty((n_cont, size))
    outer_work = np.empty((2, size)) if n_cont > 1 else None
    factors = np.empty(g * size)
    weights = np.empty_like(factors) if n_cont > 1 else factors
    totals_work = np.empty(g * max((hi - lo) * table[k].events.shape[1] for k, lo, hi in blocks))
    offsets_work = np.empty_like(totals_work)
    mass_work = np.empty(g * max(hi - lo for _, lo, hi in blocks))
    resid_work = np.empty_like(mass_work)
    sums = np.empty((len(blocks), len(outer), g))
    has_mass = np.zeros((len(outer), g), dtype=bool)
    laid_out = None
    with np.errstate(over="ignore"):
        for b, (k, lo, hi) in enumerate(blocks):
            cell = table[k]
            width, chunks = cell.events.shape
            m = hi - lo
            r = g * m
            if laid_out != (k, m, lo % m):
                # Positions of each row's own slot, start slot and start
                # chunk, for this block and every block of m rows of the
                # cell that starts a multiple of m rows from it.
                laid_out, first = (k, m, lo % m), lo % m
                own_at = _block_positions(_slot(np.arange(first, cell.x.shape[1]), width, chunks), m, chunks, 1)
                start_at = _block_positions(cell.start[first:], m, chunks, g)
                chunk_at = _block_positions(cell.start[first:] % chunks, m, chunks, g)
                batch_at = (np.arange(g) * (m * chunks))[:, None]
            rows = slice(lo - first, hi - first)
            # Contiguous views, so a partial last block reshapes freely.
            d2 = d2_work[:, : width * m * chunks].reshape(n_cont, width, m, chunks)
            for c, (x, x_slots) in enumerate(zip(cell.x, cell.x_slots)):
                np.subtract(x_slots[:, None, :], x[lo:hi, None], out=d2[c])
                np.square(d2[c], out=d2[c])
            d2[-1].reshape(-1)[own_at[rows]] = np.inf
            f = factors[: g * width * m * chunks].reshape(width, g, m, chunks)
            # The products with the batch of scales, as an einsum over a
            # unit axis: the same products, in a faster loop.
            np.einsum("kiqj,gi->kgqj", d2[-1][:, None], batch[:, None], out=f)
            np.exp(f, out=f)
            start = start_at[rows] + batch_at
            start_chunk = chunk_at[rows] + batch_at
            for o, outer_scale in enumerate(outer):
                w = f
                if outer_scale:
                    e = outer_work[0, : width * m * chunks].reshape(width, m, chunks)
                    part = outer_work[1, : width * m * chunks].reshape(width, m, chunks)
                    for c, s in enumerate(outer_scale):
                        np.multiply(d2[c], s, out=part if c else e)
                        if c:
                            e += part
                    np.exp(e, out=e)
                    w = np.multiply(f, e[:, None], out=weights[: f.size].reshape(f.shape))
                w = w.reshape(width, r * chunks)
                totals = np.add.reduce(w, axis=0, out=totals_work[: r * chunks])
                mass = totals.reshape(r, chunks).sum(axis=1, out=mass_work[:r])
                w.reshape(-1)[start] -= mass.reshape(g, m)
                totals[start_chunk] -= mass.reshape(g, m)
                # Each chunk starts from the running sum of the chunk
                # totals before it, then adds its slots in turn.
                offsets = offsets_work[: r * chunks].reshape(r, chunks)
                offsets[:, 0] = 0.0
                np.cumsum(totals.reshape(r, chunks)[:, :-1], axis=1, out=offsets[:, 1:])
                w[0] += offsets.reshape(-1)
                for j in range(1, width):
                    np.add(w[j], w[j - 1], out=w[j])
                a = w.reshape(width, r, chunks)
                resid = np.einsum("krj,krj,kj->r", a, a, cell.events, out=resid_work[:r])
                folded = mass >= _FOLD_MIN_MASS
                scale = np.where(folded, mass, 1.0)
                resid /= scale
                resid /= scale
                # A row without mass has all-zero weights and a residual of 0.
                small = np.flatnonzero(~folded & (mass > 0.0))
                if small.size:
                    a_small = a[:, small] / mass[small, None]
                    resid[small] = np.einsum("krj,krj,kj->r", a_small, a_small, cell.events)
                resid.reshape(g, m).sum(axis=1, out=sums[b, o])
                has_mass[o] |= mass.reshape(g, m).max(axis=1) > 0.0
    return sums.reshape(len(blocks), -1), has_mass.reshape(-1)


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
    of event times; no n x T table is formed.  The running sum is a
    two-level scan over the cell's chunk-major columns, and each row's
    squared gaps are summed before they are divided by the row's squared
    mass (rows of mass below 2^-200 divide first, so nothing underflows).
    Subjects in different discrete cells have weight 0, so each cell of n_k
    subjects is scored on its own and the cost is O(sum_k n_k^2); no pair
    across cells is formed.  The blocks' sums are added exactly rounded
    (:func:`math.fsum`), so the score does not depend on how the rows are
    cut or where the blocks are scored.  This is the one-candidate case of
    the scan :func:`cv_bandwidth` makes.  A dataset with counts is scored
    as its expansion, each row repeated count times.  Memory is O(n) beyond a few
    blocks of rows of about 1.5 MiB each, held by each worker process where
    a large scan fans out (see :func:`cv_bandwidth`).
    """
    _check_bandwidth(b, ds.meta)
    return float(_cv_scores(_cv_table(ds), list(b.h[:, None]))[0])


def cv_bandwidth(ds: SurvivalDataset, grid: np.ndarray | None = None) -> Bandwidth:
    """Select the bandwidth by leave-one-out cross-validation.

    ``grid`` is a 1-D set of positive, finite candidates shared by every
    continuous covariate, :func:`default_grid` if omitted; with several
    continuous covariates the full product grid is scanned.  Each selected
    entry is truncated from above at :data:`DEFAULT_CAP`, 2.
    The criterion smooths with the Gaussian reference kernel (see
    :func:`cv_criterion`); the returned bandwidth is meant to feed the
    compact-support product kernel of the estimators.  The criterion is
    deterministic, and the first candidate of least finite score, in
    :func:`itertools.product` order, is selected.

    The bandwidth-free part of the criterion (time order, discrete cells,
    each cell's sorted covariates) is built once.  All candidates are then
    scored together, one discrete cell and a block of its rows at a time,
    with the last covariate's grid of G values as a batch axis: a block
    forms its squared distances once per covariate and the last covariate's
    Gaussian factors once per value, and each combination of the other
    covariates multiplies those factors by its own.  A G x G grid thus takes
    2G exponentials per pair of subjects instead of G^2.  The block is laid
    out chunk-major, slot outermost, so each row's running sum takes one
    vector add per slot of a chunk over the whole block and one running sum
    of the chunk totals; the residuals are divided by the row masses after
    they are summed (see :func:`_cv_block_scores`).  Only pairs within a
    cell are formed, so time is O(sum_k n_k^2) per candidate for cells of
    n_k subjects, O(n^2) without discrete covariates.  A dataset with counts
    (a bootstrap resample's, say) is scored as its expansion, each row
    repeated count times, so the leave-one-out rule leaves out one subject
    and n counts subjects.

    A scan of at least ten million pair-candidates (sum_k n_k^2 times the
    number of candidates) scores its blocks in worker processes, one per
    CPU this process may run on, when this process is not itself a worker
    and the multiprocessing start method is fork; the workers take runs of
    consecutive blocks, costliest first, as each is free, and every worker
    is joined before the call returns.  Each score is the exactly rounded
    sum of its block totals either way, so the selected bandwidth is the
    same for any worker count (see :func:`_cv_scores`).
    Memory is O(K + n) for K candidates beyond a few blocks of about
    1.5 MiB each (one row of G candidates where that is larger: 1.8 MiB at
    n = 8000, G = 30), in each worker and in this process.
    """
    if not ds.meta.standardized:
        raise ConfigurationError("bandwidth selection expects standardized covariates")
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ConfigurationError(f"bandwidth grid must be one-dimensional, got shape {grid.shape}")
    if grid.size == 0:
        raise ConfigurationError("bandwidth grid is empty")
    Bandwidth(grid)  # every candidate positive and finite, or Bandwidth's error
    table = _cv_table(ds)

    n_cont = ds.meta.n_continuous
    scores = _cv_scores(table, [grid] * n_cont)
    best = int(np.argmin(np.where(np.isfinite(scores), scores, np.inf)))  # the first of a tie
    if not np.isfinite(scores[best]):
        raise ConfigurationError("cross-validation criterion is degenerate on this grid")
    return Bandwidth(np.minimum(grid[list(np.unravel_index(best, (grid.size,) * n_cont))], DEFAULT_CAP))

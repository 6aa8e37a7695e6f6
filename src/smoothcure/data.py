"""Dataset container, CSV ingestion and covariate standardization.

A :class:`SurvivalDataset` holds right-censored follow-up data together with
two covariate blocks: ``x`` drives the probability of ever experiencing the
event (incidence) and always carries an intercept column of ones in front,
while ``z`` drives the event-time distribution of the susceptible subjects
(latency) and carries no intercept.  The two blocks may share columns.

Datasets are immutable after construction: all arrays are stored with the
writeable flag cleared, so they can be shared freely across threads and
worker processes.  The follow-up-time order that every estimator walks is
sorted once per dataset, on first use, and shared by all of them; so are the
grouping of the subjects into discrete-covariate cells and the rank check of
the latency covariates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateCovariateError, ParseError, SchemaError

__all__ = [
    "CovariateMeta",
    "CsvSchema",
    "SurvivalDataset",
    "destandardize_gamma",
    "load_csv",
    "standardize_continuous",
    "write_csv",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only C-contiguous array.  A writeable array is
    copied, so the caller's own array stays writeable and a later write to
    it cannot reach the copy; an array already read-only (another dataset's,
    say) is shared."""
    if a.flags.writeable or not a.flags.c_contiguous:
        a = np.array(a, order="C")
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CovariateMeta:
    """Per-column metadata for the non-intercept incidence covariates.

    ``means`` and ``sds`` are ``None`` until :func:`standardize_continuous`
    has run; afterwards discrete columns carry the identity transform
    ``(0, 1)`` and continuous columns the population mean and standard
    deviation that were subtracted and divided out.
    """

    names: tuple[str, ...]
    discrete: tuple[bool, ...]
    means: tuple[float, ...] | None = None
    sds: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.discrete) != len(self.names):
            raise SchemaError("one discrete flag is required per covariate name")
        if (self.means is None) != (self.sds is None):
            raise SchemaError("means and sds must be set together")
        if self.means is not None:
            if len(self.means) != len(self.names) or len(self.sds) != len(self.names):
                raise SchemaError("standardization parameters must match the covariates")
            for name, d, s in zip(self.names, self.discrete, self.sds):
                if not d and not s > 0.0:
                    raise DegenerateCovariateError(
                        f"continuous covariate {name!r} has non-positive standard deviation"
                    )

    @property
    def standardized(self) -> bool:
        return self.means is not None

    @property
    def n_continuous(self) -> int:
        return int(np.sum(~np.asarray(self.discrete, dtype=bool))) if self.names else 0

    def continuous_columns(self) -> np.ndarray:
        """Column indices into the full ``x`` block (intercept at 0)."""
        flags = np.asarray(self.discrete, dtype=bool)
        return np.flatnonzero(~flags) + 1

    def discrete_columns(self) -> np.ndarray:
        flags = np.asarray(self.discrete, dtype=bool)
        return np.flatnonzero(flags) + 1


@dataclass(frozen=True)
class _TimeOrder:
    """The subjects in follow-up-time order, with their tie groups and the
    per-dataset constants of the latency fit.

    ``order`` lists the subjects by ascending time, events before censored
    subjects within a tie; reversed, it runs by decreasing time with events
    after censored ties.  ``start[k]`` is the first sorted position with the
    time of sorted position k, so {j : Y_j >= Y_(k)} are the sorted
    positions from ``start[k]`` on.  ``event_times`` holds the distinct
    event times in ascending order, ``event_counts`` the events at each (as
    floats), and ``event_first`` and ``event_last`` the first and last
    sorted position with that time, censored ties included.

    Per sorted position: ``event`` marks the events, ``hazard_index`` counts
    the distinct event times at or before its time (so a step function on
    the event times, padded with its initial value in front, takes the
    value at that index there) and ``plateau`` marks the times beyond the
    last event time.  ``x`` and ``z`` hold the incidence and latency
    covariates in this order, and ``z_events`` the sum of z over the events,
    taken in subject order.
    """

    order: np.ndarray
    start: np.ndarray
    event_times: np.ndarray
    event_counts: np.ndarray
    event_first: np.ndarray
    event_last: np.ndarray
    event: np.ndarray
    hazard_index: np.ndarray
    plateau: np.ndarray
    x: np.ndarray
    z: np.ndarray
    z_events: np.ndarray


@dataclass(frozen=True)
class _Cells:
    """The subjects grouped by their discrete incidence covariates.

    Two subjects share a cell when every discrete covariate compares equal;
    with no discrete covariates all subjects share one cell.  ``keys[k]``
    holds cell k's discrete values and ``positions[k]`` its subjects' sorted
    positions in the dataset's time order, ascending.  Cells come in
    lexicographic order of their keys.
    """

    keys: np.ndarray
    positions: tuple[np.ndarray, ...]

    def of(self, values: np.ndarray) -> np.ndarray:
        """Cell index of each row of discrete ``values``, -1 where no cell matches."""
        k = self.keys.shape[0]
        labels = np.unique(np.concatenate([self.keys, values]), axis=0, return_inverse=True)[1]
        cell = np.full(labels.size, -1)
        cell[labels[:k]] = np.arange(k)
        return cell[labels[k:]]


@dataclass(frozen=True)
class SurvivalDataset:
    """Immutable container of (y, delta, x, z) rows plus covariate metadata."""

    y: np.ndarray
    delta: np.ndarray
    x: np.ndarray
    z: np.ndarray
    meta: CovariateMeta
    z_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        delta = np.asarray(self.delta, dtype=int)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        z = np.asarray(self.z, dtype=float)
        if z.ndim == 1:
            z = z.reshape(len(y), -1) if z.size else np.empty((len(y), 0))
        n = y.shape[0]
        if n < 2:
            raise ParseError("a dataset needs at least two subjects")
        if delta.shape != (n,) or x.shape[0] != n or z.shape[0] != n:
            raise ParseError("y, delta, x and z must have one row per subject")
        if not np.all(np.isfinite(y)) or np.any(y < 0):
            raise ParseError("follow-up times must be finite and nonnegative")
        for block, values in (("x", x), ("z", z)):
            if not np.all(np.isfinite(values)):
                raise ParseError(f"covariate block {block} must be finite")
        if not np.all((delta == 0) | (delta == 1)):
            raise ParseError("event indicators must be 0 or 1")
        if not np.any(delta == 1):
            raise ParseError("at least one event is required")
        if not np.all(x[:, 0] == 1.0):
            raise ParseError("first incidence covariate column must be the intercept 1")
        if x.shape[1] != len(self.meta.names) + 1:
            raise SchemaError("metadata does not match the incidence covariate count")
        if len(self.z_names) not in (0, z.shape[1]):
            raise SchemaError("z_names does not match the latency covariate count")
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "delta", _readonly(delta))
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "z", _readonly(z))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return self.z.shape[1]

    def __len__(self) -> int:
        return self.n

    @property
    def param_names(self) -> tuple[str, ...]:
        """Coefficient labels, incidence then latency: ``gamma_intercept``,
        ``gamma_<x name>``..., ``beta_<z name>``... (``beta_<j>`` for an
        unnamed latency column j)."""
        z_names = self.z_names or ("",) * self.q
        return (
            ("gamma_intercept",)
            + tuple(f"gamma_{c}" for c in self.meta.names)
            + tuple(f"beta_{c or j}" for j, c in enumerate(z_names))
        )

    @cached_property
    def _time_order(self) -> _TimeOrder:
        """The one sort by follow-up time, built on first use and then shared."""
        order = np.lexsort((1 - self.delta, self.y))
        y = self.y[order]
        event = self.delta[order] == 1
        first = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
        sizes = np.diff(first, append=self.n)
        events = np.add.reduceat(self.delta[order], first)
        has = events > 0
        last = (first + sizes - 1)[has]
        return _TimeOrder(
            order=_readonly(order),
            start=_readonly(np.repeat(first, sizes)),
            event_times=_readonly(y[first[has]]),
            event_counts=_readonly(events[has].astype(float)),
            event_first=_readonly(first[has]),
            event_last=_readonly(last),
            event=_readonly(event),
            hazard_index=_readonly(np.repeat(np.cumsum(has), sizes)),
            plateau=_readonly(np.arange(self.n) > last[-1]),
            x=_readonly(self.x[order]),
            z=_readonly(self.z[order]),
            z_events=_readonly(np.sum(self.z[self.delta == 1], axis=0)),
        )

    @cached_property
    def _cells(self) -> _Cells:
        """The discrete-covariate cells, grouped once on first use and then shared."""
        disc = self._time_order.x[:, self.meta.discrete_columns()]
        if disc.shape[1] == 0:
            return _Cells(keys=_readonly(np.empty((1, 0))), positions=(_readonly(np.arange(self.n)),))
        # A stable sort by the first column, then the second, ...; a cell
        # starts wherever a column differs from the row before (!=, so -0.0
        # joins 0.0).
        positions = np.lexsort(disc.T[::-1])
        rows = disc[positions]
        starts = np.flatnonzero(np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1))))
        return _Cells(
            keys=_readonly(rows[starts]),
            positions=tuple(_readonly(p) for p in np.split(positions, starts[1:])),
        )

    @cached_property
    def _z_full_rank(self) -> bool:
        """Whether the centred latency covariates have full column rank."""
        return bool(np.linalg.matrix_rank(self.z - self.z.mean(axis=0)) == self.q)

    def take(self, indices) -> "SurvivalDataset":
        """Row subset (e.g. a bootstrap resample), on the stored scale.

        Standardization parameters are dropped because they no longer
        describe the subset; re-standardize before kernel work.
        """
        idx = np.asarray(indices, dtype=int)
        meta = replace(self.meta, means=None, sds=None)
        return SurvivalDataset(
            self.y[idx], self.delta[idx], self.x[idx], self.z[idx], meta, self.z_names
        )


@dataclass(frozen=True)
class CsvSchema:
    """Column-role mapping for :func:`load_csv`.

    ``x_continuous`` and ``x_discrete`` together form the incidence block
    (in that order, after the intercept); ``z`` forms the latency block.
    The blocks may share column names.
    """

    time: str
    status: str
    x_continuous: tuple[str, ...] = ()
    x_discrete: tuple[str, ...] = ()
    z: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_continuous", tuple(self.x_continuous))
        object.__setattr__(self, "x_discrete", tuple(self.x_discrete))
        object.__setattr__(self, "z", tuple(self.z))
        overlap = set(self.x_continuous) & set(self.x_discrete)
        if overlap:
            raise SchemaError(f"columns listed as both continuous and discrete: {sorted(overlap)}")

    @property
    def x_names(self) -> tuple[str, ...]:
        return self.x_continuous + self.x_discrete


def _parse_cell(raw: str, column: str, row: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"row {row}: non-numeric value {raw!r} in column {column!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: non-finite value in column {column!r}")
    return value


def load_csv(path, schema: CsvSchema) -> SurvivalDataset:
    """Read a UTF-8 comma-separated file, byte-order mark allowed, with a header row into a dataset.

    The intercept column is prepended to the incidence block; row order is
    preserved.  Data rows are numbered from 1 in error messages.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        rows = list(reader)

    positions = {name: i for i, name in enumerate(header)}
    needed = (schema.time, schema.status) + schema.x_names + schema.z
    missing = sorted({c for c in needed if c not in positions})
    if missing:
        raise SchemaError(f"columns missing from {path}: {missing}")

    n = len(rows)
    y = np.empty(n)
    delta = np.empty(n, dtype=int)
    x = np.ones((n, len(schema.x_names) + 1))
    z = np.empty((n, len(schema.z)))
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ParseError(f"row {r}: expected {len(header)} fields, got {len(row)}")
        t = _parse_cell(row[positions[schema.time]], schema.time, r)
        if t < 0:
            raise ParseError(f"row {r}: negative follow-up time {t}")
        s = _parse_cell(row[positions[schema.status]], schema.status, r)
        if s not in (0.0, 1.0):
            raise ParseError(f"row {r}: status must be 0 or 1, got {row[positions[schema.status]]}")
        y[r - 1] = t
        delta[r - 1] = int(s)
        for j, name in enumerate(schema.x_names):
            x[r - 1, j + 1] = _parse_cell(row[positions[name]], name, r)
        for j, name in enumerate(schema.z):
            z[r - 1, j] = _parse_cell(row[positions[name]], name, r)

    meta = CovariateMeta(
        names=schema.x_names,
        discrete=(False,) * len(schema.x_continuous) + (True,) * len(schema.x_discrete),
    )
    return SurvivalDataset(y, delta, x, z, meta, z_names=schema.z)


def write_csv(ds: SurvivalDataset, path, time: str = "time", status: str = "status") -> None:
    """Write the dataset back out; a column that x and z share is written once.

    Raises :class:`SchemaError` where a column would be lost: a latency
    column without a name, or two columns that share a name but not their
    values.
    """
    if ds.q and not ds.z_names:
        raise SchemaError(f"latency covariate column 0 of {ds.q} has no name to write it under")
    columns: dict[str, np.ndarray] = {}
    named = [(time, ds.y), (status, ds.delta), *zip(ds.meta.names, ds.x[:, 1:].T), *zip(ds.z_names, ds.z.T)]
    for name, values in named:
        if name not in columns:
            columns[name] = values
        elif not np.array_equal(columns[name], values):
            raise SchemaError(f"two columns named {name!r} hold different values")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for i in range(ds.n):
            writer.writerow([format(col[i], ".17g") for col in columns.values()])


def standardize_continuous(ds: SurvivalDataset) -> SurvivalDataset:
    """Center and scale the continuous incidence covariates.

    Uses the sample standard deviation (denominator n - 1); any fixed
    convention works because bandwidths are selected after standardization.
    Discrete columns and the intercept pass through untouched; the returned
    dataset's ``meta`` records (mean, sd) per column so estimates can be
    mapped back to the original scale with :func:`destandardize_gamma`.
    """
    x = np.array(ds.x)
    means = []
    sds = []
    for j, (name, is_discrete) in enumerate(zip(ds.meta.names, ds.meta.discrete)):
        col = j + 1
        if is_discrete:
            means.append(0.0)
            sds.append(1.0)
            continue
        m = float(np.mean(x[:, col]))
        s = float(np.std(x[:, col], ddof=1))
        if not s > 0.0:
            raise DegenerateCovariateError(
                f"continuous covariate {name!r} is constant and cannot be standardized"
            )
        x[:, col] = (x[:, col] - m) / s
        means.append(m)
        sds.append(s)
    meta = replace(ds.meta, means=tuple(means), sds=tuple(sds))
    return SurvivalDataset(ds.y, ds.delta, x, ds.z, meta, ds.z_names)


def destandardize_gamma(gamma: np.ndarray, meta: CovariateMeta) -> np.ndarray:
    """Map incidence coefficients fitted on standardized covariates back.

    With x_std = (x - m) / s, the linear predictor is preserved by dividing
    each slope by s and absorbing the shifts into the intercept.
    """
    if not meta.standardized:
        return np.array(gamma, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    out = np.array(gamma)
    means = np.asarray(meta.means)
    sds = np.asarray(meta.sds)
    out[1:] = gamma[1:] / sds
    out[0] = gamma[0] - float(np.sum(gamma[1:] * means / sds))
    return out

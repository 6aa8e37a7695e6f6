"""Dataset container, CSV ingestion and covariate standardization.

A :class:`SurvivalDataset` holds right-censored follow-up data together with
two covariate blocks: ``x`` drives the probability of ever experiencing the
event (incidence) and always carries an intercept column of ones in front,
while ``z`` drives the event-time distribution of the susceptible subjects
(latency) and carries no intercept.  The two blocks may share columns.

A row may stand for several subjects with identical data: its count (a
bootstrap resample's multiplicity, say).  Every estimator weighs a counted
row by its count, so a counted dataset gives the estimates of its expansion,
each row repeated count times.

Datasets are immutable after construction: all arrays are stored with the
writeable flag cleared, so they can be shared freely across threads and
worker processes.  The follow-up-time order that every estimator walks is
sorted once per dataset, on first use, and shared by all of them; so are the
grouping of the subjects into discrete-covariate cells and the rank checks of
both covariate blocks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DegenerateCovariateError, ParseError, SchemaError

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
    taken in subject order.  With counts (see :class:`SurvivalDataset`),
    ``event_counts`` and ``z_events`` weigh each row by its count, and
    ``mass`` holds the counts in this order as floats; without, ``mass`` is
    the scalar 1.0, so a product with it leaves every value as it is.
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
    mass: np.ndarray | float


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
    """Immutable container of (y, delta, x, z) rows plus covariate metadata.

    ``counts``, when given, holds one positive integer per row: the number
    of subjects the row stands for.  ``None``, the default, means one per
    row and stores no array.  ``n`` is the number of rows and
    ``n_subjects`` the number of subjects, the sum of the counts.  Every
    estimator weighs a row by its count, so a counted dataset gives the
    estimates of its expansion (each row repeated count times), up to
    rounding.  A count of 0, a negative, fractional or non-finite count and
    a ``counts`` of the wrong length are a :class:`ParseError`.
    """

    y: np.ndarray
    delta: np.ndarray
    x: np.ndarray
    z: np.ndarray
    meta: CovariateMeta
    z_names: tuple[str, ...] = ()
    counts: np.ndarray | None = None

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
        if x.ndim != 2 or z.ndim != 2:
            raise ParseError(f"x and z must be (rows, columns) matrices, got shapes {x.shape} and {z.shape}")
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
        if self.counts is not None:
            object.__setattr__(self, "counts", _readonly(_checked_counts(self.counts, n)))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_subjects(self) -> int:
        return self.n if self.counts is None else int(np.sum(self.counts))

    @cached_property
    def _mass(self) -> np.ndarray | float:
        """The counts as floats in subject order, or the scalar 1.0 without counts."""
        return 1.0 if self.counts is None else _readonly(self.counts.astype(float))

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
        counted = self.delta if self.counts is None else self.delta * self.counts
        events = np.add.reduceat(counted[order], first)
        has = events > 0
        last = (first + sizes - 1)[has]
        z_events = self.z[self.delta == 1]
        if self.counts is not None:
            z_events = z_events * self._mass[self.delta == 1, None]
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
            z_events=_readonly(np.sum(z_events, axis=0)),
            mass=1.0 if self.counts is None else _readonly(self._mass[order]),
        )

    @cached_property
    def _cells(self) -> _Cells:
        """The discrete-covariate cells, grouped once on first use and then shared."""
        disc = self._time_order.x[:, self.meta.discrete_columns()]
        if disc.shape[1] == 0:
            keys, positions = np.empty((1, 0)), [np.arange(self.n)]
        else:
            # A stable sort by the first column, then the second, ...; a
            # cell starts wherever a column differs from the row before
            # (!=, so -0.0 joins 0.0).
            order = np.lexsort(disc.T[::-1])
            rows = disc[order]
            starts = np.flatnonzero(np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1))))
            keys, positions = rows[starts], np.split(order, starts[1:])
        return _Cells(keys=_readonly(keys), positions=tuple(_readonly(p) for p in positions))

    @cached_property
    def _z_full_rank(self) -> bool:
        """Whether the centred latency covariates have full column rank."""
        centre = self.z.mean(axis=0) if self.counts is None else self._mass @ self.z / self.n_subjects
        return bool(np.linalg.matrix_rank(self.z - centre) == self.q)

    @cached_property
    def _x_full_rank(self) -> bool:
        """Whether the incidence design has full column rank and more subjects than columns."""
        return self.n_subjects > self.p and bool(np.linalg.matrix_rank(self.x) == self.p)

    def _check_coefficients(self, gamma, beta=None) -> None:
        """A :class:`ConfigurationError` unless ``gamma`` holds one entry per
        column of x and ``beta`` (unless ``None``) one per column of z."""
        for name, coef, size, block in (("gamma", gamma, self.p, "x"), ("beta", beta, self.q, "z")):
            if coef is not None and np.shape(coef) != (size,):
                raise ConfigurationError(
                    f"{name} needs one entry per column of {block} ({size}), got shape {np.shape(coef)}"
                )

    def take(self, indices) -> "SurvivalDataset":
        """Row subset, on the stored scale: row i of the result is row
        ``indices[i]``, with its count where the dataset has counts.  A row
        taken twice is two rows.

        Standardization parameters are dropped because they no longer
        describe the subset; re-standardize before kernel work.
        """
        idx = np.asarray(indices, dtype=int)
        return self._rows(idx, None if self.counts is None else self.counts[idx])

    def _rows(self, idx: np.ndarray, counts: np.ndarray | None) -> "SurvivalDataset":
        """Rows ``idx`` with the given counts, standardization dropped."""
        meta = replace(self.meta, means=None, sds=None)
        return SurvivalDataset(
            self.y[idx], self.delta[idx], self.x[idx], self.z[idx], meta, self.z_names, counts
        )

    def _expanded(self) -> "SurvivalDataset":
        """Each row repeated count times, with no counts and the same metadata."""
        if self.counts is None:
            return self
        idx = np.repeat(np.arange(self.n), self.counts)
        return SurvivalDataset(self.y[idx], self.delta[idx], self.x[idx], self.z[idx], self.meta, self.z_names)


def _checked_counts(counts, n: int) -> np.ndarray:
    """``counts`` as an int64 array of n positive integers, or a :class:`ParseError`."""
    counts = np.asarray(counts)
    if counts.shape != (n,):
        raise ParseError(f"counts must hold one entry per row: shape {counts.shape} for {n} rows")
    if counts.dtype.kind not in "iuf":
        raise ParseError(f"counts must be numbers, got dtype {counts.dtype}")
    with np.errstate(invalid="ignore"):
        bad = ~(np.isfinite(counts) & (counts >= 1) & (counts == np.round(counts)))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ParseError(f"row {i + 1}: count must be a positive integer, got {counts[i]}")
    counts = counts.astype(np.int64)
    counts.setflags(write=False)
    return counts


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
    preserved.  Data rows are numbered from 1 in error messages.  A column
    the schema reads must appear once in the header, or
    :class:`SchemaError` names it.
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
    repeated = sorted({c for c in needed if header.count(c) > 1})
    if repeated:
        raise SchemaError(f"columns named more than once in {path}: {repeated}")

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
    values.  A dataset with counts is a :class:`ConfigurationError`: the
    file has no column to hold them.
    """
    if ds.counts is not None:
        raise ConfigurationError("a dataset with counts has no CSV form; the file has no count column")
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

    Uses the sample mean and standard deviation (denominator n - 1) over
    the subjects, each row weighed by its count; any fixed convention works
    because bandwidths are selected after standardization.  Without counts
    the moments are those of ``np.mean`` and ``np.std(ddof=1)``, bit for
    bit.  Discrete columns and the intercept pass through untouched; the
    returned dataset's ``meta`` records (mean, sd) per column so estimates
    can be mapped back to the original scale with
    :func:`destandardize_gamma`.
    """
    x = np.array(ds.x)
    weight, total = ds._mass, ds.n_subjects
    means = []
    sds = []
    for j, (name, is_discrete) in enumerate(zip(ds.meta.names, ds.meta.discrete)):
        col = j + 1
        if is_discrete:
            means.append(0.0)
            sds.append(1.0)
            continue
        m = float(np.sum(weight * x[:, col]) / total)
        dev = x[:, col] - m
        s = math.sqrt(np.sum(weight * (dev * dev)) / (total - 1))
        if not s > 0.0:
            raise DegenerateCovariateError(
                f"continuous covariate {name!r} is constant and cannot be standardized"
            )
        x[:, col] = (x[:, col] - m) / s
        means.append(m)
        sds.append(s)
    meta = replace(ds.meta, means=tuple(means), sds=tuple(sds))
    return SurvivalDataset(ds.y, ds.delta, x, ds.z, meta, ds.z_names, ds.counts)


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

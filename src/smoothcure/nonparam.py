"""Kaplan-Meier product-limit estimation and plateau diagnostics."""

from __future__ import annotations

import numpy as np

from .data import SurvivalDataset, _checked_counts
from .errors import NumericalError
from .latency_cox import StepFunction

__all__ = ["kaplan_meier", "plateau_fraction"]


def kaplan_meier(times: np.ndarray, deltas: np.ndarray, counts: np.ndarray | None = None) -> StepFunction:
    """Product-limit survival estimate, ties aggregated, right-continuous.

    Returned as a step function with initial value 1 and one drop per
    distinct event time; with no events at all the curve is identically 1.
    ``counts`` (a counted dataset's, say) weighs each entry by the subjects
    it stands for, in the events and in the risk sets; ``None`` counts each
    once.  Empty or non-finite times and deltas other than 0 or 1 are a
    :class:`NumericalError`; a count that is not a positive integer, or
    counts of the wrong length, a :class:`ParseError`.
    """
    times = np.asarray(times, dtype=float)
    deltas = np.asarray(deltas)
    if times.size == 0:
        raise NumericalError("empty input")
    if times.shape != deltas.shape:
        raise NumericalError("times and deltas must have the same length")
    if not np.all(np.isfinite(times)):
        raise NumericalError("times must be finite")
    if not np.all((deltas == 0) | (deltas == 1)):
        raise NumericalError("deltas must be 0 or 1")
    weights = np.ones(times.size, dtype=int) if counts is None else _checked_counts(counts, times.size)

    event_times, at = np.unique(times[deltas == 1], return_inverse=True)
    order = np.argsort(times, kind="stable")
    # The subjects with time >= each event time: a running sum from the end.
    at_risk = np.cumsum(weights[order][::-1])[::-1][np.searchsorted(times[order], event_times, side="left")]
    survival = np.cumprod(1.0 - np.bincount(at, weights=weights[deltas == 1]) / at_risk)
    return StepFunction(event_times, survival, initial=1.0)


def plateau_fraction(ds: SurvivalDataset) -> float:
    """Fraction of subjects observed strictly beyond the last event time,
    a counted row counting as its count.

    These are necessarily censored; they form the flat tail of the
    Kaplan-Meier curve and are the observations the zero-tail constraint
    assigns to the cured group.
    """
    t = ds._time_order
    return float(np.sum(t.plateau * t.mass) / ds.n_subjects)

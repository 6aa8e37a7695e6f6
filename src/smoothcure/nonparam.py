"""Kaplan-Meier product-limit estimation and plateau diagnostics."""

from __future__ import annotations

import numpy as np

from .data import SurvivalDataset
from .errors import NumericalError
from .latency_cox import StepFunction

__all__ = ["kaplan_meier", "plateau_fraction"]


def kaplan_meier(times: np.ndarray, deltas: np.ndarray) -> StepFunction:
    """Product-limit survival estimate, ties aggregated, right-continuous.

    Returned as a step function with initial value 1 and one drop per
    distinct event time; with no events at all the curve is identically 1.
    """
    times = np.asarray(times, dtype=float)
    deltas = np.asarray(deltas)
    if times.size == 0:
        raise NumericalError("empty input")
    if times.shape != deltas.shape:
        raise NumericalError("times and deltas must have the same length")
    if not np.all((deltas == 0) | (deltas == 1)):
        raise NumericalError("deltas must be 0 or 1")

    event_times, counts = np.unique(times[deltas == 1], return_counts=True)
    sorted_times = np.sort(times)
    at_risk = times.size - np.searchsorted(sorted_times, event_times, side="left")
    survival = np.cumprod(1.0 - counts / at_risk)
    return StepFunction(event_times, survival, initial=1.0)


def plateau_fraction(ds: SurvivalDataset) -> float:
    """Fraction of subjects observed strictly beyond the last event time.

    These are necessarily censored; they form the flat tail of the
    Kaplan-Meier curve and are the observations the zero-tail constraint
    assigns to the cured group.
    """
    return float(np.mean(ds._time_order.plateau))

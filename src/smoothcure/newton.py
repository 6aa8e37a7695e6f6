"""Damped Newton-Raphson maximization shared by the incidence and latency fits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["NewtonResult", "damped_newton"]

MAX_HALVINGS = 50


@dataclass(frozen=True)
class NewtonResult:
    """Final iterate, its objective value and score max-norm; ``converged``
    means the score max-norm dropped below the tolerance."""

    x: np.ndarray
    value: float
    score_norm: float
    iterations: int
    converged: bool


def _ascends(trial: float, value: float) -> bool:
    return bool(np.isfinite(trial) and trial >= value)


def damped_newton(
    objective: Callable[[np.ndarray], float],
    derivatives: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
) -> NewtonResult:
    """Maximize ``objective`` from ``x0`` by Newton steps with step halving.

    ``derivatives(x)`` returns the score at ``x`` and a function computing
    the information (minus the Hessian), so the information is only formed
    when a step is needed.  The objective is always evaluated at a point
    before its derivatives, so a caller may cache per-point work there.

    A step that lowers the objective is halved, at most 50 times, until it
    does not.  A non-finite direction or objective value is a failed step,
    never an ascent.  A singular or non-finite Newton system, a step that
    cannot be made ascending, or an exhausted ``max_iter`` ends the search
    with ``converged=False`` at the last accepted, finite state.  An empty
    ``x0`` is already at its optimum: its score max-norm is 0.
    """
    x = np.array(x0, dtype=float)
    value = objective(x)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        score, information = derivatives(x)
        score_norm = float(np.max(np.abs(score), initial=0.0))
        if score_norm < tol:
            return NewtonResult(x, value, score_norm, iterations - 1, True)
        try:
            newton = np.linalg.solve(information(), score)
        except np.linalg.LinAlgError:
            return NewtonResult(x, value, score_norm, iterations, False)
        if not np.all(np.isfinite(newton)):
            return NewtonResult(x, value, score_norm, iterations, False)
        step = newton
        trial = objective(x + step)
        if not _ascends(trial, value):
            # Near the optimum the objective comparison is noise-limited
            # while the score stays precise, so prefer the full Newton step
            # whenever it shrinks the score; halve only when far away.
            small = np.max(np.abs(newton)) < 1e-4 * (1.0 + np.max(np.abs(x)))
            if not (
                small
                and np.isfinite(trial)
                and np.max(np.abs(derivatives(x + newton)[0])) < score_norm
            ):
                halvings = 0
                while not _ascends(trial, value) and halvings < MAX_HALVINGS:
                    step = 0.5 * step
                    trial = objective(x + step)
                    halvings += 1
                if not _ascends(trial, value):
                    return NewtonResult(x, value, score_norm, iterations, False)
        x = x + step
        value = trial
    score_norm = float(np.max(np.abs(derivatives(x)[0]), initial=0.0))
    return NewtonResult(x, value, score_norm, iterations, score_norm < tol)

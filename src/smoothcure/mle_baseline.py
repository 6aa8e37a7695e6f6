"""Joint maximum-likelihood estimation of all model components by EM.

This is the classical comparator: the expectation step computes expected
susceptibility weights from the current parameters, and the maximization
step refits the incidence coefficients by weighted logistic regression, the
latency coefficients by the weighted partial likelihood, and the baseline
hazard by the Breslow-type update.  The loop is the one the two-step
estimator's latency fit runs; unlike there, the incidence coefficients are
re-estimated on every pass.

Non-convergence is a first-class outcome here: with small samples or no
usable plateau the incidence coefficients can drift without bound, and the
fit is returned at the iteration cap with ``converged=False`` and all
partial estimates attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .incidence import IncidenceFit, fit_incidence
from .latency_cox import LatencyFit, StepFunction, em_iterates, mixture_survival

__all__ = ["CureModelFit", "fit_mle_em", "observed_loglik"]


@dataclass(frozen=True)
class CureModelFit:
    """Full model estimate from either method, on the original covariate scale."""

    gamma: np.ndarray
    beta: np.ndarray
    Lambda: StepFunction
    loglik: float
    iterations: int
    converged: bool
    method: str
    loglik_path: np.ndarray | None = None
    incidence: IncidenceFit | None = None
    latency: LatencyFit | None = None
    bandwidth: np.ndarray | None = None
    pihat: np.ndarray | None = None


def observed_loglik(
    ds: SurvivalDataset, gamma: np.ndarray, beta: np.ndarray, Lambda: StepFunction
) -> float:
    """Average observed-data log-likelihood at the given parameters.

    Events contribute log of Lambda's jump at their time plus the linear
    predictor minus the cumulative hazard term; censored subjects contribute
    the log mixture of cure and susceptible survival, with the susceptible
    survival forced to zero beyond the last jump time.  An event time with
    no jump (or a censored term with zero mass) yields a -inf sentinel
    rather than an exception.
    """
    events = ds.delta == 1
    event_y = ds.y[events]
    if Lambda.times.size == 0:
        return float("-inf") if event_y.size else 0.0
    pos = np.searchsorted(Lambda.times, event_y)
    on_grid = (pos < Lambda.times.size) & (Lambda.times[np.minimum(pos, Lambda.times.size - 1)] == event_y)
    jump_sizes = np.where(on_grid, Lambda.jumps[np.minimum(pos, Lambda.times.size - 1)], 0.0)
    if np.any(jump_sizes <= 0.0):
        return float("-inf")
    hazard, _, survival = mixture_survival(ds, gamma, beta, Lambda)
    eta = ds.z @ np.asarray(beta, dtype=float)
    event_terms = np.log(jump_sizes) + eta[events] - hazard[events]
    mix = survival[~events]
    if np.any(mix <= 0.0):
        return float("-inf")
    return float((np.sum(event_terms) + np.sum(np.log(mix))) / ds.n)


def fit_mle_em(ds: SurvivalDataset, tol: float = 1e-7, max_iter: int = 500) -> CureModelFit:
    """Joint EM fit of incidence, latency and baseline hazard.

    Starts from a logistic fit that labels plateau-censored subjects cured
    and everyone else susceptible, plus the no-cure partial-likelihood and
    Breslow fits, and runs :func:`smoothcure.latency_cox.em_iterates` with
    the incidence refitted by :func:`fit_incidence` on every pass.  Stops
    when the largest parameter change (coefficients in max-norm, hazard
    across jump times) drops below ``tol``; hitting ``max_iter`` returns
    ``converged=False`` with the estimates reached.  The per-iteration
    observed log-likelihood trace is attached for audit; it is
    nondecreasing by the EM construction.
    """
    last_event = float(np.max(ds.y[ds.delta == 1]))
    plateau = (ds.delta == 0) & (ds.y > last_event)
    labels = np.where(plateau, 0.0, 1.0)
    gamma = fit_incidence(1.0 - labels, ds.x).gamma

    def refit_incidence(weights, gamma):
        inc = fit_incidence(1.0 - weights, ds.x, init=gamma)
        return inc.gamma, inc.converged

    path = []
    for gamma, latency in em_iterates(ds, gamma, refit_incidence, tol, max_iter):
        path.append(observed_loglik(ds, gamma, latency.beta, latency.Lambda))
    return CureModelFit(
        gamma=gamma,
        beta=latency.beta,
        Lambda=latency.Lambda,
        loglik=path[-1],
        iterations=latency.iterations,
        converged=latency.converged,
        method="mle",
        loglik_path=np.asarray(path),
        latency=latency,
    )

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
from .incidence import _log_phi_pair, _newton_incidence, fit_incidence
from .latency_cox import EM_MAX_ITER, EM_TOL, LatencyFit, StepFunction, em_iterates
from .latency_cox import _log_survival
from .newton import NewtonResult

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
    incidence: NewtonResult | None = None
    latency: LatencyFit | None = None
    bandwidth: np.ndarray | None = None
    pihat: np.ndarray | None = None


def observed_loglik(
    ds: SurvivalDataset, gamma: np.ndarray, beta: np.ndarray, Lambda: StepFunction
) -> float:
    """Average observed-data log-likelihood of the mixture cure model.

    An event contributes log phi + log of Lambda's jump at its time + beta'z
    + log S_u(Y), and a censored subject log(1 - phi + phi S_u(Y)), where
    S_u(Y) = exp(-Lambda(Y) e^{beta'z}) is forced to zero beyond the last
    jump time of Lambda (the zero-tail rule).  The censored term is formed
    as logaddexp(log(1 - phi), log phi + log S_u), so a saturated phi
    cannot round 1 - phi to zero.  An event time with no jump (or a
    censored term with zero mass) yields a -inf sentinel rather than an
    exception.
    """
    jumps = Lambda.jump_at(ds.y[ds.delta == 1])
    if np.any(jumps <= 0.0):
        return float("-inf")
    return _loglik(ds, gamma, beta, Lambda(ds.y), jumps, ds.y > Lambda.times[-1])


def _loglik(
    ds: SurvivalDataset,
    gamma: np.ndarray,
    beta: np.ndarray,
    cumhaz: np.ndarray,
    jumps: np.ndarray,
    beyond: np.ndarray,
) -> float:
    """:func:`observed_loglik` from Lambda(Y) per subject, Lambda's (positive)
    jump at each event's time and the zero-tail flags, in subject order."""
    events = ds.delta == 1
    log_phi, log_1m = _log_phi_pair(ds.x @ np.asarray(gamma, dtype=float))
    eta = ds.z @ np.asarray(beta, dtype=float)
    log_s_u = _log_survival(cumhaz, np.exp(eta), beyond)
    event_terms = log_phi[events] + np.log(jumps) + eta[events] + log_s_u[events]
    censored_terms = np.logaddexp(log_1m[~events], log_phi[~events] + log_s_u[~events])
    return float((np.sum(event_terms) + np.sum(censored_terms)) / ds.n)


def _state_loglik(ds: SurvivalDataset, state: LatencyFit) -> float:
    """:func:`observed_loglik` of an EM state, read off its cumulative hazard
    at the event times with no step function built: Lambda(Y) is a gather,
    an event's jump a difference of neighbors.  Same terms, same order."""
    t = ds._time_order
    index = np.empty(ds.n, dtype=int)
    index[t.order] = t.hazard_index
    padded = np.concatenate(([0.0], state.cumhaz))
    jumps = np.diff(padded)[index[ds.delta == 1] - 1]
    if np.any(jumps <= 0.0):
        return float("-inf")
    return _loglik(ds, state.gamma, state.beta, padded[index], jumps, ds.y > t.event_times[-1])


def fit_mle_em(ds: SurvivalDataset, tol: float = EM_TOL, max_iter: int = EM_MAX_ITER) -> CureModelFit:
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
    plateau = (ds.delta == 0) & (ds.y > ds._time_order.event_times[-1])
    labels = np.where(plateau, 0.0, 1.0)
    gamma = fit_incidence(1.0 - labels, ds.x).x

    def refit_incidence(weights, gamma):
        # The start fit above checked ds.x; the refits skip its rank check.
        inc = _newton_incidence(1.0 - weights, ds.x, init=gamma)
        return inc.x, inc.converged

    path = []
    for state in em_iterates(ds, gamma, refit_incidence, tol, max_iter):
        path.append(_state_loglik(ds, state))
    return CureModelFit(
        gamma=state.gamma,
        beta=state.beta,
        Lambda=state.Lambda,
        loglik=path[-1],
        iterations=state.iterations,
        converged=state.converged,
        method="mle",
        loglik_path=np.asarray(path),
        latency=state,
    )

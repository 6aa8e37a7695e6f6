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
from .incidence import fit_incidence
from .latency_cox import EM_MAX_ITER, EM_TOL, LatencyFit, StepFunction, _at_subject_times, _loglik, em_iterates
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
    cannot round 1 - phi to zero.  A counted row's term weighs as its count,
    and the mean is over subjects.  An event time with no jump (or a
    censored term with zero mass) yields a -inf sentinel rather than an
    exception; coefficients of the wrong length are a
    :class:`ConfigurationError`.
    """
    ds._check_coefficients(gamma, beta)
    events = ds.delta == 1
    # A Lambda with no jump times has no jump at an event either: -inf.
    cumhaz, beyond = _at_subject_times(ds, Lambda)
    return _loglik(ds.x, ds.z, events, gamma, beta, cumhaz, Lambda.jump_at(ds.y[events]), beyond, ds._mass)


def fit_mle_em(ds: SurvivalDataset, tol: float = EM_TOL, max_iter: int = EM_MAX_ITER) -> CureModelFit:
    """Joint EM fit of incidence, latency and baseline hazard.

    Starts from a logistic fit (:func:`fit_incidence`) that labels
    plateau-censored subjects cured and everyone else susceptible, plus the
    no-cure partial-likelihood and Breslow fits, and runs
    :func:`smoothcure.latency_cox.em_iterates` with the incidence refitted
    on every pass by :func:`fit_incidence` on the soft labels 1 - w, from
    the previous pass's coefficients.  Stops when the largest parameter
    change (coefficients in max-norm, hazard across jump times) drops
    below ``tol``; hitting ``max_iter`` returns ``converged=False`` with
    the estimates reached.  Each state's ``loglik`` is attached as the
    trace for audit; it is nondecreasing by the EM construction.
    """
    cured = np.empty(ds.n)
    cured[ds._time_order.order] = ds._time_order.plateau
    gamma = fit_incidence(ds, cured).x
    path = []
    for state in em_iterates(ds, gamma, lambda w, g: fit_incidence(ds, 1.0 - w, init=g), tol, max_iter):
        path.append(state.loglik)
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

"""Parametric incidence model and soft-label likelihood maximization.

The incidence model gives the probability of being susceptible as a logistic
function of covariates.  Fitting maximizes a binary log-likelihood in which
the 0/1 response is replaced by an estimated susceptibility probability (one
minus the presmoothed cure probability), by the damped Newton-Raphson of
:mod:`smoothcure.newton`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import SurvivalDataset
from .errors import ParseError, SingularHessianError
from .newton import NewtonResult, damped_newton

__all__ = ["fit_incidence"]


def expit(x):
    """Logistic function 1 / (1 + exp(-x)); 0, with no warning, where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def _log_phi_pair(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # log(phi) and log(1 - phi) without ever forming phi; exact for |eta| large.
    return -np.logaddexp(0.0, -eta), -np.logaddexp(0.0, eta)


def _soft_label(pihat: np.ndarray, x: np.ndarray, mass: np.ndarray | float = 1.0):
    """Objective and derivatives of the soft-label log-likelihood, in the
    form :func:`smoothcure.newton.damped_newton` takes them.

    The objective is the sum over rows of mass times ((1-pihat) log(phi) +
    pihat log(1-phi)) with phi = expit(x'gamma), ``mass`` being the rows'
    counts (the scalar 1.0 for one each); the score is the sum of mass
    times (label - phi) times the covariate row and the information the
    mass phi(1-phi)-weighted Gram matrix of x.  Terms with a zero
    coefficient contribute zero even when the paired log is -inf in the
    limit; both logs stay finite for finite linear predictors, so no
    masking is needed.
    """
    label = 1.0 - pihat

    def objective(gamma):
        log_phi, log_1m = _log_phi_pair(x @ gamma)
        return float(np.sum(mass * (label * log_phi + pihat * log_1m)))

    def derivatives(gamma):
        phi = expit(x @ gamma)
        return x.T @ (mass * (label - phi)), lambda: (x * (mass * (phi * (1.0 - phi)))[:, None]).T @ x

    return objective, derivatives


# A fit is reported as not converged when the likelihood maximum sits at
# infinity (quasi-separated boundary labels) even though the score has
# vanished numerically.  Two symptoms are checked: fitted |linear predictor|
# beyond double-precision saturation, and observed information that has
# collapsed to numerical zero along some direction relative to the sample
# size (a flat likelihood at the returned point).
LINPRED_SATURATION = 30.0
INFORMATION_FLOOR = 1e-8

# The Newton stop rule: the max-norm of the score, and a cap on iterations.
TOL = 1e-8
MAX_ITER = 100


def fit_incidence(ds: SurvivalDataset, pihat: np.ndarray, init: np.ndarray | None = None) -> NewtonResult:
    """Maximize the soft-label log-likelihood on the incidence design ``ds.x``
    by damped Newton-Raphson.

    ``pihat`` holds one cure probability per row of ``ds``; a counted row's
    term weighs as its count (see :class:`SurvivalDataset`).  A pihat of
    another shape, or outside [0, 1] (NaN included), is a
    :class:`ParseError`; a design without full column rank, or with no more
    subjects than columns, a :class:`SingularHessianError`.

    Convergence means the max-norm of the score dropped below :data:`TOL` at
    a genuine interior maximum: fits whose linear predictor saturated at
    double precision, or whose observed information collapsed to numerical
    zero along some direction, carry a maximum at infinity and report
    ``converged=False`` even with a vanished score.  Hitting
    :data:`MAX_ITER`, a singular Newton system, or a step that cannot be
    made ascending all return ``converged=False`` with the current state
    attached; nothing is raised for those, so callers such as the EM
    baseline can keep going with the partial update.
    """
    pihat = np.asarray(pihat, dtype=float)
    if pihat.shape != (ds.n,):
        raise ParseError(f"pihat must have one entry per row of x: shape {pihat.shape} for {ds.n} rows")
    if not np.all((pihat >= 0.0) & (pihat <= 1.0)):
        raise ParseError("pihat entries must lie in [0, 1]")
    if not ds._x_full_rank:
        raise SingularHessianError(
            f"incidence design is rank deficient or has no more subjects than columns (n={ds.n_subjects}, p={ds.p})"
        )
    objective, derivatives = _soft_label(pihat, ds.x, ds._mass)
    res = damped_newton(objective, derivatives, np.zeros(ds.p) if init is None else init, TOL, MAX_ITER)
    # Only a vanished score is checked for a maximum at infinity.
    if res.converged and not (
        float(np.max(np.abs(ds.x @ res.x))) <= LINPRED_SATURATION
        and float(np.min(np.linalg.eigvalsh(derivatives(res.x)[1]()))) >= INFORMATION_FLOOR * ds.n_subjects
    ):
        return replace(res, converged=False)
    return res

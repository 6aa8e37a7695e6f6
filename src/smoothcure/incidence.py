"""Parametric incidence model and soft-label likelihood maximization.

The incidence model gives the probability of being susceptible as a logistic
function of covariates.  Fitting maximizes a binary log-likelihood in which
the 0/1 response is replaced by an estimated susceptibility probability (one
minus the presmoothed cure probability), by the damped Newton-Raphson of
:mod:`smoothcure.newton`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularHessianError
from .newton import damped_newton

__all__ = [
    "IncidenceFit",
    "fit_incidence",
    "soft_label_hessian",
    "soft_label_loglik",
    "soft_label_score",
]


def expit(x):
    """Logistic function 1 / (1 + exp(-x)); 0, with no warning, where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def _log_phi_pair(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # log(phi) and log(1 - phi) without ever forming phi; exact for |eta| large.
    return -np.logaddexp(0.0, -eta), -np.logaddexp(0.0, eta)


def soft_label_loglik(gamma: np.ndarray, pihat: np.ndarray, x: np.ndarray) -> float:
    """Sum over subjects of (1-pihat) log(phi) + pihat log(1-phi).

    Terms with a zero coefficient contribute zero even when the paired log
    is -inf in the limit; both logs stay finite for finite linear predictors,
    so no masking is needed.
    """
    eta = np.asarray(x, dtype=float) @ np.asarray(gamma, dtype=float)
    log_phi, log_1m = _log_phi_pair(eta)
    pihat = np.asarray(pihat, dtype=float)
    return float(np.sum((1.0 - pihat) * log_phi + pihat * log_1m))


def soft_label_score(gamma: np.ndarray, pihat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient in gamma: sum of (label - phi) times the covariate row."""
    x = np.asarray(x, dtype=float)
    resid = (1.0 - np.asarray(pihat, dtype=float)) - expit(x @ np.asarray(gamma, dtype=float))
    return x.T @ resid


def soft_label_hessian(gamma: np.ndarray, pihat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hessian in gamma: minus the phi(1-phi)-weighted Gram matrix of x."""
    x = np.asarray(x, dtype=float)
    phi = expit(x @ np.asarray(gamma, dtype=float))
    return -(x * (phi * (1.0 - phi))[:, None]).T @ x


# A fit is reported as not converged when the likelihood maximum sits at
# infinity (quasi-separated boundary labels) even though the score has
# vanished numerically.  Two symptoms are checked: fitted |linear predictor|
# beyond double-precision saturation, and observed information that has
# collapsed to numerical zero along some direction relative to the sample
# size (a flat likelihood at the returned point).
LINPRED_SATURATION = 30.0
INFORMATION_FLOOR = 1e-8


@dataclass(frozen=True)
class IncidenceFit:
    gamma: np.ndarray
    loglik: float
    gradient_norm: float
    iterations: int
    converged: bool


def fit_incidence(
    pihat: np.ndarray,
    x: np.ndarray,
    init: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> IncidenceFit:
    """Maximize the soft-label log-likelihood by damped Newton-Raphson.

    Convergence means the max-norm of the score dropped below ``tol`` at a
    genuine interior maximum: fits whose linear predictor saturated at
    double precision, or whose observed information collapsed to numerical
    zero along some direction, carry a maximum at infinity and report
    ``converged=False`` even with a vanished score.  Hitting ``max_iter``,
    a singular Newton system, or a step that cannot be made ascending all
    return ``converged=False`` with the current state attached; nothing is
    raised for those, so callers such as the EM baseline can keep going
    with the partial update.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pihat = np.asarray(pihat, dtype=float)
    n, p = x.shape
    if pihat.shape != (n,):
        raise ValueError("pihat must have one entry per row of x")
    if np.any(pihat < 0.0) or np.any(pihat > 1.0):
        raise ValueError("pihat entries must lie in [0, 1]")
    if p >= n:
        raise SingularHessianError(f"need more subjects than parameters (n={n}, p={p})")
    if np.linalg.matrix_rank(x) < p:
        raise SingularHessianError("incidence design matrix is rank deficient")
    return _newton_incidence(pihat, x, init, tol, max_iter)


def _newton_incidence(
    pihat: np.ndarray,
    x: np.ndarray,
    init: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> IncidenceFit:
    """:func:`fit_incidence` without its input checks, for a caller that
    refits on the same float design matrix ``x`` it has already checked."""
    n, p = x.shape

    def derivatives(gamma):
        return soft_label_score(gamma, pihat, x), lambda: -soft_label_hessian(gamma, pihat, x)

    res = damped_newton(
        lambda gamma: soft_label_loglik(gamma, pihat, x),
        derivatives,
        np.zeros(p) if init is None else init,
        tol,
        max_iter,
    )
    # Only a vanished score is checked for a maximum at infinity.
    converged = (
        res.converged
        and float(np.max(np.abs(x @ res.x))) <= LINPRED_SATURATION
        and float(np.min(np.linalg.eigvalsh(-soft_label_hessian(res.x, pihat, x))))
        >= INFORMATION_FLOOR * n
    )
    return IncidenceFit(res.x, res.value, res.score_norm, res.iterations, converged)

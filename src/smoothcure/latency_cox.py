"""Proportional-hazards latency fitting and the EM loop of the cure model.

The susceptible-subject survival model is estimated by alternating two steps
until the parameters settle:

a) recompute each censored subject's expected susceptibility weight from the
   current incidence, baseline hazard and regression coefficients;
b) maximize the weight-adjusted partial likelihood for the coefficients and
   refresh the baseline cumulative hazard with the matching Breslow-type
   update.

The two-step estimator runs this loop with its incidence coefficients held
fixed (:func:`fit_latency`); the joint EM of :mod:`smoothcure.mle_baseline`
runs the same loop and also refits the incidence between a) and b).

Events always carry weight one.  The zero-tail convention forces the
susceptible survival to zero beyond the largest event time, so censored
subjects in the plateau get weight zero and drop out of every risk-set sum.
Ties follow the Breslow convention: every event at a time t sees the same
risk set {j : Y_j >= t}, censored subjects tied with it included.  The
partial likelihood is written in counting-process form, as sums over the
distinct event times rather than over subjects, each formed by one pass
over the subjects in the dataset's time order; its score and information
need no per-subject outer products.  The iteration starts from the fit that
ignores the cured fraction altogether.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .data import SurvivalDataset, _TimeOrder
from .errors import NumericalError, SingularHessianError
from .incidence import expit
from .newton import NewtonResult, damped_newton

__all__ = [
    "LatencyFit",
    "StepFunction",
    "breslow_update",
    "compute_weights",
    "em_iterates",
    "fit_latency",
    "profile_residual",
    "weighted_partial_fit",
]


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function.

    ``values[k]`` is the value on [times[k], times[k+1]); before the first
    time the function equals ``initial``.  Cumulative hazards use
    ``initial=0`` with nondecreasing values; survival curves use
    ``initial=1`` with nonincreasing values in [0, 1].  Monotonicity in one
    of the two directions (including the initial value) is enforced.
    """

    times: np.ndarray
    values: np.ndarray
    initial: float = 0.0

    def __post_init__(self) -> None:
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be one-dimensional and equally long")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("step function times and values must be finite")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("step function times must be strictly increasing")
        steps = np.diff(values, prepend=self.initial)
        if not (np.all(steps >= 0.0) or np.all(steps <= 0.0)):
            raise ValueError("step function values must be monotone from the initial value")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        padded = np.concatenate(([self.initial], self.values))
        out = padded[idx]
        return out if out.ndim else float(out)

    @property
    def jumps(self) -> np.ndarray:
        return np.diff(self.values, prepend=self.initial)

    def jump_at(self, t):
        """Jump size at exactly t, 0.0 where t is not a jump time; t may be an array."""
        t = np.asarray(t, dtype=float)
        k = np.searchsorted(self.times, t)
        # A sentinel past the last time, which no t equals, catches k == times.size.
        on_grid = np.append(self.times, np.nan)[k] == t
        out = np.where(on_grid, np.append(self.jumps, 0.0)[k], 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class LatencyFit:
    beta: np.ndarray
    Lambda: StepFunction
    weights: np.ndarray
    iterations: int
    converged: bool


def _log_susceptible_survival(
    ds: SurvivalDataset, beta: np.ndarray, Lambda: StepFunction
) -> np.ndarray:
    """log S_u(Y) per subject at its own time: -Lambda(Y) e^{beta'z}, and
    -inf beyond the last jump time of Lambda (the zero-tail rule)."""
    hazard = Lambda(ds.y) * np.exp(ds.z @ np.asarray(beta, dtype=float))
    return np.where(ds.y > Lambda.times[-1], -np.inf, -hazard)


def compute_weights(
    ds: SurvivalDataset, gamma: np.ndarray, beta: np.ndarray, Lambda: StepFunction
) -> np.ndarray:
    """Expected susceptibility per subject: 1 for events, and for a subject
    censored at Y the posterior phi S_u(Y) / (1 - phi + phi S_u(Y)), which is
    0 beyond the last jump time of Lambda."""
    phi = expit(ds.x @ np.asarray(gamma, dtype=float))
    num = phi * np.exp(_log_susceptible_survival(ds, beta, Lambda))
    den = 1.0 - phi + num
    with np.errstate(invalid="ignore"):
        g = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return np.where(ds.delta == 1, 1.0, g)


def _event_riskset_sums(t: _TimeOrder, values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over the risk set {j : Y_j >= t_k} of each distinct
    event time t_k.

    ``values`` holds one row per subject in the dataset's time order and may
    be (n,) or (n, d); summation runs by decreasing time, so ties (events
    with each other and with censored subjects) are aggregated exactly.
    """
    return np.cumsum(values[::-1], axis=0)[::-1][t.event_first]


def _partial_likelihood(ds: SurvivalDataset, weights: np.ndarray):
    """Objective and derivatives of the weighted log partial likelihood, in
    the form :func:`smoothcure.newton.damped_newton` takes them.

    Counting-process form with Breslow ties: with r_j = w_j e^{beta'z_j},
    d_k events at the k-th distinct event time t_k and s0_k, s1_k the risk-set
    sums of r and r z at t_k (z-bar_k = s1_k / s0_k), the objective is
    sum_events beta'z - sum_k d_k log s0_k, the score sum_events z -
    sum_k d_k z-bar_k and the information sum_j r_j A_j z_j z_j' -
    sum_k d_k z-bar_k z-bar_k', where A_j = sum_{t_k <= Y_j} d_k / s0_k is the
    Breslow hazard of the current iterate at Y_j.  Every sum runs over the
    subjects in time order once, so no (n, q^2) array is formed.  The
    exponentials are shifted by the largest linear predictor for overflow
    safety; the shift cancels in the score and the information.
    """
    t = ds._time_order
    z = ds.z[t.order]
    w = np.asarray(weights, dtype=float)[t.order]
    d = t.event_counts.astype(float)
    n_events = float(np.sum(d))
    z_events = np.sum(ds.z[ds.delta == 1], axis=0)
    # Risk weights and event-time sums at the point the objective saw last;
    # the Newton loop always asks for derivatives at that point.
    last: dict[str, np.ndarray] = {}

    def objective(beta):
        eta = z @ beta
        shift = float(np.max(eta))
        r = w * np.exp(eta - shift)
        s0 = _event_riskset_sums(t, r)
        if np.any(s0 <= 0.0):
            t_bad = t.event_times[np.flatnonzero(s0 <= 0.0)[0]]
            raise NumericalError(f"zero weighted risk-set mass at event time {t_bad}")
        last.update(beta=beta, r=r, s0=s0)
        return float(z_events @ beta - d @ np.log(s0) - n_events * shift)

    def derivatives(beta):
        if "beta" not in last or not np.array_equal(beta, last["beta"]):
            objective(beta)
        r, s0 = last["r"], last["s0"]
        zbar = _event_riskset_sums(t, r[:, None] * z) / s0[:, None]

        def information():
            hazard_jumps = np.zeros(ds.n)
            hazard_jumps[t.event_first] = d / s0
            ra = r * np.cumsum(hazard_jumps)
            return (z.T * ra) @ z - (zbar.T * d) @ zbar

        return z_events - d @ zbar, information

    return objective, derivatives


# The Newton stop rule of the weighted partial likelihood: the max-norm of
# the score, and a cap on iterations.
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 60


def weighted_partial_fit(
    ds: SurvivalDataset, weights: np.ndarray, init: np.ndarray | None = None
) -> NewtonResult:
    """Newton maximization of the weight-adjusted log partial likelihood.

    Each event contributes beta'Z_i minus the log of the weighted risk-set
    sum at its own time (Breslow ties).  The sums are formed in the
    dataset's time order at the distinct event times, in the
    counting-process form of :func:`_partial_likelihood`.  The estimate is
    the result's ``x``; the Newton stops on a score max-norm below
    :data:`NEWTON_TOL` or after :data:`NEWTON_MAX_ITER` steps.
    """
    if not ds._z_full_rank:
        raise SingularHessianError("latency covariates have singular variance")
    objective, derivatives = _partial_likelihood(ds, weights)
    x0 = np.zeros(ds.q) if init is None else init
    return damped_newton(objective, derivatives, x0, NEWTON_TOL, NEWTON_MAX_ITER)


def breslow_update(ds: SurvivalDataset, weights: np.ndarray, beta: np.ndarray) -> StepFunction:
    """Baseline cumulative hazard with one jump per distinct event time.

    The jump at t is the number of events at t divided by the weighted
    risk-set sum of e^{beta'z} over {j : Y_j >= t}.
    """
    t = ds._time_order
    r = np.asarray(weights, dtype=float) * np.exp(ds.z @ np.asarray(beta, dtype=float))
    denom = _event_riskset_sums(t, r[t.order])
    if np.any(denom <= 0.0):
        t_bad = t.event_times[np.flatnonzero(denom <= 0.0)[0]]
        raise NumericalError(f"zero weighted risk-set mass at event time {t_bad}")
    return StepFunction(t.event_times, np.cumsum(t.event_counts / denom))


def em_iterates(
    ds: SurvivalDataset,
    gamma: np.ndarray,
    incidence_step: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, bool]],
    tol: float,
    max_iter: int,
) -> Iterator[tuple[np.ndarray, LatencyFit]]:
    """EM for the mixture cure model: yields (gamma, latency) after each pass.

    The start (pass 0) pairs ``gamma`` with the fit that ignores the cured
    fraction.  Each pass takes the expected susceptibility weights of the
    current state, updates the incidence by ``incidence_step(weights,
    gamma)`` (new coefficients and whether that update converged), maximizes
    the weighted partial likelihood and refreshes the baseline hazard.  The
    passes stop once the largest change (coefficients in max-norm, hazard
    across jump times) drops below ``tol``, or after ``max_iter`` passes.  A
    stalled update only counts as convergence when the inner maximizations
    themselves succeeded: a failed M-step that cannot move is no fixed point.
    """
    ones = np.ones(ds.n)
    beta = weighted_partial_fit(ds, ones).x
    Lambda = breslow_update(ds, ones, beta)
    iterations, settled, converged = 0, False, False
    while True:
        w = compute_weights(ds, gamma, beta, Lambda)
        yield gamma, LatencyFit(beta, Lambda, w, iterations, converged)
        if settled or iterations >= max_iter:
            return
        iterations += 1
        new_gamma, incidence_converged = incidence_step(w, gamma)
        pf = weighted_partial_fit(ds, w, init=beta)
        new_Lambda = breslow_update(ds, w, pf.x)
        steps = [new_gamma - gamma, pf.x - beta, new_Lambda.values - Lambda.values]
        change = np.max(np.abs(np.concatenate(steps)))
        gamma, beta, Lambda = new_gamma, pf.x, new_Lambda
        settled = bool(change < tol)
        converged = settled and incidence_converged and pf.converged


def fit_latency(
    ds: SurvivalDataset,
    gamma_hat: np.ndarray,
    tol: float = 1e-7,
    max_iter: int = 500,
) -> LatencyFit:
    """Alternate weight and (beta, Lambda) updates from the no-cure start.

    Runs :func:`em_iterates` with the incidence coefficients held fixed.
    The returned weights are those of the final parameters, so the returned
    triple is self-consistent for :func:`profile_residual`.
    """
    gamma_hat = np.asarray(gamma_hat, dtype=float)
    for _, latency in em_iterates(ds, gamma_hat, lambda w, gamma: (gamma, True), tol, max_iter):
        pass
    return latency


def profile_residual(
    ds: SurvivalDataset, gamma: np.ndarray, beta: np.ndarray, Lambda: StepFunction
) -> float:
    """Largest gap between Lambda's jumps and the jumps it induces.

    Plugs the expected susceptibility weights computed from (gamma, beta,
    Lambda) back into the Breslow-type update; at an exact profile fixed
    point the induced jumps reproduce Lambda's own.
    """
    w = compute_weights(ds, gamma, beta, Lambda)
    implied = breslow_update(ds, w, beta)
    if implied.times.shape != Lambda.times.shape or not np.all(implied.times == Lambda.times):
        raise NumericalError("step function is not supported on the event times")
    return float(np.max(np.abs(Lambda.jumps - implied.jumps)))

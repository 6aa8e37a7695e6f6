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
Ties are handled through risk-set sums evaluated at each event's own time
(Breslow convention), and the iteration starts from the fit that ignores the
cured fraction altogether.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .data import SurvivalDataset
from .errors import NumericalError, SingularHessianError
from .incidence import expit
from .newton import damped_newton

__all__ = [
    "LatencyFit",
    "PartialLikelihoodFit",
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

    def jump_at(self, t: float) -> float:
        """Jump size at exactly t (0.0 when t is not a jump time)."""
        k = np.searchsorted(self.times, t)
        if k < self.times.size and self.times[k] == t:
            return float(self.jumps[k])
        return 0.0


@dataclass(frozen=True)
class PartialLikelihoodFit:
    beta: np.ndarray
    converged: bool
    iterations: int
    score_norm: float


@dataclass(frozen=True)
class LatencyFit:
    beta: np.ndarray
    Lambda: StepFunction
    weights: np.ndarray
    iterations: int
    converged: bool
    last_event_time: float


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


def _riskset_sums(ds: SurvivalDataset, values: np.ndarray) -> np.ndarray:
    """For each subject i, the sum of ``values`` over {j : Y_j >= Y_i}.

    ``values`` may be (n,) or (n, d); summation runs in the dataset's fixed
    descending time order, so ties are aggregated exactly.
    """
    t = ds._time_order
    tail = np.cumsum(values[t.order][::-1], axis=0)[::-1]
    out = np.empty_like(values, dtype=float)
    out[t.order] = tail[t.start]
    return out


def weighted_partial_fit(
    ds: SurvivalDataset,
    weights: np.ndarray,
    init: np.ndarray | None = None,
    tol: float = 1e-9,
    max_iter: int = 60,
) -> PartialLikelihoodFit:
    """Newton maximization of the weight-adjusted log partial likelihood.

    Each event contributes beta'Z_i minus the log of the weighted risk-set
    sum at its own time.  Risk-set exponentials are shifted by the largest
    linear predictor for overflow safety; the shift cancels in the score.
    """
    weights = np.asarray(weights, dtype=float)
    events = ds.delta == 1
    if not np.any(events):
        raise NumericalError("partial likelihood needs at least one event")
    z = ds.z
    q = ds.q
    if not ds._z_full_rank:
        raise SingularHessianError("latency covariates have singular variance")

    zz = (z[:, :, None] * z[:, None, :]).reshape(ds.n, q * q)
    # Risk weights and risk-set sums at the point the objective saw last;
    # the Newton loop always asks for derivatives at that point, so each
    # iteration costs three risk-set sums (trial point, s1 and s2).
    last: dict[str, np.ndarray] = {}

    def objective(beta):
        eta = z @ beta
        shift = float(np.max(eta))
        r = weights * np.exp(eta - shift)
        s0 = _riskset_sums(ds, r)
        bad = events & (s0 <= 0.0)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise NumericalError(f"risk set at event index {i} (time {ds.y[i]}) has zero mass")
        last.update(beta=beta, r=r, s0=s0)
        return float(np.sum(eta[events] - np.log(s0[events]) - shift))

    def derivatives(beta):
        if not np.array_equal(beta, last["beta"]):
            objective(beta)
        r, s0 = last["r"], last["s0"]
        zbar = _riskset_sums(ds, r[:, None] * z)[events] / s0[events, None]

        def information():
            s2 = _riskset_sums(ds, r[:, None] * zz).reshape(ds.n, q, q)
            return np.sum(
                s2[events] / s0[events, None, None] - zbar[:, :, None] * zbar[:, None, :], axis=0
            )

        return np.sum(z[events] - zbar, axis=0), information

    res = damped_newton(objective, derivatives, np.zeros(q) if init is None else init, tol, max_iter)
    return PartialLikelihoodFit(res.x, res.converged, res.iterations, res.score_norm)


def breslow_update(ds: SurvivalDataset, weights: np.ndarray, beta: np.ndarray) -> StepFunction:
    """Baseline cumulative hazard with one jump per distinct event time.

    The jump at t is the number of events at t divided by the weighted
    risk-set sum of e^{beta'z} over {j : Y_j >= t}.
    """
    t = ds._time_order
    r = np.asarray(weights, dtype=float) * np.exp(ds.z @ np.asarray(beta, dtype=float))
    denom = np.cumsum(r[t.order][::-1])[::-1][t.event_first]
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
    beta = weighted_partial_fit(ds, ones).beta
    Lambda = breslow_update(ds, ones, beta)
    last_event = float(Lambda.times[-1])
    iterations, settled, converged = 0, False, False
    while True:
        w = compute_weights(ds, gamma, beta, Lambda)
        yield gamma, LatencyFit(beta, Lambda, w, iterations, converged, last_event)
        if settled or iterations >= max_iter:
            return
        iterations += 1
        new_gamma, incidence_converged = incidence_step(w, gamma)
        pf = weighted_partial_fit(ds, w, init=beta)
        new_Lambda = breslow_update(ds, w, pf.beta)
        steps = [new_gamma - gamma, pf.beta - beta, new_Lambda.values - Lambda.values]
        change = np.max(np.abs(np.concatenate(steps)))
        gamma, beta, Lambda = new_gamma, pf.beta, new_Lambda
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

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

Events always carry weight one, and a counted row (see
:class:`smoothcure.data.SurvivalDataset`) enters every sum as its count
times its weight, its events as many events.  The zero-tail convention forces the
susceptible survival to zero beyond the largest event time, so censored
subjects in the plateau get weight zero and drop out of every risk-set sum.
Ties follow the Breslow convention: every event at a time t sees the same
risk set {j : Y_j >= t}, censored subjects tied with it included.  The
partial likelihood is written in counting-process form, as sums over the
distinct event times rather than over subjects, each formed by one pass
over the subjects in the dataset's time order; its score and information
need no per-subject outer products.  The iteration starts from the fit that
ignores the cured fraction altogether, or from a given earlier fit.

The passes work on what the weights change and nothing else, and read the
dataset only through its time order.  What a dataset fixes is built once,
with that order: both covariate blocks and the event indicator in that
order, each subject's event-time index, the plateau mask and the sum of z
over the events; with the incidence held fixed, phi is formed once per fit.
Within a pass Lambda(Y) is a gather from the cumulative hazard, e^{beta'z}
is formed once for both the Breslow update and the next weights, and the
weights stay in time order.  Each state is a :class:`LatencyFit`, the last
one the fit itself; its step function, subject-order weights and observed
log-likelihood are formed only when read.  :func:`compute_weights`,
:func:`weighted_partial_fit` and :func:`breslow_update` take subject order
and wrap the same formulas, so they agree with the passes bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .data import SurvivalDataset, _readonly, _TimeOrder
from .errors import ConfigurationError, NumericalError, ParseError, SingularHessianError
from .incidence import _log_phi_pair, expit
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
    of the two directions (including the initial value) is enforced: times
    and values that break it, or are not finite, one-dimensional and
    equally long, are a :class:`ParseError`.
    """

    times: np.ndarray
    values: np.ndarray
    initial: float = 0.0

    def __post_init__(self) -> None:
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if times.shape != values.shape or times.ndim != 1:
            raise ParseError("times and values must be one-dimensional and equally long")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ParseError("step function times and values must be finite")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ParseError("step function times must be strictly increasing")
        steps = np.diff(values, prepend=self.initial)
        if not (np.all(steps >= 0.0) or np.all(steps <= 0.0)):
            raise ParseError("step function values must be monotone from the initial value")
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "values", _readonly(values))

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


def _log_survival(cumhaz: np.ndarray, risk: np.ndarray, beyond: np.ndarray) -> np.ndarray:
    """log S_u(Y) = -Lambda(Y) e^{beta'z} from Lambda(Y) and e^{beta'z}, and
    -inf where Y lies beyond the last jump time of Lambda (the zero-tail rule)."""
    return np.where(beyond, -np.inf, -(cumhaz * risk))


def _loglik(
    x: np.ndarray, z: np.ndarray, event: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
    cumhaz: np.ndarray, jumps: np.ndarray, beyond: np.ndarray, mass: np.ndarray | float,
) -> float:
    """:func:`smoothcure.mle_baseline.observed_loglik` from the covariate rows
    and event flags, Lambda(Y) per row, Lambda's jump at each event's time,
    the zero-tail flags and the rows' counts (the scalar 1.0 for one each),
    in any one order of the subjects: the count-weighted mean of the rows'
    terms.  A jump that is not positive gives -inf."""
    if np.any(jumps <= 0.0):
        return float("-inf")
    log_phi, log_1m = _log_phi_pair(x @ np.asarray(gamma, dtype=float))
    eta = z @ np.asarray(beta, dtype=float)
    log_s_u = _log_survival(cumhaz, np.exp(eta), beyond)
    mass = np.broadcast_to(mass, event.shape)
    event_terms = log_phi[event] + np.log(jumps) + eta[event] + log_s_u[event]
    censored_terms = np.logaddexp(log_1m[~event], log_phi[~event] + log_s_u[~event])
    total = np.sum(event_terms * mass[event]) + np.sum(censored_terms * mass[~event])
    return float(total / np.sum(mass))


def _at_subject_times(ds: SurvivalDataset, Lambda: StepFunction) -> tuple[np.ndarray, np.ndarray]:
    """Lambda(Y) per subject and whether Y lies beyond Lambda's last jump time (every Y if none)."""
    return Lambda(ds.y), ds.y > np.max(Lambda.times, initial=-np.inf)


def _susceptibility(phi: np.ndarray, log_survival: np.ndarray, event: np.ndarray) -> np.ndarray:
    """1 for events, and phi S_u(Y) / (1 - phi + phi S_u(Y)) for the others."""
    num = phi * np.exp(log_survival)
    den = 1.0 - phi + num
    with np.errstate(invalid="ignore"):
        g = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return np.where(event, 1.0, g)


def compute_weights(
    ds: SurvivalDataset, gamma: np.ndarray, beta: np.ndarray, Lambda: StepFunction
) -> np.ndarray:
    """Expected susceptibility per subject: 1 for events, and for a subject
    censored at Y the posterior phi S_u(Y) / (1 - phi + phi S_u(Y)), which is
    0 beyond the last jump time of Lambda.  Coefficients of the wrong length
    are a :class:`ConfigurationError`."""
    ds._check_coefficients(gamma, beta)
    if Lambda.times.size == 0:
        raise NumericalError("cumulative hazard has no jump times")
    phi = expit(ds.x @ np.asarray(gamma, dtype=float))
    cumhaz, beyond = _at_subject_times(ds, Lambda)
    risk = np.exp(ds.z @ np.asarray(beta, dtype=float))
    return _susceptibility(phi, _log_survival(cumhaz, risk, beyond), ds.delta == 1)


def _event_riskset_sums(t: _TimeOrder, values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over the risk set {j : Y_j >= t_k} of each distinct
    event time t_k.

    ``values`` holds one row per subject in the dataset's time order and may
    be (n,) or (n, d); summation runs by decreasing time, so ties (events
    with each other and with censored subjects) are aggregated exactly.
    """
    return np.cumsum(values[::-1], axis=0)[::-1][t.event_first]


def _riskset_mass(t: _TimeOrder, r: np.ndarray) -> np.ndarray:
    """:func:`_event_riskset_sums` of the risk weights ``r``, all positive or
    a :class:`NumericalError` that names the first event time where one is
    zero or not a number (an overflowed e^{beta'z} times a zero weight)."""
    s0 = _event_riskset_sums(t, r)
    if not np.all(s0 > 0.0):
        k = np.flatnonzero(~(s0 > 0.0))[0]
        raise NumericalError(f"weighted risk-set mass {s0[k]} at event time {t.event_times[k]}")
    return s0


def _at_own_times(t: _TimeOrder, cumhaz: np.ndarray) -> np.ndarray:
    """A cumulative hazard given at the event times, read at each subject's
    own time Y, in the time order: 0 before the first event time."""
    return np.concatenate(([0.0], cumhaz))[t.hazard_index]


def _partial_likelihood(t: _TimeOrder, w: np.ndarray):
    """Objective and derivatives of the weighted log partial likelihood, in
    the form :func:`smoothcure.newton.damped_newton` takes them, for the
    weights ``w`` in the dataset's time order.

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
    z, d = t.z, t.event_counts
    n_events = float(np.sum(d))
    # Risk weights and event-time sums at the point the objective saw last;
    # the Newton loop always asks for derivatives at that point.
    last: dict[str, np.ndarray] = {}

    def objective(beta):
        eta = z @ beta
        shift = float(np.max(eta))
        r = w * np.exp(eta - shift)
        s0 = _riskset_mass(t, r)
        last.update(beta=beta, r=r, s0=s0)
        return float(t.z_events @ beta - d @ np.log(s0) - n_events * shift)

    def derivatives(beta):
        if "beta" not in last or not np.array_equal(beta, last["beta"]):
            objective(beta)
        r, s0 = last["r"], last["s0"]
        zbar = _event_riskset_sums(t, r[:, None] * z) / s0[:, None]

        def information():
            ra = r * _at_own_times(t, np.cumsum(d / s0))
            return (z.T * ra) @ z - (zbar.T * d) @ zbar

        return t.z_events - d @ zbar, information

    return objective, derivatives


# The Newton stop rule of the weighted partial likelihood: the max-norm of
# the score, and a cap on iterations.
NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 60

# The default stop rule of the latency EM, for both fitters: the largest
# parameter change per pass, and a cap on passes.
EM_TOL = 1e-7
EM_MAX_ITER = 500


def _check_stop_rule(tol: float, max_iter: int) -> None:
    """A :class:`ConfigurationError` unless ``tol`` is positive and finite
    and ``max_iter`` an integer of at least 1: no EM pass could honour
    another stop rule."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ConfigurationError(f"the EM tolerance must be positive and finite, got tol={tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ConfigurationError(f"the EM needs an integer pass cap of at least 1, got max_iter={max_iter!r}")


def _partial_fit(ds: SurvivalDataset, w: np.ndarray, init: np.ndarray | None) -> NewtonResult:
    """:func:`weighted_partial_fit` for weights ``w`` in the dataset's time order."""
    if not ds._z_full_rank:
        raise SingularHessianError("latency covariates have singular variance")
    objective, derivatives = _partial_likelihood(ds._time_order, w)
    x0 = np.zeros(ds.q) if init is None else init
    return damped_newton(objective, derivatives, x0, NEWTON_TOL, NEWTON_MAX_ITER)


def weighted_partial_fit(
    ds: SurvivalDataset, weights: np.ndarray, init: np.ndarray | None = None
) -> NewtonResult:
    """Newton maximization of the weight-adjusted log partial likelihood.

    Each event contributes beta'Z_i minus the log of the weighted risk-set
    sum at its own time (Breslow ties); a counted row weighs as its count
    times its weight.  The sums are formed in the
    dataset's time order at the distinct event times, in the
    counting-process form of :func:`_partial_likelihood`.  The estimate is
    the result's ``x``; the Newton stops on a score max-norm below
    :data:`NEWTON_TOL` or after :data:`NEWTON_MAX_ITER` steps.
    """
    t = ds._time_order
    return _partial_fit(ds, np.asarray(weights, dtype=float)[t.order] * t.mass, init)


def _breslow_cumhaz(t: _TimeOrder, r: np.ndarray) -> np.ndarray:
    """Cumulative hazard at the event times from the risk weights r_j =
    w_j e^{beta'z_j} in the time order: one jump per event time, the events
    there over the risk-set sum of r."""
    cumhaz = np.cumsum(t.event_counts / _riskset_mass(t, r))
    # The jumps are positive, so finite values are a valid step function.
    if not np.all(np.isfinite(cumhaz)):
        raise NumericalError("baseline cumulative hazard is not finite")
    # Read-only, so the StepFunction of a state's Lambda shares it, no copy.
    cumhaz.setflags(write=False)
    return cumhaz


def breslow_update(ds: SurvivalDataset, weights: np.ndarray, beta: np.ndarray) -> StepFunction:
    """Baseline cumulative hazard with one jump per distinct event time.

    The jump at t is the number of events at t divided by the weighted
    risk-set sum of e^{beta'z} over {j : Y_j >= t}; a counted row weighs as
    its count times its weight, and its events count as many times.
    """
    t = ds._time_order
    r = np.asarray(weights, dtype=float) * ds._mass * np.exp(ds.z @ np.asarray(beta, dtype=float))
    return StepFunction(t.event_times, _breslow_cumhaz(t, r[t.order]))


@dataclass(frozen=True)
class LatencyFit:
    """One state of :func:`em_iterates`, held in the dataset's time order.
    The last state is the latency fit: :func:`fit_latency` returns it, and
    ``CureModelFit.latency`` holds it for either method.

    ``cumhaz`` is the baseline cumulative hazard at the dataset's event
    times and ``sorted_weights`` the expected susceptibility weights of the
    state in the time order ``t``; ``Lambda``, ``weights`` (subject order)
    and ``loglik`` are formed from them on first use.
    """

    gamma: np.ndarray
    beta: np.ndarray
    cumhaz: np.ndarray
    sorted_weights: np.ndarray
    iterations: int
    converged: bool
    t: _TimeOrder

    @cached_property
    def Lambda(self) -> StepFunction:
        return StepFunction(self.t.event_times, self.cumhaz)

    @cached_property
    def weights(self) -> np.ndarray:
        weights = np.empty_like(self.sorted_weights)
        weights[self.t.order] = self.sorted_weights
        return weights

    @cached_property
    def loglik(self) -> float:
        """The state's observed-data log-likelihood, in the time order: its
        Lambda(Y) is a gather from ``cumhaz`` and an event's jump a
        difference of neighbors, with no step function built."""
        t = self.t
        jumps = np.diff(self.cumhaz, prepend=0.0)[t.hazard_index[t.event] - 1]
        cumhaz = _at_own_times(t, self.cumhaz)
        return _loglik(t.x, t.z, t.event, self.gamma, self.beta, cumhaz, jumps, t.plateau, t.mass)


def em_iterates(
    ds: SurvivalDataset,
    gamma: np.ndarray,
    incidence_step: Callable[[np.ndarray, np.ndarray], NewtonResult] | None,
    tol: float,
    max_iter: int,
    start: LatencyFit | None = None,
) -> Iterator[LatencyFit]:
    """EM for the mixture cure model: yields the state after each pass.

    The start (pass 0) pairs ``gamma`` with the fit that ignores the cured
    fraction.  Each pass takes the expected susceptibility weights of the
    current state, updates the incidence to ``incidence_step(weights,
    gamma).x``, whose ``converged`` flag joins the pass's (``None`` holds
    gamma fixed), maximizes the weighted partial likelihood and
    refreshes the baseline hazard.  The passes stop once the largest change
    (coefficients in max-norm, hazard across jump times) drops below
    ``tol``, or after ``max_iter`` passes.  A stalled update only counts as
    convergence when the inner maximizations themselves succeeded: a failed
    M-step that cannot move is no fixed point.

    The passes run in the dataset's time order (see the module docstring):
    the linear predictors are formed from the covariates in that order, and
    the weights and Lambda take subject order and step-function form only
    where a state's ``weights`` or ``Lambda`` is read.  A state's observed
    log-likelihood is its ``loglik``.

    Given ``start``, an earlier fit, pass 0 pairs ``gamma`` instead with
    ``start.beta`` and the start's hazard read at this dataset's event
    times, ``start.Lambda(t.event_times)``: a warm start, for instance from
    the full-sample fit for a bootstrap resample, whose event times are
    among the full sample's.  A ``start.beta`` without one entry per column
    of z is a :class:`ConfigurationError`.

    A ``tol`` that is not positive and finite, or a ``max_iter`` that is
    not an integer of at least 1, is a :class:`ConfigurationError`: no
    pass could honour it (:func:`_check_stop_rule`).
    """
    _check_stop_rule(tol, max_iter)
    t = ds._time_order
    if start is None:
        beta = _partial_fit(ds, np.ones(ds.n) * t.mass, None).x
        risk = np.exp(t.z @ beta)
        cumhaz = _breslow_cumhaz(t, t.mass * risk)
    else:
        ds._check_coefficients(gamma, start.beta)
        beta, cumhaz = start.beta, start.Lambda(t.event_times)
        risk = np.exp(t.z @ beta)
    phi = expit(t.x @ gamma)
    iterations, settled, converged = 0, False, False
    while True:
        w = _susceptibility(phi, _log_survival(_at_own_times(t, cumhaz), risk, t.plateau), t.event)
        state = LatencyFit(gamma, beta, cumhaz, w, iterations, converged, t)
        yield state
        if settled or iterations >= max_iter:
            return
        iterations += 1
        if incidence_step is None:
            new_gamma, incidence_converged = gamma, True
        else:
            inc = incidence_step(state.weights, gamma)
            new_gamma, incidence_converged = inc.x, inc.converged
            phi = expit(t.x @ new_gamma)
        counted = w * t.mass
        pf = _partial_fit(ds, counted, beta)
        risk = np.exp(t.z @ pf.x)
        new_cumhaz = _breslow_cumhaz(t, counted * risk)
        steps = [new_gamma - gamma, pf.x - beta, new_cumhaz - cumhaz]
        change = np.max(np.abs(np.concatenate(steps)))
        gamma, beta, cumhaz = new_gamma, pf.x, new_cumhaz
        settled = bool(change < tol)
        converged = settled and incidence_converged and pf.converged


def fit_latency(
    ds: SurvivalDataset,
    gamma_hat: np.ndarray,
    tol: float = EM_TOL,
    max_iter: int = EM_MAX_ITER,
    start: LatencyFit | None = None,
) -> LatencyFit:
    """Alternate weight and (beta, Lambda) updates from the no-cure start.

    Runs :func:`em_iterates` with the incidence coefficients held fixed and
    returns its final state.  Given a ``start``, an earlier latency fit
    whose hazard jumps at every event time of ``ds``, the passes start from
    its beta and its hazard at those times instead, which skips the no-cure
    fit and usually saves passes; the end state then agrees with the cold
    one within the stop rule's reach, not bit for bit.  The returned
    weights are those of the final parameters, so the returned triple is
    self-consistent for :func:`profile_residual`.  A ``gamma_hat``, or a
    start's beta, of the wrong length is a :class:`ConfigurationError`.
    """
    ds._check_coefficients(gamma_hat)
    gamma_hat = np.asarray(gamma_hat, dtype=float)
    for state in em_iterates(ds, gamma_hat, None, tol, max_iter, start):
        pass
    return state


def profile_residual(
    ds: SurvivalDataset, gamma: np.ndarray, beta: np.ndarray, Lambda: StepFunction
) -> float:
    """Largest gap between Lambda's jumps and the jumps it induces.

    Plugs the expected susceptibility weights computed from (gamma, beta,
    Lambda) back into the Breslow-type update; at an exact profile fixed
    point the induced jumps reproduce Lambda's own.  Coefficients of the
    wrong length are a :class:`ConfigurationError`, as in
    :func:`compute_weights`.
    """
    w = compute_weights(ds, gamma, beta, Lambda)
    implied = breslow_update(ds, w, beta)
    if implied.times.shape != Lambda.times.shape or not np.all(implied.times == Lambda.times):
        raise NumericalError("step function is not supported on the event times")
    return float(np.max(np.abs(Lambda.jumps - implied.jumps)))

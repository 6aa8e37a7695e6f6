"""Naive bootstrap standard errors, Wald tests and out-of-sample prediction.

Standard errors come from refitting the chosen estimator on whole-row
resamples drawn with replacement.  Each replicate derives its index stream
from (seed, replicate) through a counter-based generator, so runs are
reproducible and independent of execution order.  A resample is fitted as
its distinct rows, each counted as often as it was drawn (Efron &
Tibshirani 1993 treat the bootstrap as multinomial weights on the rows).
Refits that fail to converge (or error out on a degenerate resample) are
dropped and counted, never imputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .errors import ConfigurationError, CureModelError, InferenceError
from .fanout import _check_workers, _fan_out, _free_workers
from .incidence import expit
from .latency_cox import EM_MAX_ITER, EM_TOL, _check_stop_rule, compute_weights
from .mle_baseline import CureModelFit
from .pipeline import fit_cure_model
from .simulate import DEFAULT_SEED, _rng

__all__ = [
    "BootstrapResult",
    "bootstrap_se",
    "prediction_error",
    "resample_indices",
    "wald_test",
]


@dataclass(frozen=True)
class BootstrapResult:
    """Resampled coefficient matrix with derived standard errors and p-values.

    ``estimates`` has one row per successful refit and one column per
    parameter (incidence coefficients first, then latency).  ``pvalues``
    are two-sided Wald p-values of the full-data point estimates against
    the bootstrap standard errors.
    """

    estimates: np.ndarray
    point: np.ndarray
    se: np.ndarray
    pvalues: np.ndarray
    B: int
    seed: int
    failures: int
    param_names: tuple[str, ...]


# The fewest subject-fits, (B + 1) * n, at which bootstrap_se fans its
# refits out to worker processes unasked, at most one worker per 2 refits.
# Workers start some milliseconds into the call, and a refit runs slower
# while both CPUs are busy.  On m1 and m3 with 2 workers, both methods broke
# even near 1000 subject-fits, and measured 5-38% faster from 1560 up with B
# of 8 or more; at B = 2, one refit per worker, they measured 13-28% slower.
_BOOT_FAN_OUT_SUBJECTS = 2000


def wald_test(estimate: float, se: float) -> float:
    """Two-sided normal p-value 2(1 - Phi(|estimate/se|))."""
    if not se > 0.0:
        raise InferenceError(f"standard error must be positive, got {se}")
    return float(math.erfc(abs(estimate / se) / math.sqrt(2.0)))


def resample_indices(seed: int, replicate: int, n: int) -> np.ndarray:
    """Replayable with-replacement row indices for one bootstrap replicate."""
    return _rng(seed, replicate).integers(0, n, size=n)


def _counted(ds: SurvivalDataset, idx: np.ndarray) -> SurvivalDataset:
    """The subjects ``idx`` (with replacement) as the distinct rows drawn, in
    row order, each counted as often as it was drawn.  The subjects of a
    counted row are its copies, each drawn on its own."""
    if ds.counts is not None:
        idx = np.repeat(np.arange(ds.n), ds.counts)[idx]
    counts = np.bincount(idx, minlength=ds.n)
    rows = np.flatnonzero(counts)
    return ds._rows(rows, counts[rows])


def _bootstrap_replicate(args):
    """One resample refit: the coefficient row, or None on failure."""
    ds, method, fit_options, seed, r = args
    idx = resample_indices(seed, r, ds.n_subjects)
    try:
        fit = fit_cure_model(_counted(ds, idx), method, **fit_options)
    except CureModelError:
        return None
    if not fit.converged:
        return None
    return np.concatenate([fit.gamma, fit.beta])


def bootstrap_se(
    ds: SurvivalDataset,
    method: str = "presmooth",
    B: int = 500,
    seed: int = DEFAULT_SEED,
    n_jobs: int | None = None,
    **fit_options,
) -> BootstrapResult:
    """Bootstrap spread of the fitted coefficients over B whole-row resamples.

    Replicate r draws n subjects with replacement, ``resample_indices(seed,
    r, n)`` for n = ``ds.n_subjects``, and refits them as their distinct
    rows, each with the number of times it was drawn as its count (see
    :class:`SurvivalDataset`): the estimator of the resample, up to
    rounding, on about 63% of the rows.  A refit that cross-validates its
    bandwidth scores the resample's expansion (see
    :func:`kernels.cv_bandwidth`).  The per-parameter standard error is the
    sample standard deviation (denominator B_eff - 1) over the refits that
    converged.  Replicates draw independent index streams from (seed,
    replicate), so results are identical for any worker count.

    The full-sample fit runs in this process first.  When it does not
    converge, there is no point estimate to test and
    :class:`InferenceError` is raised before any refit; so it is when fewer
    than 2 refits converge, which leaves no spread to measure.

    Presmoothing refits start warm, joint-EM refits start cold.  A
    presmoothing refit starts its latency EM from the full-sample fit's
    beta and hazard (``start=full.latency``, see
    :func:`~smoothcure.latency_cox.fit_latency`); a resample's event times
    are among the full sample's, so that hazard jumps at each of them.  Its
    bandwidth, presmoothed values and incidence fit are those of a cold
    refit, and its estimates agree with a cold refit's within the EM
    tolerance, in about a fifth fewer passes: on the 16 inputs of the
    benchmark's ``boot-m3-n1000`` workload, ``se`` moved by at most 3.3e-9
    relative and no failure count moved.  A joint-EM refit starts from its
    own logistic and no-cure fits.  Started from the full-sample gamma,
    beta and hazard instead, MLE bootstraps of ``m3`` n=1000 and ``m1``
    n=500 (B=16) ran 20-26% faster, but the failure count moved on 2 of 20
    ``demo/convergence`` bootstraps (B=8, one failure fewer each), and
    which refits fail is part of the result.

    B, ``n_jobs``, ``seed`` and the EM stop rule are checked before the
    full-sample fit: a B below 2 is an :class:`InferenceError`; a B that
    is not an integer, an ``n_jobs`` that is not ``None`` or an integer of
    at least 1, a seed that is not a non-negative integer and a stop rule
    no EM pass can honour are a :class:`ConfigurationError`.  The B
    refits run over ``n_jobs`` worker processes (in this process when it is
    1).  By default the refits fan out when the call holds at least
    :data:`_BOOT_FAN_OUT_SUBJECTS` subject-fits, (B + 1) * n, over one
    worker per CPU this process may run on (see :func:`fanout._free_workers`:
    none inside a worker, none unless the start method is fork) but at most
    one per 2 refits; a smaller call, or one left with 1 worker, runs
    serially, where starting workers costs more than it saves.
    """
    if not isinstance(B, (int, np.integer)):
        raise ConfigurationError(f"the number of bootstrap replicates must be an integer, got B={B!r}")
    if B < 2:
        raise InferenceError(f"need at least 2 bootstrap replicates, got B={B}")
    if n_jobs is None:
        n_jobs = min(_free_workers(), B // 2) if (B + 1) * ds.n_subjects >= _BOOT_FAN_OUT_SUBJECTS else 1
    else:
        _check_workers(n_jobs)
    _rng(seed)  # the seed rule of every stream
    _check_stop_rule(fit_options.get("tol", EM_TOL), fit_options.get("max_iter", EM_MAX_ITER))
    full = fit_cure_model(ds, method, **fit_options)
    if not full.converged:
        raise InferenceError(f"the full-sample {method} fit did not converge; no estimate to bootstrap")
    point = np.concatenate([full.gamma, full.beta])
    if method == "presmooth":
        fit_options = {**fit_options, "start": full.latency}

    tasks = [(ds, method, fit_options, seed, r) for r in range(B)]
    results = _fan_out(_bootstrap_replicate, tasks, n_jobs)
    rows = [row for row in results if row is not None]
    failures = sum(row is None for row in results)
    if len(rows) < 2:
        raise InferenceError(f"{len(rows)} of {B} bootstrap refits converged; a standard error needs 2")

    estimates = np.vstack(rows)
    se = estimates.std(axis=0, ddof=1)
    pvalues = np.array(
        [
            wald_test(e, s) if s > 0.0 else (1.0 if e == 0.0 else 0.0)
            for e, s in zip(point, se)
        ]
    )
    return BootstrapResult(
        estimates=estimates,
        point=point,
        se=se,
        pvalues=pvalues,
        B=B,
        seed=seed,
        failures=failures,
        param_names=ds.param_names,
    )


def prediction_error(fit: CureModelFit, test: SurvivalDataset, swap_pairing: bool = False) -> float:
    """Cross-entropy-style prediction error of the incidence on a test set.

    As displayed in the source convention, the expected susceptibility
    weight W multiplies log(1 - phi) and its complement multiplies
    log(phi); ``swap_pairing=True`` flips the two logs for callers who read
    the roles of the cure probability and phi the other way around.  Terms
    with a zero coefficient contribute zero; a phi of exactly 0 or 1 paired
    with a nonzero coefficient yields +inf.  A counted test row's terms
    weigh as its count.
    """
    return _prediction(fit, test, swap_pairing)[2]


def _prediction(fit: CureModelFit, test: SurvivalDataset, swap_pairing: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """phi and the expected susceptibility weights of ``fit`` on ``test``,
    and the :func:`prediction_error` they give."""
    w = compute_weights(test, fit.gamma, fit.beta, fit.Lambda)
    phi = expit(test.x @ fit.gamma)
    first, second = (phi, 1.0 - phi) if swap_pairing else (1.0 - phi, phi)
    coef = np.concatenate([w * test._mass, (1.0 - w) * test._mass])
    prob = np.concatenate([first, second])
    active = coef != 0.0
    coef, prob = coef[active], prob[active]
    pe = float("inf") if np.any(prob <= 0.0) else float(-np.sum(coef * np.log(prob)))
    return phi, w, pe

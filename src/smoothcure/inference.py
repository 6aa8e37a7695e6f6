"""Naive bootstrap standard errors, Wald tests and out-of-sample prediction.

Standard errors come from refitting the chosen estimator on whole-row
resamples drawn with replacement.  Each replicate derives its index stream
from (seed, replicate) through a counter-based generator, so runs are
reproducible and independent of execution order.  Refits that fail to
converge (or error out on a degenerate resample) are dropped and counted,
never imputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .errors import CureModelError, InferenceError
from .fanout import _fan_out
from .incidence import expit
from .latency_cox import compute_weights
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


def wald_test(estimate: float, se: float) -> float:
    """Two-sided normal p-value 2(1 - Phi(|estimate/se|))."""
    if not se > 0.0:
        raise InferenceError(f"standard error must be positive, got {se}")
    return float(math.erfc(abs(estimate / se) / math.sqrt(2.0)))


def resample_indices(seed: int, replicate: int, n: int) -> np.ndarray:
    """Replayable with-replacement row indices for one bootstrap replicate."""
    return _rng(seed, replicate).integers(0, n, size=n)


def _bootstrap_replicate(args):
    """One resample refit: the coefficient row, or None on failure."""
    ds, method, fit_options, seed, r = args
    idx = resample_indices(seed, r, ds.n)
    try:
        fit = fit_cure_model(ds.take(idx), method, **fit_options)
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
    n_jobs: int = 1,
    **fit_options,
) -> BootstrapResult:
    """Bootstrap spread of the fitted coefficients over B whole-row resamples.

    The per-parameter standard error is the sample standard deviation
    (denominator B_eff - 1) over the refits that converged.  Replicates draw
    independent index streams from (seed, replicate), so results are
    identical for any worker count.
    """
    if B < 2:
        raise InferenceError(f"need at least 2 bootstrap replicates, got B={B}")
    full = fit_cure_model(ds, method, **fit_options)
    point = np.concatenate([full.gamma, full.beta])

    tasks = [(ds, method, fit_options, seed, r) for r in range(B)]
    results = _fan_out(_bootstrap_replicate, tasks, n_jobs)
    rows = [row for row in results if row is not None]
    failures = sum(row is None for row in results)
    if not rows:
        raise InferenceError(f"all {B} bootstrap refits failed")

    estimates = np.vstack(rows)
    se = estimates.std(axis=0, ddof=1) if estimates.shape[0] > 1 else np.zeros(point.size)
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
    with a nonzero coefficient yields +inf.
    """
    return _prediction(fit, test, swap_pairing)[2]


def _prediction(fit: CureModelFit, test: SurvivalDataset, swap_pairing: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """phi and the expected susceptibility weights of ``fit`` on ``test``,
    and the :func:`prediction_error` they give."""
    w = compute_weights(test, fit.gamma, fit.beta, fit.Lambda)
    phi = expit(test.x @ fit.gamma)
    first, second = (phi, 1.0 - phi) if swap_pairing else (1.0 - phi, phi)
    coef = np.concatenate([w, 1.0 - w])
    prob = np.concatenate([first, second])
    active = coef != 0.0
    coef, prob = coef[active], prob[active]
    pe = float("inf") if np.any(prob <= 0.0) else float(-np.sum(coef * np.log(prob)))
    return phi, w, pe

"""End-to-end fitters shared by the CLI, bootstrap and simulation harness."""

from __future__ import annotations

import inspect

import numpy as np

from .data import SurvivalDataset, destandardize_gamma, standardize_continuous
from .errors import ConfigurationError
from .incidence import fit_incidence
from .kernels import Bandwidth, cv_bandwidth
from .latency_cox import EM_MAX_ITER, EM_TOL, fit_latency
from .mle_baseline import CureModelFit, fit_mle_em
from .presmoother import presmooth_all

__all__ = ["METHODS", "fit_cure_model", "fit_presmoothing", "fit_mle_em"]

METHODS = ("presmooth", "mle")


def fit_presmoothing(
    ds: SurvivalDataset,
    bandwidth: Bandwidth | None = None,
    grid: np.ndarray | None = None,
    tol: float = EM_TOL,
    max_iter: int = EM_MAX_ITER,
) -> CureModelFit:
    """Two-step fit: presmoothed incidence first, latency second.

    Continuous incidence covariates are standardized, the bandwidth is
    cross-validated over ``grid`` and capped at 2 (unless supplied; empty
    when no covariate is continuous), cure probabilities are presmoothed at
    every sample point and the incidence coefficients maximize the
    soft-label likelihood.  The latency is then
    fitted with those coefficients held fixed, by the latency EM that :func:`fit_mle_em` also
    runs, under the same stop rule ``tol``/``max_iter``.  Reported incidence
    coefficients are mapped back to the original covariate scale; the
    log-likelihood is the EM's final state's, which standardizing leaves as is.
    A ``grid`` given with a ``bandwidth``, or on data with no continuous
    incidence covariate, is a :class:`ConfigurationError`: no
    cross-validation runs to search it.
    """
    if bandwidth is not None and grid is not None:
        raise ConfigurationError("give a bandwidth or a cross-validation grid, not both")
    ds_std = standardize_continuous(ds)
    if bandwidth is None:
        # A grid with no continuous covariate to search is cv_bandwidth's error.
        unsearched = not ds.meta.n_continuous and grid is None
        bandwidth = Bandwidth(np.empty(0)) if unsearched else cv_bandwidth(ds_std, grid=grid)
    pihat = presmooth_all(ds_std, bandwidth)
    inc = fit_incidence(ds_std, pihat)
    lat = fit_latency(ds_std, inc.x, tol=tol, max_iter=max_iter)
    gamma = destandardize_gamma(inc.x, ds_std.meta)
    return CureModelFit(
        gamma=gamma,
        beta=lat.beta,
        Lambda=lat.Lambda,
        loglik=lat.loglik,
        iterations=lat.iterations,
        converged=inc.converged and lat.converged,
        method="presmooth",
        incidence=inc,
        latency=lat,
        bandwidth=bandwidth.h,
        pihat=pihat,
    )


def fit_cure_model(ds: SurvivalDataset, method: str, **options) -> CureModelFit:
    """Fit by method name, one of :data:`METHODS`, which the fit reports.

    The options are the fitter's keyword parameters: both methods take the
    latency EM's stop rule ``tol`` and ``max_iter``, and ``presmooth`` also
    takes ``bandwidth`` and ``grid`` (see :func:`fit_presmoothing`).  An
    unknown method or option raises :class:`ConfigurationError`.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; expected one of {METHODS}")
    fitter = fit_presmoothing if method == "presmooth" else fit_mle_em
    bad = set(options) - (set(inspect.signature(fitter).parameters) - {"ds"})
    if bad:
        raise ConfigurationError(f"options not understood by the {method} fitter: {sorted(bad)}")
    return fitter(ds, **options)

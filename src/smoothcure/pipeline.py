"""End-to-end fitters shared by the CLI, bootstrap and simulation harness."""

from __future__ import annotations

import numpy as np

from .data import SurvivalDataset, destandardize_gamma, standardize_continuous
from .errors import ConfigurationError
from .incidence import fit_incidence
from .kernels import DEFAULT_CAP, Bandwidth, cv_bandwidth
from .latency_cox import fit_latency
from .mle_baseline import CureModelFit, fit_mle_em, observed_loglik
from .presmoother import presmooth_all

__all__ = ["METHODS", "fit_cure_model", "fit_presmoothing", "fit_mle_em"]

METHODS = ("presmooth", "mle")

# Both methods run the same latency EM and share its stop rule; only the
# presmoothing estimator has a bandwidth to choose.
_OPTIONS = {
    "presmooth": {"tol", "max_iter", "bandwidth", "grid", "bandwidth_cap"},
    "mle": {"tol", "max_iter"},
}


def fit_presmoothing(
    ds: SurvivalDataset,
    bandwidth: Bandwidth | None = None,
    grid: np.ndarray | None = None,
    bandwidth_cap: float = DEFAULT_CAP,
    tol: float = 1e-7,
    max_iter: int = 500,
) -> CureModelFit:
    """Two-step fit: presmoothed incidence first, latency second.

    Continuous incidence covariates are standardized, the bandwidth is
    cross-validated (unless supplied), cure probabilities are presmoothed at
    every sample point and the incidence coefficients maximize the
    soft-label likelihood.  The latency is then fitted with those
    coefficients held fixed, by the latency EM that :func:`fit_mle_em` also
    runs, under the same stop rule ``tol``/``max_iter``.  Reported incidence
    coefficients are mapped back to the original covariate scale.
    """
    if ds.meta.n_continuous > 0:
        ds_std, meta = standardize_continuous(ds)
        if bandwidth is None:
            bandwidth = cv_bandwidth(ds_std, grid=grid, cap=bandwidth_cap)
    else:
        ds_std, meta = ds, ds.meta
        if bandwidth is None:
            bandwidth = Bandwidth(np.empty(0))
    pihat = presmooth_all(ds_std, bandwidth)
    inc = fit_incidence(pihat, ds_std.x)
    lat = fit_latency(ds_std, inc.gamma, tol=tol, max_iter=max_iter)
    gamma = destandardize_gamma(inc.gamma, meta)
    return CureModelFit(
        gamma=gamma,
        beta=lat.beta,
        Lambda=lat.Lambda,
        loglik=observed_loglik(ds, gamma, lat.beta, lat.Lambda),
        iterations=lat.iterations,
        converged=inc.converged and lat.converged,
        method="presmoothing",
        incidence=inc,
        latency=lat,
        bandwidth=bandwidth.h,
        pihat=pihat,
    )


def fit_cure_model(ds: SurvivalDataset, method: str, **options) -> CureModelFit:
    """Fit by method name, one of :data:`METHODS`.

    Both methods take the EM stop rule ``tol`` and ``max_iter``;
    ``presmooth`` also takes ``bandwidth``, ``grid`` and ``bandwidth_cap``.
    An unknown method or option raises :class:`ConfigurationError`.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; expected one of {METHODS}")
    bad = set(options) - _OPTIONS[method]
    if bad:
        raise ConfigurationError(f"options not understood by the {method} fitter: {sorted(bad)}")
    fitter = fit_presmoothing if method == "presmooth" else fit_mle_em
    return fitter(ds, **options)

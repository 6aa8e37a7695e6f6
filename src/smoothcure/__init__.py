"""Two-step presmoothing and joint-EM estimation for mixture cure models.

The population is a mixture of cured subjects, who never experience the
event, and susceptible ones whose event time follows a proportional-hazards
model.  The probability of being susceptible follows a parametric (logistic)
model.  Two estimators are provided:

* a two-step procedure that first estimates the cure probability
  nonparametrically with kernel weights and then projects it onto the
  logistic family, fitting the latency afterwards with the incidence fixed;
* the classical joint maximum-likelihood fit via EM, used as the baseline.

Bootstrap standard errors, Wald tests, prediction error, Kaplan-Meier
utilities and a reproducible Monte Carlo harness round out the package.
"""

from .data import (
    CovariateMeta,
    CsvSchema,
    SurvivalDataset,
    destandardize_gamma,
    load_csv,
    standardize_continuous,
    write_csv,
)
from .errors import (
    ConfigurationError,
    CureModelError,
    DegenerateCovariateError,
    EmptyNeighborhoodError,
    InferenceError,
    NumericalError,
    ParseError,
    SchemaError,
    SingularHessianError,
)
from .incidence import fit_incidence
from .inference import (
    BootstrapResult,
    bootstrap_se,
    prediction_error,
    resample_indices,
    wald_test,
)
from .kernels import Bandwidth, cv_bandwidth, default_grid
from .latency_cox import (
    LatencyFit,
    StepFunction,
    breslow_update,
    compute_weights,
    fit_latency,
    profile_residual,
    weighted_partial_fit,
)
from .mle_baseline import CureModelFit, fit_mle_em, observed_loglik
from .nonparam import kaplan_meier, plateau_fraction
from .pipeline import fit_cure_model, fit_presmoothing
from .presmoother import estimate_cure_prob, presmooth_all
from .simulate import (
    DEFAULT_SEED,
    SCENARIOS,
    SimulationReport,
    SimulationScenario,
    generate,
    make_scenario,
    run_study,
    truncated_weibull_ph_sample,
)

__version__ = "0.1.0"

__all__ = [
    "Bandwidth",
    "BootstrapResult",
    "ConfigurationError",
    "CovariateMeta",
    "CsvSchema",
    "CureModelError",
    "CureModelFit",
    "DEFAULT_SEED",
    "DegenerateCovariateError",
    "EmptyNeighborhoodError",
    "InferenceError",
    "LatencyFit",
    "NumericalError",
    "ParseError",
    "SCENARIOS",
    "SchemaError",
    "SimulationReport",
    "SimulationScenario",
    "SingularHessianError",
    "StepFunction",
    "SurvivalDataset",
    "bootstrap_se",
    "breslow_update",
    "compute_weights",
    "cv_bandwidth",
    "default_grid",
    "destandardize_gamma",
    "estimate_cure_prob",
    "fit_cure_model",
    "fit_incidence",
    "fit_latency",
    "fit_mle_em",
    "fit_presmoothing",
    "generate",
    "kaplan_meier",
    "load_csv",
    "make_scenario",
    "observed_loglik",
    "plateau_fraction",
    "prediction_error",
    "presmooth_all",
    "profile_residual",
    "resample_indices",
    "run_study",
    "standardize_continuous",
    "truncated_weibull_ph_sample",
    "wald_test",
    "weighted_partial_fit",
    "write_csv",
]

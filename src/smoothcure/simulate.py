"""Synthetic data generators, scenario registry and Monte Carlo harness.

Five covariate recipes are built in, combined with a Weibull
proportional-hazards latency (truncated at tau0, with or without a point
mass there) and either exponential or Weibull proportional-hazards
censoring truncated at tau.  The registry enumerates every tabulated
combination of cure-rate scenario and censoring level, keyed as
``"m1/s1/c1"`` ... ``"m4/s3/c3"``, plus the no-atom latency variant
(``"m3nj/..."``) and the small-sample convergence demonstration
(``"demo/convergence"``).

Random draws are organized as counter-based streams keyed by (seed,
replication, purpose), so covariate, cure-status, latency and censoring
draws never interleave and replications can run in any order or process;
bootstrap resamples draw from the same stream constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import CovariateMeta, SurvivalDataset
from .errors import ConfigurationError
from .fanout import _fan_out
from .incidence import expit
from .mle_baseline import fit_mle_em
from .pipeline import METHODS, fit_presmoothing

__all__ = [
    "DEFAULT_SEED",
    "SCENARIOS",
    "MethodSummary",
    "SimulationReport",
    "SimulationScenario",
    "generate",
    "make_scenario",
    "run_study",
    "truncated_weibull_ph_sample",
]

DEFAULT_SEED = 1729

# Share of each tail that the study's moments drop, per coordinate.
TRIM_FRACTION = 0.01

# Weibull shape and scale, and the censoring slope, of every scenario.
RHO = 1.75
MU = 1.5
BETA_C = 1.0

_COVARIATES = 0
_CURE = 1
_LATENCY = 2
_CENSORING = 3


@dataclass(frozen=True)
class SimulationScenario:
    """One generator configuration: covariate recipe, truth and censoring.

    The latency is Weibull proportional hazards with shape :data:`RHO` and
    scale :data:`MU`.  Exactly one censoring rate is set, and it names the
    family: ``lam_c`` is exponential censoring at that rate, and ``nu`` is
    Weibull proportional-hazards censoring that shares the latency's shape
    and has slope :data:`BETA_C` on the first covariate.
    """

    model: str
    gamma: tuple[float, ...]
    beta: tuple[float, ...]
    tau0: float
    tau: float
    lam_c: float | None = None
    nu: float | None = None
    n: int = 200
    key: str = ""
    target_censoring: float | None = None
    target_plateau: float | None = None

    def __post_init__(self) -> None:
        if self.model not in ("1", "2", "3", "4", "3-nojump", "demo"):
            raise ConfigurationError(f"unknown model id {self.model!r}")
        if not (self.tau0 < self.tau):
            raise ConfigurationError("tau0 must be strictly below tau")
        rates = [rate for rate in (self.lam_c, self.nu) if rate is not None]
        if len(rates) != 1 or not rates[0] > 0:
            raise ConfigurationError(
                "set exactly one positive censoring rate: lam_c (exponential) or nu (Weibull PH)"
            )
        if self.n < 2:
            raise ConfigurationError("sample size must be at least 2")


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The counter-based stream of ``seed`` under ``key``: (replication,
    purpose) for a generated dataset, (replicate,) for a bootstrap resample.
    A seed or key that is not a non-negative integer is a
    :class:`ConfigurationError`."""
    try:
        seeds = np.random.SeedSequence(seed, spawn_key=key)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"a seed and its stream key must be non-negative integers, got seed={seed!r}, key={key!r}"
        ) from exc
    return np.random.Generator(np.random.Philox(seeds))


def truncated_weibull_ph_sample(rho, mu, linpred, tau0, u, no_jump: bool = False):
    """Event-time draw from the Weibull proportional-hazards latency.

    In the default variant ``u`` is a survival quantile in (0, 1]: the raw
    inverse-survival draw is truncated to ``tau0`` with a point mass there.
    In the no-jump variant ``u`` is a distribution quantile in [0, 1) and
    the conditional law on [0, tau0) is inverted exactly, leaving no atom.
    """
    u = np.asarray(u, dtype=float)
    scale = mu * np.exp(np.asarray(linpred, dtype=float))
    if no_jump:
        total_mass = -np.expm1(-scale * tau0**rho)
        t = (-np.log1p(-u * total_mass) / scale) ** (1.0 / rho)
        return np.minimum(t, np.nextafter(tau0, 0.0))
    with np.errstate(divide="ignore"):
        t = (-np.log(u) / scale) ** (1.0 / rho)
    return np.minimum(t, tau0)


def _draw_covariates(model: str, n: int, rng: np.random.Generator):
    """Covariate recipe per model id: (x block, z block, discrete flags,
    x names, z names)."""
    if model == "1":
        x1 = rng.uniform(-1.0, 1.0, n)
        return x1[:, None], x1[:, None], (False,), ("x1",), ("x1",)
    if model == "2":
        x1 = rng.normal(0.0, 1.0, n)
        return x1[:, None], x1[:, None], (False,), ("x1",), ("x1",)
    if model in ("3", "3-nojump"):
        x1 = rng.normal(0.0, 2.0, n)
        x2 = (rng.random(n) < 0.6).astype(float)
        x3 = (rng.random(n) < 0.4).astype(float)
        z2 = rng.uniform(-3.0, 3.0, n)
        x = np.column_stack([x1, x2, x3])
        z = np.column_stack([x1, z2, x2])
        return x, z, (False, True, True), ("x1", "x2", "x3"), ("x1", "z2", "x2")
    if model == "4":
        x1 = rng.normal(0.0, 2.0, n)
        x2 = rng.uniform(-1.0, 1.0, n)
        x3 = (rng.random(n) < 0.6).astype(float)
        x4 = (rng.random(n) < 0.4).astype(float)
        z2 = rng.uniform(-3.0, 3.0, n)
        x = np.column_stack([x1, x2, x3, x4])
        z = np.column_stack([x1, z2, x3])
        return x, z, (False, False, True, True), ("x1", "x2", "x3", "x4"), ("x1", "z2", "x3")
    # model == "demo": SimulationScenario accepts no other id.
    x1 = rng.normal(0.0, 2.0, n)
    x2 = rng.uniform(-1.0, 1.0, n)
    x3 = (rng.random(n) < 0.8).astype(float)
    x4 = (rng.random(n) < 0.2).astype(float)
    x = np.column_stack([x1, x2, x3, x4])
    z = np.column_stack([x1, x3, x4])
    return x, z, (False, False, True, True), ("x1", "x2", "x3", "x4"), ("x1", "x3", "x4")


def generate(scenario: SimulationScenario, seed: int, replication: int = 0) -> SurvivalDataset:
    """Draw one dataset: covariates, cure status, latency and censoring."""
    n = scenario.n
    x_raw, z, discrete, x_names, z_names = _draw_covariates(
        scenario.model, n, _rng(seed, replication, _COVARIATES)
    )
    x = np.column_stack([np.ones(n), x_raw])
    if len(scenario.gamma) != x.shape[1] or len(scenario.beta) != z.shape[1]:
        raise ConfigurationError(
            f"model {scenario.model!r} needs {x.shape[1]} incidence coefficients (intercept first) and "
            f"{z.shape[1]} latency coefficients, got {len(scenario.gamma)} and {len(scenario.beta)}"
        )

    phi = expit(x @ np.asarray(scenario.gamma))
    uncured = _rng(seed, replication, _CURE).random(n) < phi

    u_lat = _rng(seed, replication, _LATENCY).random(n)
    linpred = z @ np.asarray(scenario.beta)
    if scenario.model == "3-nojump":
        t0 = truncated_weibull_ph_sample(RHO, MU, linpred, scenario.tau0, u_lat, no_jump=True)
    else:
        t0 = truncated_weibull_ph_sample(RHO, MU, linpred, scenario.tau0, 1.0 - u_lat)
    t = np.where(uncured, t0, np.inf)

    u_cens = _rng(seed, replication, _CENSORING).random(n)
    if scenario.lam_c is not None:
        c_raw = -np.log1p(-u_cens) / scenario.lam_c
    else:
        cens_scale = scenario.nu * MU * np.exp(BETA_C * x_raw[:, 0])
        c_raw = (-np.log1p(-u_cens) / cens_scale) ** (1.0 / RHO)
    c = np.minimum(c_raw, scenario.tau)

    y = np.minimum(t, c)
    delta = (t <= c).astype(int)
    meta = CovariateMeta(names=x_names, discrete=discrete)
    return SurvivalDataset(y, delta, x, z, meta, z_names=z_names)


def _level_rows(gammas, betas, taus, rates, targets, rate_name="lam_c"):
    rows = {}
    for s, (gamma, beta, (tau0, tau)) in enumerate(zip(gammas, betas, taus), start=1):
        for c, (rate, (cens, plat)) in enumerate(zip(rates[s - 1], targets[s - 1]), start=1):
            rows[(s, c)] = dict(
                gamma=gamma,
                beta=beta,
                tau0=tau0,
                tau=tau,
                target_censoring=cens,
                target_plateau=plat,
                **{rate_name: rate},
            )
    return rows


def _build_registry() -> dict[str, SimulationScenario]:
    registry: dict[str, SimulationScenario] = {}

    m1 = _level_rows(
        gammas=[(1.75, 2.0), (1.0, 1.5), (0.1, 5.0)],
        betas=[(1.0,)] * 3,
        taus=[(4.0, 6.0)] * 3,
        rates=[(0.1, 0.2, 0.3), (0.1, 0.25, 0.4), (0.2, 0.4, 0.7)],
        targets=[
            [(0.25, 0.15), (0.30, 0.11), (0.35, 0.09)],
            [(0.34, 0.22), (0.40, 0.15), (0.46, 0.10)],
            [(0.54, 0.32), (0.59, 0.23), (0.65, 0.15)],
        ],
    )
    m2 = _level_rows(
        gammas=[(1.5, 0.5), (1.0, 1.0), (-0.1, 5.0)],
        betas=[(1.0,)] * 3,
        taus=[(10.0, 15.0)] * 3,
        # s2/c2: 1/6, not 1/10, meets both tabulated columns; whether the source printed 1/10 is unknown.
        rates=[(1 / 15, 1 / 7, 1 / 4), (1 / 13, 1 / 6, 5 / 18), (1 / 9, 1 / 4, 2 / 5)],
        targets=[
            [(0.25, 0.07), (0.30, 0.04), (0.35, 0.02)],
            [(0.35, 0.14), (0.40, 0.09), (0.45, 0.06)],
            [(0.56, 0.38), (0.60, 0.30), (0.65, 0.25)],
        ],
        rate_name="nu",
    )
    m3 = _level_rows(
        gammas=[(0.5, -1.0, 2.5, 1.2), (1.0, 2.0, 1.8, 0.5), (-0.8, 1.3, 1.5, -0.2)],
        betas=[(-1.0, 0.5, 1.5), (1.0, 0.5, 2.0), (1.0, -0.1, 0.8)],
        taus=[(30.0, 35.0), (6.0, 8.0), (5.0, 7.0)],
        rates=[(0.12, 0.25, 0.45), (0.2, 0.5, 0.8), (0.3, 0.7, 1.3)],
        targets=[
            [(0.25, 0.10), (0.30, 0.06), (0.35, 0.04)],
            [(0.35, 0.16), (0.40, 0.09), (0.45, 0.06)],
            [(0.55, 0.24), (0.59, 0.14), (0.65, 0.08)],
        ],
    )
    m4 = _level_rows(
        gammas=[
            (0.6, -1.0, 1.0, 2.5, 1.2),
            (0.45, 0.5, 2.0, 1.0, 0.5),
            (-0.22, 0.3, -0.4, 0.5, -0.2),
        ],
        betas=[(-0.8, 0.3, 0.5), (1.0, 0.5, 2.0), (0.4, -0.1, 0.5)],
        taus=[(14.0, 16.0), (18.0, 20.0), (6.0, 8.0)],
        rates=[(0.1, 0.22, 0.35), (0.15, 0.35, 0.6), (0.2, 0.4, 0.7)],
        targets=[
            [(0.25, 0.11), (0.30, 0.07), (0.35, 0.05)],
            [(0.35, 0.11), (0.40, 0.07), (0.45, 0.05)],
            [(0.55, 0.30), (0.59, 0.20), (0.65, 0.12)],
        ],
    )
    for model, rows in (("1", m1), ("2", m2), ("3", m3), ("4", m4)):
        for (s, c), kw in rows.items():
            key = f"m{model}/s{s}/c{c}"
            registry[key] = SimulationScenario(model=model, key=key, **kw)

    # No-atom latency variant of model 3, scenario 1: same covariates and
    # truth, wider support and no point mass at the endpoint.
    for c, lam in enumerate((0.12, 0.25, 0.45), start=1):
        key = f"m3nj/s1/c{c}"
        registry[key] = SimulationScenario(
            model="3-nojump",
            key=key,
            gamma=(0.5, -1.0, 2.5, 1.2),
            beta=(-1.0, 0.5, 1.5),
            tau0=15.0,
            tau=20.0,
            lam_c=lam,
        )

    # Small-sample convergence demonstration: note the Bernoulli rates and
    # the latency covariate set differ from the m4 rows.
    registry["demo/convergence"] = SimulationScenario(
        model="demo",
        key="demo/convergence",
        gamma=(0.6, -1.0, 1.0, 2.5, 1.2),
        beta=(-0.8, 0.9, 0.5),
        tau0=14.0,
        tau=16.0,
        lam_c=0.22,
        n=100,
    )
    return registry


SCENARIOS: dict[str, SimulationScenario] = _build_registry()


def make_scenario(key: str, n: int | None = None) -> SimulationScenario:
    """Look a scenario up by registry key, optionally overriding the sample size."""
    if key not in SCENARIOS:
        raise ConfigurationError(f"unknown scenario key {key!r}")
    scenario = SCENARIOS[key]
    return scenario if n is None else replace(scenario, n=n)


@dataclass(frozen=True)
class MethodSummary:
    """Per-method study output: raw estimates and trimmed moments."""

    estimates: np.ndarray
    bias: np.ndarray
    variance: np.ndarray
    mse: np.ndarray
    nonconverged: int
    stage_failures: dict[str, int]


@dataclass(frozen=True)
class SimulationReport:
    scenario: SimulationScenario
    replications: int
    trim_fraction: float
    seed: int
    param_names: tuple[str, ...]
    truth: np.ndarray
    methods: dict[str, MethodSummary]


def _study_replicate(args):
    scenario, seed, r, methods = args
    ds = generate(scenario, seed, r)
    out = {}
    for method in methods:
        if method == "presmooth":
            fit = fit_presmoothing(ds)
            flags = {
                "incidence": bool(fit.incidence.converged),
                "latency": bool(fit.latency.converged),
            }
        else:
            fit = fit_mle_em(ds)
            flags = {"em": bool(fit.converged)}
        out[method] = (np.concatenate([fit.gamma, fit.beta]), flags)
    return out


def _trimmed_moments(estimates: np.ndarray, truth: np.ndarray, trim: float):
    """Columnwise bias/variance/MSE after dropping each tail of each column.

    MSE is assembled as bias^2 + variance so the identity holds exactly.
    """
    m = estimates.shape[0]
    k = int(math.floor(trim * m))
    cols = np.sort(estimates, axis=0)[k : m - k if k else m]
    bias = cols.mean(axis=0) - truth
    variance = cols.var(axis=0, ddof=1)
    return bias, variance, bias**2 + variance


def run_study(
    scenario: SimulationScenario,
    reps: int,
    seed: int = DEFAULT_SEED,
    methods: tuple[str, ...] = METHODS,
    n_jobs: int = 1,
) -> SimulationReport:
    """Monte Carlo comparison of the requested estimators on one scenario.

    Replication r draws its data from the (seed, r) stream, so the report is
    identical for any worker count.  Estimates from non-convergent fits are
    kept (they are real output, flagged) and the per-method failure counters
    are reported alongside; the trimmed moments drop the lowest and highest
    :data:`TRIM_FRACTION` of each coordinate independently.

    The replications run over ``n_jobs`` worker processes, in this process
    when it is 1 (the default); an ``n_jobs`` below 1 is a
    :class:`ConfigurationError`.  Unlike :func:`~smoothcure.inference.bootstrap_se`,
    a study does not fan out unasked: a caller that replaces a fitter in
    this module, as the benchmark harness does to keep each fit, sees only
    the fits made in this process.
    """
    if reps < 10:
        raise ConfigurationError(f"need at least 10 replications, got {reps}")
    if n_jobs < 1:
        raise ConfigurationError(f"need at least 1 worker, got n_jobs={n_jobs}")
    for method in methods:
        if method not in METHODS:
            raise ConfigurationError(f"unknown method {method!r}")

    tasks = [(scenario, seed, r, tuple(methods)) for r in range(reps)]
    results = _fan_out(_study_replicate, tasks, n_jobs)

    truth = np.concatenate([np.asarray(scenario.gamma), np.asarray(scenario.beta)])

    summaries = {}
    for method in methods:
        estimates = np.vstack([res[method][0] for res in results])
        stage_failures: dict[str, int] = {}
        nonconverged = 0
        for res in results:
            flags = res[method][1]
            if not all(flags.values()):
                nonconverged += 1
            for stage, ok in flags.items():
                stage_failures[stage] = stage_failures.get(stage, 0) + (0 if ok else 1)
        bias, variance, mse = _trimmed_moments(estimates, truth, TRIM_FRACTION)
        summaries[method] = MethodSummary(
            estimates=estimates,
            bias=bias,
            variance=variance,
            mse=mse,
            nonconverged=nonconverged,
            stage_failures=stage_failures,
        )
    return SimulationReport(
        scenario=scenario,
        replications=reps,
        trim_fraction=TRIM_FRACTION,
        seed=seed,
        param_names=generate(scenario, seed, 0).param_names,
        truth=truth,
        methods=summaries,
    )

"""Command-line front end: fit, simulate, bootstrap, predict, km.

Structured results go to JSON, tabular artifacts to CSV.  Every output file
embeds the tool version, a hash of the invocation configuration and the
seed, so any artifact can be traced back to the exact command that made it;
only simulate and bootstrap draw and take --seed, the others record the default.
Exit codes: 0 success, 1 numerical or convergence failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .data import CsvSchema, load_csv
from .errors import ConfigurationError, CureModelError
from .inference import _prediction, bootstrap_se
from .kernels import Bandwidth, default_grid
from .latency_cox import EM_MAX_ITER, EM_TOL
from .mle_baseline import CureModelFit
from .nonparam import kaplan_meier
from .pipeline import METHODS, fit_cure_model
from .simulate import DEFAULT_SEED, make_scenario, run_study

__all__ = ["main"]


def _config_hash(args: argparse.Namespace) -> str:
    # The parsed options, not the handler: a function's text holds its
    # address, which differs between runs.
    options = {name: value for name, value in vars(args).items() if name != "func"}
    payload = json.dumps(options, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _provenance(args: argparse.Namespace) -> dict:
    return {
        "version": __version__,
        "config_hash": _config_hash(args),
        "seed": getattr(args, "seed", DEFAULT_SEED),
    }


def _write_csv(path: str, header: list[str], rows, provenance: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        meta = ", ".join(f"{k}={v}" for k, v in provenance.items())
        fh.write(f"# {meta}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".12g") if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, default=str)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _split(value: str | None) -> tuple[str, ...]:
    return tuple(s for s in value.split(",") if s) if value else ()


def _schema_from_args(args: argparse.Namespace) -> CsvSchema:
    return CsvSchema(
        time=args.time,
        status=args.status,
        x_continuous=_split(args.x),
        x_discrete=_split(args.xdiscrete),
        z=_split(args.z),
    )


def _add_schema_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--time", required=True, help="follow-up time column")
    parser.add_argument("--status", required=True, help="event indicator column (1=event)")
    parser.add_argument("--x", default="", help="continuous incidence covariate columns")
    parser.add_argument("--xdiscrete", default="", help="discrete incidence covariate columns")
    parser.add_argument("--z", default="", help="latency covariate columns")


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=[*METHODS, "both"], default="presmooth")
    parser.add_argument(
        "--bandwidth",
        default=None,
        help="comma list on the standardized covariate scale; overrides cross-validation",
    )
    parser.add_argument("--bandwidth-grid", default=None, metavar="LO:HI:N")
    parser.add_argument("--latency-tol", type=float, default=EM_TOL)
    parser.add_argument("--latency-max-iter", type=int, default=EM_MAX_ITER)


def _fit_options(args: argparse.Namespace, method: str) -> dict:
    options = {"tol": args.latency_tol, "max_iter": args.latency_max_iter}
    if method == "mle":
        return options
    if args.bandwidth:
        options["bandwidth"] = Bandwidth(np.array([float(v) for v in args.bandwidth.split(",")]))
    if args.bandwidth_grid:
        try:
            lo, hi, num = args.bandwidth_grid.split(":")
            options["grid"] = default_grid(float(lo), float(hi), int(num))
        except ValueError as exc:
            raise ConfigurationError(f"--bandwidth-grid expects LO:HI:N, got {args.bandwidth_grid!r}") from exc
    return options


def _fit_block(fit: CureModelFit, names: tuple[str, ...]) -> dict:
    p = len(fit.gamma)
    block = {
        "method": fit.method,
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "loglik": float(fit.loglik),
        "gamma": {name: float(v) for name, v in zip(names[:p], fit.gamma)},
        "beta": {name: float(v) for name, v in zip(names[p:], fit.beta)},
    }
    if fit.bandwidth is not None:
        block["bandwidth"] = [float(h) for h in fit.bandwidth]
    return block


def cmd_fit(args: argparse.Namespace) -> int:
    ds = load_csv(args.input, _schema_from_args(args))
    names = ds.param_names
    methods = METHODS if args.method == "both" else (args.method,)
    provenance = _provenance(args)
    report = dict(provenance)
    report["estimates"] = []
    ok = True
    for method in methods:
        fit = fit_cure_model(ds, method, **_fit_options(args, method))
        block = _fit_block(fit, names)
        if args.lambda_out:
            path = args.lambda_out if len(methods) == 1 else f"{method}_{args.lambda_out}"
            _write_csv(
                path,
                ["time", "cumulative_hazard"],
                zip(fit.Lambda.times.tolist(), fit.Lambda.values.tolist()),
                provenance,
            )
            block["lambda_csv"] = path
        if args.dump_pihat and fit.pihat is not None:
            _write_csv(
                args.dump_pihat,
                ["index", "pihat"],
                enumerate(fit.pihat.tolist()),
                provenance,
            )
            block["pihat_csv"] = args.dump_pihat
        report["estimates"].append(block)
        ok = ok and fit.converged
    _write_json(args.out, report)
    return 0 if ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = make_scenario(args.key, n=args.n)
    methods = METHODS if args.methods == "both" else (args.methods,)
    report = run_study(scenario, args.reps, seed=args.seed, methods=methods, n_jobs=args.workers)
    rows = []
    for method, summary in report.methods.items():
        for j, name in enumerate(report.param_names):
            rows.append(
                (
                    method,
                    name,
                    float(report.truth[j]),
                    float(summary.bias[j]),
                    float(summary.variance[j]),
                    float(summary.mse[j]),
                    summary.nonconverged,
                    report.replications,
                )
            )
    provenance = _provenance(args)
    provenance["scenario"] = args.key
    _write_csv(
        args.out,
        ["method", "parameter", "truth", "bias", "variance", "mse", "nonconverged", "replications"],
        rows,
        provenance,
    )
    return 0


def cmd_bootstrap(args: argparse.Namespace) -> int:
    ds = load_csv(args.input, _schema_from_args(args))
    result = bootstrap_se(ds, method=args.method, B=args.B, seed=args.seed, n_jobs=args.workers)
    rows = [
        (name, float(est), float(se), float(p), result.estimates.shape[0], result.failures)
        for name, est, se, p in zip(result.param_names, result.point, result.se, result.pvalues)
    ]
    _write_csv(
        args.out,
        ["parameter", "estimate", "se", "pvalue", "B_effective", "failures"],
        rows,
        _provenance(args),
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    schema = _schema_from_args(args)
    train = load_csv(args.train, schema)
    test = load_csv(args.test, schema)
    fit = fit_cure_model(train, args.method)
    if not fit.converged:
        raise CureModelError("training fit did not converge; refusing to predict")
    phi, weights, pe = _prediction(fit, test, args.swap_pe_pairing)
    _write_csv(
        args.out,
        ["index", "phi", "weight"],
        [(i, float(phi[i]), float(weights[i])) for i in range(test.n)],
        _provenance(args),
    )
    print(json.dumps({"prediction_error": pe}))
    return 0


def cmd_km(args: argparse.Namespace) -> int:
    ds = load_csv(args.input, _schema_from_args(args))
    rows = []
    if args.group:
        column = None
        if args.group in ds.meta.names:
            column = ds.x[:, list(ds.meta.names).index(args.group) + 1]
        elif args.group in ds.z_names:
            column = ds.z[:, list(ds.z_names).index(args.group)]
        else:
            raise ConfigurationError(f"group column {args.group!r} is not a loaded covariate")
        for level in np.unique(column):
            mask = column == level
            curve = kaplan_meier(ds.y[mask], ds.delta[mask])
            rows += [(format(level, "g"), t, s) for t, s in zip(curve.times, curve.values)]
        header = ["group", "time", "survival"]
    else:
        curve = kaplan_meier(ds.y, ds.delta)
        rows = list(zip(curve.times.tolist(), curve.values.tolist()))
        header = ["time", "survival"]
    _write_csv(args.out, header, rows, _provenance(args))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothcure",
        description="Two-step and joint-EM estimation for mixture cure models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one or both estimators to a CSV dataset")
    p_fit.add_argument("--input", required=True)
    _add_schema_flags(p_fit)
    _add_fit_flags(p_fit)
    p_fit.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    p_fit.add_argument("--lambda-out", default=None, help="CSV path for the baseline hazard")
    p_fit.add_argument("--dump-pihat", default=None, help="CSV path for presmoothed cure probabilities")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study on a registry scenario")
    p_sim.add_argument(
        "--key", default="m1/s1/c1", help="registry key, such as m3nj/s1/c2 or demo/convergence"
    )
    p_sim.add_argument("--n", type=int, default=None, help="sample size (default: the scenario's)")
    p_sim.add_argument("--reps", type=int, default=300)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--methods", choices=[*METHODS, "both"], default="both")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_boot = sub.add_parser("bootstrap", help="naive bootstrap standard errors and Wald tests")
    p_boot.add_argument("--input", required=True)
    _add_schema_flags(p_boot)
    p_boot.add_argument("--method", choices=METHODS, default="presmooth")
    p_boot.add_argument("--B", type=int, default=500)
    p_boot.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_boot.add_argument("--workers", type=int, default=1)
    p_boot.add_argument("--out", required=True)
    p_boot.set_defaults(func=cmd_bootstrap)

    p_pred = sub.add_parser("predict", help="train/test incidence prediction error")
    p_pred.add_argument("--train", required=True)
    p_pred.add_argument("--test", required=True)
    _add_schema_flags(p_pred)
    p_pred.add_argument("--method", choices=METHODS, default="presmooth")
    p_pred.add_argument(
        "--swap-pe-pairing",
        action="store_true",
        help="pair the weight with log(phi) instead of log(1-phi)",
    )
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_km = sub.add_parser("km", help="Kaplan-Meier survival curve as CSV")
    p_km.add_argument("--input", required=True)
    _add_schema_flags(p_km)
    p_km.add_argument("--group", default=None, help="covariate column for per-group curves")
    p_km.add_argument("--out", required=True)
    p_km.set_defaults(func=cmd_km)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except CureModelError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

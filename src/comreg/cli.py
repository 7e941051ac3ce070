"""Command-line interface for COM-Poisson regression runs.

Subcommands: fit, test, bootstrap, diagnose, compare, simulate.  Each
report subcommand cmd_x(args, ds) returns its (payload, text) report of
the --data Dataset; main loads that Dataset, adds "errors" and emits the
report as JSON (schema: schemas/report-v1.json) or plain text.
Exit codes: 0 success, 1 statistical/convergence failure, 2 usage or
I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import baselines, data, diag, dist, fit, infer
from ._special import expit
from .data import Dataset, linear_predictor, load_csv

EXIT_OK = 0
EXIT_STAT = 1
EXIT_IO = 2

# Exit code of each failure a subcommand may raise; the first matching
# class wins.  LinAlgError and DataError are ValueErrors, so order matters.
ERROR_EXIT = (
    (fit.FitError, EXIT_STAT),           # includes a non-converged COM-Poisson fit
    (baselines.BaselineError, EXIT_STAT),
    (dist.TruncationError, EXIT_STAT),
    (diag.LeverageError, EXIT_STAT),     # residuals undefined at leverage 1
    (np.linalg.LinAlgError, EXIT_STAT),
    (OSError, EXIT_IO),                  # unreadable input, unwritable output
    (ValueError, EXIT_IO),               # DataError and invalid option values
)
# Failures that compare reports as a "failed: ..." row instead of exiting.
STAT_ERRORS = tuple(cls for cls, code in ERROR_EXIT if code == EXIT_STAT)


def _fit_com(ds: Dataset) -> fit.FitResult:
    fr = fit.fit_com(ds)
    if not fr.converged:
        raise fit.FitError("COM-Poisson fit did not converge")
    return fr


def _com_fitted(ds: Dataset, fr: fit.FitResult, kind: str) -> np.ndarray:
    # the closed-form mean only where it is valid; the median otherwise
    lam = np.exp(linear_predictor(ds, fr.beta))
    use_mean = kind == "mean" and dist.approx_mean_valid(lam, fr.nu)
    return fit.fitted_values(ds, fr, kind="mean_approx" if use_mean else "median")


def _mean_fitted(ds: Dataset, bf: baselines.BaselineFit, kind: str) -> np.ndarray:
    return np.exp(linear_predictor(ds, bf.beta))


def _probability_fitted(ds: Dataset, bf: baselines.BaselineFit, kind: str) -> np.ndarray:
    return expit(linear_predictor(ds, bf.beta))


@dataclass(frozen=True)
class Model:
    """How the CLI fits, predicts and reports one model."""

    report_name: str
    fit: Callable          # Dataset -> FitResult | BaselineFit
    fitted: Callable       # (Dataset, fit, --fitted kind) -> values for the MSE
    extra: str | None = None   # report key of the parameter beyond beta


MODELS = {
    "com": Model("com-poisson", _fit_com, _com_fitted, extra="nu"),
    "poisson": Model("poisson", baselines.fit_poisson, _mean_fitted),
    "negbin": Model("negbin", baselines.fit_negbin, _mean_fitted, extra="r"),
    "logistic": Model("logistic", baselines.fit_logistic, _probability_fitted),
    "rgpr": Model("rgpr", baselines.fit_rgpr, _mean_fitted, extra="alpha"),
}


def _parse_transforms(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"bad --transform {item!r}; expected column=log|identity")
        name, tag = item.split("=", 1)
        out[name.strip()] = tag.strip()
    return out


def _load(args) -> Dataset:
    return load_csv(args.data, response=args.response,
                    transforms=_parse_transforms(args.transform))


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        rendered = text
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)


def _aicc_json(value: float | None):
    return "inf" if value is not None and np.isinf(value) else value


def _finite_or_none(value) -> float | None:
    return float(value) if value is not None and np.isfinite(value) else None


def _fit_report(ds: Dataset, model: Model, f) -> dict:
    """JSON report of one fitted model, COM-Poisson or baseline."""
    aic, aicc = baselines.information_criteria(f.loglik, f.n_params, ds.n_obs)
    se = f.se
    report = {
        "model": model.report_name,
        "coefficients": [
            {"name": name, "estimate": float(b), "se": _finite_or_none(se[j])}
            for j, (name, b) in enumerate(zip(ds.names, f.beta))
        ],
        "loglik": float(f.loglik),
        "aic": float(aic),
        "aicc": _aicc_json(aicc),
        "converged": bool(f.converged),
    }
    extra = f.extra if isinstance(f, baselines.BaselineFit) else f.nu
    if isinstance(f, fit.FitResult):
        for c in report["coefficients"]:
            c["scaled_estimate"] = c["estimate"] / f.nu
        report["scaled_note"] = ("scaled_estimate = estimate / nu, for crude comparison "
                                 "with Poisson-scale coefficients")
        report["iterations"] = int(f.iterations)
    if extra is not None:
        report[model.extra] = {
            "estimate": float(extra),
            "se": None if f.boundary else _finite_or_none(se[-1]),
            "boundary": bool(f.boundary),
        }
    return report


def _coef_text(report: dict) -> str:
    # estimate (SE) per cell, paper-table style
    lines = [f"model: {report['model']}"]
    for c in report["coefficients"]:
        se = "-" if c.get("se") is None else f"{c['se']:.4f}"
        lines.append(f"  {c['name']:<12} {c['estimate']:10.4f} ({se})")
    for key in ("nu", "r", "alpha"):
        if key in report and isinstance(report[key], dict):
            blk = report[key]
            se = "-" if blk.get("se") is None else f"{blk['se']:.4f}"
            flag = "  [boundary]" if blk.get("boundary") else ""
            lines.append(f"  {key:<12} {blk['estimate']:10.4f} ({se}){flag}")
    lines.append(f"  loglik {report['loglik']:.4f}  AICc {float(report['aicc']):.4f}")
    return "\n".join(lines)


def cmd_fit(args, ds: Dataset) -> tuple[dict, str]:
    model = MODELS[args.model]
    report = _fit_report(ds, model, model.fit(ds))
    return report, _coef_text(report)


def cmd_test(args, ds: Dataset) -> tuple[dict, str]:
    res = infer.dispersion_test(
        ds,
        bootstrap_calibrate=args.bootstrap_calibrate,
        n_boot=args.n_boot,
        seed=args.seed,
    )
    payload = {"model": "dispersion-test", **vars(res)}
    text = (
        f"dispersion test (H0: nu = 1)\n"
        f"  C = {res.statistic:.4f}  df = {res.df}  p = {res.p_value:.6g}\n"
        f"  loglik: null {res.loglik_null:.4f}, alternative {res.loglik_alt:.4f}"
    )
    if res.boundary_warning:
        text += "\n  boundary: nu-hat at a bound or not identified; the chi^2_1 p is unreliable"
    if res.bootstrap_p_value is not None:
        text += f"\n  bootstrap-calibrated p = {res.bootstrap_p_value:.6g}"
    if res.bootstrap_failures:
        causes = ", ".join(f"{cause} {n}" for cause, n in res.bootstrap_failures.items())
        text += (f" ({sum(res.bootstrap_failures.values())} of {args.n_boot} replicates "
                 f"dropped: {causes})")
    return payload, text


def cmd_bootstrap(args, ds: Dataset) -> tuple[dict, str]:
    fr = MODELS["com"].fit(ds)
    boot = infer.parametric_bootstrap(
        ds, fr, n_boot=args.n_boot, ci_level=args.ci, seed=args.seed
    )
    payload = {"model": "com-poisson-bootstrap", **vars(boot)}
    del payload["replicates"], payload["param_names"]
    lines = [
        f"parametric bootstrap: {boot.n_boot} replicates, seed {boot.seed}, "
        f"{boot.n_failed} failed"
    ]
    for name, (lo, hi) in boot.intervals.items():
        lines.append(f"  {name:<12} {100 * boot.ci_level:.0f}% CI ({lo:.4f}, {hi:.4f})")
    return payload, "\n".join(lines)


def cmd_diagnose(args, ds: Dataset) -> tuple[dict, str]:
    fr = MODELS["com"].fit(ds)
    report = diag.diagnostics_report(ds, fr, deviance_kind=args.deviance)
    body = report.to_dict()
    # observation numbers are reported 1-based
    body["flagged_leverage"] = [i + 1 for i in report.flagged_leverage]
    body["flagged_residual"] = [i + 1 for i in report.flagged_residual]
    lines = ["obs  leverage  pearson  deviance"]
    for i in range(ds.n_obs):
        lines.append(
            f"{i + 1:>3}  {report.leverage[i]:8.4f}  {report.pearson[i]:7.3f}  "
            f"{report.deviance[i]:8.3f}"
        )
    lines.append(f"flagged leverage (obs): {body['flagged_leverage']}")
    lines.append(f"flagged residuals (obs): {body['flagged_residual']}")
    return {"model": "com-poisson-diagnostics", "diagnostics": body}, "\n".join(lines)


def cmd_compare(args, ds: Dataset) -> tuple[dict, str]:
    fits: dict = {}
    fitted: dict = {}
    for name in (m.strip() for m in args.models.split(",")):
        model = MODELS.get(name)
        if model is None:
            raise ValueError(f"unknown model {name!r} in --models")
        try:
            f = model.fit(ds)
            fitted[model.report_name] = model.fitted(ds, f, args.fitted)
        except STAT_ERRORS as exc:
            f = exc
        fits[model.report_name] = f
    comp = baselines.compare_models(ds, fits, fitted)
    lines = [f"{'model':<14} {'loglik':>10} {'k':>3} {'AIC':>9} {'AICc':>9} {'MSE':>8}  status"]
    for row in comp.rows:
        if row.status == "ok":
            mse = "-" if row.mse is None else f"{row.mse:8.3f}"
            lines.append(
                f"{row.model:<14} {row.loglik:10.4f} {row.k:>3} {row.aic:9.3f} "
                f"{row.aicc:9.3f} {mse}  ok"
            )
        else:
            lines.append(f"{row.model:<14} {'-':>10} {'-':>3} {'-':>9} {'-':>9} {'-':>8}  {row.status}")
    rows = [{**vars(row), "aicc": _aicc_json(row.aicc)} for row in comp.rows]
    return {"model": "comparison", "rows": rows}, "\n".join(lines)


def cmd_simulate(args) -> int:
    try:
        beta = [float(b) for b in args.beta.split(",")]
    except ValueError:
        raise ValueError(f"bad --beta {args.beta!r}; expected comma-separated numbers") from None
    ds = data.simulate(args.n, beta, args.nu, args.seed, args.x_min, args.x_max)
    data.write_csv(ds, args.output)
    print(f"wrote {args.n} rows to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comreg", description="COM-Poisson regression toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--data", required=True, help="input CSV path")
        p.add_argument("--response", required=True, help="response column name")
        p.add_argument("--transform", action="append", metavar="COL=TAG",
                       help="per-column transform, e.g. flow1=log")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--output", help="write report to this path instead of stdout")

    p = sub.add_parser("fit", help="fit one regression model")
    add_data_args(p)
    p.add_argument("--model", choices=list(MODELS), default="com")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("test", help="dispersion likelihood-ratio test")
    add_data_args(p)
    p.add_argument("--bootstrap-calibrate", action="store_true",
                   help="also report a bootstrap-calibrated p-value")
    p.add_argument("--n-boot", type=int, default=500)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("bootstrap", help="parametric bootstrap for the COM-Poisson fit")
    add_data_args(p)
    p.add_argument("--n-boot", type=int, default=1000)
    p.add_argument("--ci", type=float, default=0.90)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("diagnose", help="leverage and residual diagnostics")
    add_data_args(p)
    p.add_argument("--deviance", choices=["exact", "approx"], default="exact")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("compare", help="side-by-side model comparison")
    add_data_args(p)
    p.add_argument("--models", default="com,poisson,negbin,rgpr",
                   help="comma-separated model list")
    p.add_argument("--fitted", choices=["mean", "median"], default="median",
                   help="fitted-value kind for the COM-Poisson MSE")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="write a simulated COM-Poisson dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", required=True, help="comma-separated true coefficients "
                   "(intercept first)")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--x-min", type=float, default=0.0)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.func is cmd_simulate:    # writes a CSV, no report
            return cmd_simulate(args)
        payload, text = args.func(args, _load(args))
        _emit(args, {**payload, "errors": []}, text)
        return EXIT_OK
    except tuple(cls for cls, _ in ERROR_EXIT) as exc:
        if getattr(args, "format", "text") == "json":
            print(json.dumps({"errors": [{"message": str(exc)}]}, indent=2))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in ERROR_EXIT if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

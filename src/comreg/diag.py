"""GLM diagnostics for fitted COM-Poisson models, from one likelihood evaluation.

Leverage from the hat matrix H = W^(1/2) X (X'WX)^(-1) X' W^(1/2) with
W = diag(var(Y_i)); Pearson residuals (y - mu)/sqrt(w (1-h)); and
standardized deviance residuals sign(y - mu) sqrt(d) / sqrt(1-h).  The
exact unit deviance d compares each row's fitted loglik with its loglik
at the saturated lambda, whose mean is y: one vectorised Newton on
log lambda finds it for every distinct y.  The approximate d uses the
closed-form mean approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dist, fit
from ._special import log_factorial
from .data import Dataset, linear_predictor
from .fit import FitResult

LEVERAGE_FLAG_FACTOR = 2.0
RESIDUAL_FLAG = 2.0
MAX_NEWTON_STEPS = 60


class LeverageError(RuntimeError):
    """An observation has leverage 1, so its residuals are undefined."""


@dataclass
class DiagnosticsReport:
    leverage: np.ndarray
    pearson: np.ndarray
    deviance: np.ndarray
    deviance_kind: str
    flagged_leverage: list
    flagged_residual: list
    log_lambda: np.ndarray          # x-coordinates for residual scatter plots
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {k: np.where(np.isnan(v), None, v).tolist() if isinstance(v, np.ndarray) else v
               for k, v in vars(self).items()}
        out["notes"] = {str(k): v for k, v in self.notes.items()}
        return out


def _evaluation_and_leverage(ds: Dataset, fr: FitResult):
    """The one evaluation at the fit, and diag(H) from its variances."""
    ev = fit.evaluate(ds, fr.beta, fr.nu)
    Xw = ds.X * np.sqrt(ev.var)[:, None]
    XtWX = ds.X.T @ (ds.X * ev.var[:, None])
    try:
        M = np.linalg.solve(XtWX, Xw.T)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("X'WX is singular") from exc
    return ev, np.einsum("ij,ji->i", Xw, M)


def _one_minus_leverage(h: np.ndarray) -> np.ndarray:
    bad = ", ".join(f"data row {i + 1}" for i in np.flatnonzero(h >= 1.0 - 1e-12))
    if bad:
        raise LeverageError(f"leverage 1 at {bad}: residuals undefined")
    return 1.0 - h


def hat_diagonal(ds: Dataset, fr: FitResult) -> np.ndarray:
    """diag(H) with W = diag(var(Y_i | lambda_hat_i, nu_hat))."""
    return _evaluation_and_leverage(ds, fr)[1]


def _pearson(ds: Dataset, ev: fit.Evaluation, h: np.ndarray):
    """The Pearson residuals, NaN on a row whose fitted variance is not
    positive (its mass on one count, as near the Bernoulli limit), and
    those rows."""
    w = ev.var * _one_minus_leverage(h)
    flat = ~(w > 0)
    r = (ds.y.astype(float) - ev.mean) / np.sqrt(np.where(flat, 1.0, w))
    r[flat] = np.nan
    return r, np.flatnonzero(flat)


def pearson_residuals(ds: Dataset, fr: FitResult) -> np.ndarray:
    """(y_i - mu_hat_i) / sqrt(w_i (1 - h_i)); NaN where w_i is 0."""
    return _pearson(ds, *_evaluation_and_leverage(ds, fr))[0]


def _saturated(y: np.ndarray, nu: float):
    """Per entry of y: (log lambda whose mean is y, log-pmf of y there), and
    {y: reason} for each y whose lambda was not found (its loglik is NaN).

    Each distinct y > 0 is solved once, by Newton on t = log lambda
    (dE[Y]/dt = var Y) with one shared table per step, until the mean is
    within 1e-12 relative.  The mean is near lambda^(1/nu), so the start
    nu log y puts it near y, and a step clipped to +-nu moves it by at most
    about a factor e.  At y = 0 the loglik is the lambda -> 0 limit, 0.  At
    nu = 0 (geometric) the mean lambda/(1-lambda) is y at lambda = y/(1+y).
    """
    if nu == 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.log(y / (1.0 + y))
            return t, np.where(y > 0, y * t, 0.0) - np.log1p(y), {}
    targets, inv = np.unique(y, return_inverse=True)
    with np.errstate(divide="ignore"):
        t = nu * np.log(targets)
    ll = np.where(targets > 0, np.nan, 0.0)
    failed, steps = {}, 0
    todo = np.flatnonzero(targets > 0)
    while todo.size and steps < MAX_NEWTON_STEPS:
        yt, lam = targets[todo], np.exp(t[todo])
        try:
            tab = dist.log_term_table(lam, nu)
        except dist.TruncationError as exc:
            # a table truncates where its largest lambda does on its own
            failed[float(yt[lam.argmax()])] = str(exc)
            todo = np.delete(todo, lam.argmax())
            continue
        steps += 1
        mean, _, var, _, _ = tab.moments()
        solved = np.abs(yt - mean) <= 1e-12 * yt
        ll[todo[solved]] = (yt * t[todo] - nu * log_factorial(yt) - tab.log_z)[solved]
        with np.errstate(divide="ignore"):
            step = np.clip((yt - mean) / var, -nu, nu)
        t[todo[~solved]] += step[~solved]
        todo = todo[~solved]
    failed.update({float(v): f"saturated lambda for mean {v:g} not found in "
                   f"{MAX_NEWTON_STEPS} Newton steps" for v in targets[todo]})
    return t[inv], ll[inv], failed


def _approx_unit_deviance(y: np.ndarray, mu: np.ndarray, nu: float) -> np.ndarray:
    """Mean-approximation unit deviances at nu > 0; NaN where its domain fails,
    except at (nu < 1, y = 0), where the second normalizer term is set to 1."""
    a = (nu - 1.0) / (2.0 * nu)
    patched = (y == 0) & (nu < 1.0)     # there y + a < 0
    ok = (mu + a > 0) & ((y + a > 0) | patched)
    full = ok & ~patched
    # one table for the fitted means and one for the distinct y; 1 stands in elsewhere
    log_z_mu = dist.log_term_table(np.where(ok, mu + a, 1.0) ** nu, nu).log_z
    ys, inv = np.unique(np.where(full, y + a, 1.0), return_inverse=True)
    log_z_y = np.where(full, dist.log_term_table(ys ** nu, nu).log_z[inv], 0.0)
    ratio = np.where(full, (y + a) / np.where(ok, mu + a, 1.0), 1.0)
    d = 2.0 * (y * nu * np.log(ratio) + log_z_mu - log_z_y)
    return np.where(ok, np.maximum(0.0, d), np.nan)


def _deviance(ds: Dataset, fr: FitResult, ev: fit.Evaluation, h: np.ndarray, kind: str):
    if kind not in ("exact", "approx"):
        raise ValueError(f"kind must be 'exact' or 'approx', got {kind!r}")
    one_minus_h = _one_minus_leverage(h)
    y = ds.y.astype(float)
    d = (_approx_unit_deviance(y, ev.mean, fr.nu) if kind == "approx" and fr.nu > 0
         else np.full(ds.n_obs, np.nan))
    rows = np.flatnonzero(np.isnan(d))
    notes = dict.fromkeys(rows.tolist() if kind == "approx" else [],
                          "approximation domain violated; exact deviance used")
    # each row's fitted loglik y eta - nu log y! - log Z, from the same evaluation
    ll_fit = (y * linear_predictor(ds, fr.beta) - fr.nu * log_factorial(y) - ev.log_z)[rows]
    _, ll_sat, failed = _saturated(y[rows], fr.nu)
    d[rows] = np.maximum(0.0, -2.0 * (ll_fit - ll_sat))
    if failed:    # visit the rows only when some saturated lambda was not found
        notes.update({int(i): f"deviance unavailable: {failed[y[i]]}"
                      for i in rows if y[i] in failed})
    return np.sign(y - ev.mean) * np.sqrt(d) / np.sqrt(one_minus_h), notes


def deviance_residuals(ds: Dataset, fr: FitResult, kind: str = "exact"):
    """Standardized deviance residuals sign(y-mu) sqrt(d_i) / sqrt(1-h_i).

    kind='approx' uses the closed-form mean approximation of the unit
    deviance, falling back to the exact computation (with a note) for
    observations outside its domain (all at nu = 0).  A row whose saturated
    lambda cannot be found (its series truncates, or Newton runs out of
    steps) comes back NaN with a note.  Returns (residuals, notes).
    """
    return _deviance(ds, fr, *_evaluation_and_leverage(ds, fr), kind)


def diagnostics_report(ds: Dataset, fr: FitResult,
                       deviance_kind: str = "exact") -> DiagnosticsReport:
    """Leverage, Pearson and deviance residuals, and conventional flag lists.

    notes holds, per row, why a residual is approximate or missing: the
    deviance notes of deviance_residuals, and a NaN Pearson residual where
    the fitted variance is 0."""
    ev, h = _evaluation_and_leverage(ds, fr)
    pearson, flat = _pearson(ds, ev, h)
    deviance, notes = _deviance(ds, fr, ev, h, deviance_kind)
    note = "Pearson residual undefined: fitted variance 0"
    for i in flat.tolist():
        notes[i] = f"{notes[i]}; {note}" if i in notes else note
    h_cut = LEVERAGE_FLAG_FACTOR * fr.n_params / ds.n_obs
    flagged_h = np.flatnonzero(h > h_cut).tolist()
    flagged_r = np.flatnonzero(np.abs(deviance) > RESIDUAL_FLAG).tolist()
    return DiagnosticsReport(
        leverage=h,
        pearson=pearson,
        deviance=deviance,
        deviance_kind=deviance_kind,
        flagged_leverage=flagged_h,
        flagged_residual=flagged_r,
        log_lambda=linear_predictor(ds, fr.beta),
        notes=notes,
    )

"""GLM diagnostics for fitted COM-Poisson models.

Leverage from the hat matrix H = W^(1/2) X (X'WX)^(-1) X' W^(1/2) with
W = diag(var(Y_i)); Pearson residuals (y - mu)/sqrt(w (1-h)); and
standardized deviance residuals, exact (likelihood at the saturated
lambda found by root-finding on the mean) or via the closed-form mean
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
from scipy.special import gammaln

from . import dist, fit
from .data import Dataset, linear_predictor
from .fit import FitResult

LEVERAGE_FLAG_FACTOR = 2.0
RESIDUAL_FLAG = 2.0
MAX_BRACKET_STEPS = 60


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
        return {
            "leverage": [float(v) for v in self.leverage],
            "pearson": [float(v) for v in self.pearson],
            "deviance": [float(v) for v in self.deviance],
            "deviance_kind": self.deviance_kind,
            "flagged_leverage": list(self.flagged_leverage),
            "flagged_residual": list(self.flagged_residual),
            "log_lambda": [float(v) for v in self.log_lambda],
            "notes": {str(k): v for k, v in self.notes.items()},
        }


def _weights(ds: Dataset, fr: FitResult, policy: dist.SeriesPolicy):
    ev = fit.evaluate(ds, fr.beta, fr.nu, policy)
    return np.exp(linear_predictor(ds, fr.beta)), ev.mean, ev.var


def hat_diagonal(
    ds: Dataset,
    fr: FitResult,
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
) -> np.ndarray:
    """diag(H) with W = diag(var(Y_i | lambda_hat_i, nu_hat))."""
    _, _, w = _weights(ds, fr, policy)
    Xw = ds.X * np.sqrt(w)[:, None]
    XtWX = ds.X.T @ (ds.X * w[:, None])
    try:
        M = np.linalg.solve(XtWX, Xw.T)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("X'WX is singular") from exc
    return np.einsum("ij,ji->i", Xw, M)


def pearson_residuals(
    ds: Dataset,
    fr: FitResult,
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
) -> np.ndarray:
    """(y_i - mu_hat_i) / sqrt(w_i (1 - h_i))."""
    _, mu, w = _weights(ds, fr, policy)
    h = hat_diagonal(ds, fr, policy)
    if np.any(h >= 1.0 - 1e-12):
        bad = np.flatnonzero(h >= 1.0 - 1e-12).tolist()
        raise ValueError(f"leverage 1 at observations {bad}: residual undefined")
    return (ds.y.astype(float) - mu) / np.sqrt(w * (1.0 - h))


def _saturated_log_lambda(target: float, nu: float, policy: dist.SeriesPolicy) -> float:
    """log lambda at which the COM-Poisson mean equals target (target > 0)."""

    def mean_minus(loglam):
        return dist.mean_exact(dist.ComParams(float(np.exp(loglam)), nu), policy) - target

    # The mean is close to lambda^(1/nu), so the root lies near
    # nu log(target), and a step of nu in log lambda moves the mean by
    # about a factor e: the bracket stays where the series is short.
    lo = hi = nu * np.log(target)
    f_lo = f_hi = mean_minus(lo)
    for _ in range(MAX_BRACKET_STEPS):
        if f_lo <= 0 <= f_hi:
            return float(scipy.optimize.brentq(mean_minus, lo, hi, xtol=1e-10, rtol=1e-12))
        if f_lo > 0:
            lo -= nu
            f_lo = mean_minus(lo)
        else:
            hi += nu
            f_hi = mean_minus(hi)
    raise RuntimeError(f"could not bracket saturated lambda for mean {target}")


def _saturated_loglik(y: float, nu: float, policy: dist.SeriesPolicy) -> float:
    """log L(y, y; nu), the log-pmf of y at the lambda whose mean is y.

    For y = 0 this is the lambda -> 0 limit, where P(0) -> 1, so 0.
    """
    if y == 0:
        return 0.0
    loglam_sat = _saturated_log_lambda(float(y), nu, policy)
    return dist.log_pmf(int(y), dist.ComParams(float(np.exp(loglam_sat)), nu), policy)


def _unit_deviance_exact(y: float, lam_fit: float, nu: float,
                         policy: dist.SeriesPolicy, saturated: dict) -> float:
    """d = -2 [log L(mu, y; nu) - log L(y, y; nu)] via saturated lambda.

    saturated caches log L(y, y; nu) by y, so each distinct y is solved once.
    """
    if y not in saturated:
        saturated[y] = _saturated_loglik(y, nu, policy)
    ll_fit = dist.log_pmf(int(y), dist.ComParams(lam_fit, nu), policy)
    return max(0.0, -2.0 * (ll_fit - saturated[y]))


def _unit_deviance_approx(y: float, mu: float, nu: float,
                          policy: dist.SeriesPolicy):
    """Mean-approximation deviance; returns None where its domain fails
    outside the patched (nu < 1, y = 0) case."""
    a = (nu - 1.0) / (2.0 * nu)
    if mu + a <= 0:
        return None
    if y + a <= 0:
        if nu < 1.0 and y == 0:
            # Patched case: the second normalizer term is set to 1.
            log_z_mu = dist.log_normalizer(dist.ComParams((mu + a) ** nu, nu), policy)
            return max(0.0, 2.0 * log_z_mu)
        return None
    log_z_mu = dist.log_normalizer(dist.ComParams((mu + a) ** nu, nu), policy)
    log_z_y = dist.log_normalizer(dist.ComParams((y + a) ** nu, nu), policy)
    d = 2.0 * (y * nu * np.log((y + a) / (mu + a)) + log_z_mu - log_z_y)
    return max(0.0, d)


def deviance_residuals(
    ds: Dataset,
    fr: FitResult,
    kind: str = "exact",
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
):
    """Standardized deviance residuals sign(y-mu) sqrt(d_i) / sqrt(1-h_i).

    kind='approx' uses the closed-form mean approximation of the unit
    deviance, falling back to the exact computation (with a note) for
    observations outside its domain.  Returns (residuals, notes).
    """
    if kind not in ("exact", "approx"):
        raise ValueError(f"kind must be 'exact' or 'approx', got {kind!r}")
    lam, mu, _ = _weights(ds, fr, policy)
    h = hat_diagonal(ds, fr, policy)
    if np.any(h >= 1.0 - 1e-12):
        bad = np.flatnonzero(h >= 1.0 - 1e-12).tolist()
        raise ValueError(f"leverage 1 at observations {bad}: residual undefined")
    y = ds.y.astype(float)
    out = np.empty(ds.n_obs)
    notes: dict[int, str] = {}
    saturated: dict[float, float] = {}
    for i in range(ds.n_obs):
        d = None
        if kind == "approx":
            d = _unit_deviance_approx(y[i], mu[i], fr.nu, policy)
            if d is None:
                notes[i] = "approximation domain violated; exact deviance used"
        if d is None:
            try:
                d = _unit_deviance_exact(y[i], lam[i], fr.nu, policy, saturated)
            except RuntimeError as exc:
                notes[i] = f"deviance unavailable: {exc}"
                out[i] = np.nan
                continue
        out[i] = np.sign(y[i] - mu[i]) * np.sqrt(d) / np.sqrt(1.0 - h[i])
    return out, notes


def diagnostics_report(
    ds: Dataset,
    fr: FitResult,
    deviance_kind: str = "exact",
    policy: dist.SeriesPolicy = dist.DEFAULT_POLICY,
) -> DiagnosticsReport:
    """Leverage, Pearson and deviance residuals, and conventional flag lists."""
    h = hat_diagonal(ds, fr, policy)
    pearson = pearson_residuals(ds, fr, policy)
    deviance, notes = deviance_residuals(ds, fr, deviance_kind, policy)
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

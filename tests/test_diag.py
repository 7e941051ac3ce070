import numpy as np
import pytest
import scipy.optimize
from scipy.special import gammaln

from comreg import dist, fit
from comreg.data import Dataset, simulate
from comreg.diag import (
    LeverageError,
    MAX_NEWTON_STEPS,
    _saturated,
    deviance_residuals,
    diagnostics_report,
    hat_diagonal,
    pearson_residuals,
)
from comreg.dist import ComParams, log_pmf, mean_exact
from comreg.fit import fit_com


@pytest.fixture(scope="module")
def airfreight_fit(airfreight):
    return fit_com(airfreight)


@pytest.fixture(scope="module")
def poisson_slice():
    ds = simulate(150, [0.9, 0.5], 1.0, seed=51)
    return ds, fit_com(ds, fix_nu=1.0)


class TestHatDiagonal:
    def test_trace_identity(self, airfreight, airfreight_fit):
        h = hat_diagonal(airfreight, airfreight_fit)
        assert h.sum() == pytest.approx(airfreight.n_cols, abs=1e-8)

    def test_bounds(self, airfreight, airfreight_fit):
        h = hat_diagonal(airfreight, airfreight_fit)
        assert np.all(h >= 0) and np.all(h <= 1)

    def test_balanced_design_uniform_leverage(self):
        # a balanced +/-1 contrast gives equal lambda in pairs and a
        # perfectly symmetric design, so every h_i equals (p+1)/n
        n = 12
        x = np.tile([-1.0, 1.0], n // 2)
        X = np.column_stack([np.ones(n), x])
        # constant response: slope-hat is exactly zero, so the weights are
        # equal and h_i = (1 + x_i^2)/n = 2/n for the +/-1 contrast
        ds = Dataset(y=np.full(n, 3), X=X, names=("intercept", "x"))
        fr = fit_com(ds, fix_nu=1.0)
        h = hat_diagonal(ds, fr)
        assert np.allclose(h, np.full(n, 2.0 / n), atol=1e-6)

    def test_airfreight_largest_leverage_at_x3(self, airfreight, airfreight_fit):
        h = hat_diagonal(airfreight, airfreight_fit)
        assert int(np.argmax(h)) == int(np.argmax(airfreight.X[:, 1]))

    def test_trace_identity_simulated(self, poisson_slice):
        ds, fr = poisson_slice
        h = hat_diagonal(ds, fr)
        assert h.sum() == pytest.approx(ds.n_cols, abs=1e-8)


class TestPearsonResiduals:
    def test_zero_at_perfect_fit_mean(self, airfreight, airfreight_fit):
        r = pearson_residuals(airfreight, airfreight_fit)
        # construction check: recompute independently
        from comreg.dist import mean_exact, var_exact, ComParams

        lam = np.exp(airfreight.X @ airfreight_fit.beta)
        h = hat_diagonal(airfreight, airfreight_fit)
        for i in range(airfreight.n_obs):
            p = ComParams(lam[i], airfreight_fit.nu)
            mu_i = mean_exact(p)
            w_i = var_exact(p)
            expected = (airfreight.y[i] - mu_i) / np.sqrt(w_i * (1 - h[i]))
            assert r[i] == pytest.approx(expected, rel=1e-10)

    def test_matches_poisson_residuals_at_nu_one(self, poisson_slice):
        ds, fr = poisson_slice
        r = pearson_residuals(ds, fr)
        lam = np.exp(ds.X @ fr.beta)
        h = hat_diagonal(ds, fr)
        expected = (ds.y - lam) / np.sqrt(lam * (1 - h))
        assert np.allclose(r, expected, rtol=1e-6)


class TestDevianceResiduals:
    def test_zero_at_equal_mean(self, poisson_slice):
        ds, fr = poisson_slice
        r, _ = deviance_residuals(ds, fr, kind="exact")
        lam = np.exp(ds.X @ fr.beta)
        # residual sign tracks y - mu
        mu = lam  # nu = 1
        assert np.all(np.sign(r[np.abs(ds.y - mu) > 1e-9]) ==
                      np.sign((ds.y - mu)[np.abs(ds.y - mu) > 1e-9]))

    def test_poisson_special_case(self, poisson_slice):
        # exact unit deviance reduces to 2[y log(y/mu) - (y - mu)] at nu=1
        ds, fr = poisson_slice
        r, _ = deviance_residuals(ds, fr, kind="exact")
        mu = np.exp(ds.X @ fr.beta)
        h = hat_diagonal(ds, fr)
        y = ds.y.astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = 2 * (np.where(y > 0, y * np.log(y / mu), 0.0) - (y - mu))
        expected = np.sign(y - mu) * np.sqrt(np.maximum(d, 0)) / np.sqrt(1 - h)
        assert np.allclose(r, expected, atol=1e-8)

    def test_sign_coherence_with_pearson(self, airfreight, airfreight_fit):
        rd, _ = deviance_residuals(airfreight, airfreight_fit, kind="exact")
        rp = pearson_residuals(airfreight, airfreight_fit)
        mask = (np.abs(rd) > 1e-9) & (np.abs(rp) > 1e-9)
        assert np.all(np.sign(rd[mask]) == np.sign(rp[mask]))

    def test_monotone_in_distance_from_mean(self, airfreight, airfreight_fit):
        from comreg.dist import mean_exact, log_normalizer, ComParams

        lam = float(np.exp(airfreight.X @ airfreight_fit.beta)[0])
        nu = airfreight_fit.nu
        mu = mean_exact(ComParams(lam, nu))

        def unit_deviances(ys):
            y = np.array(list(ys), dtype=float)
            ll_fit = y * np.log(lam) - nu * gammaln(y + 1.0) - log_normalizer(ComParams(lam, nu))
            _, ll_sat, failed = _saturated(y, nu)
            assert failed == {}
            return list(np.maximum(0.0, -2.0 * (ll_fit - ll_sat)))

        above = unit_deviances(range(int(np.ceil(mu)), int(np.ceil(mu)) + 6))
        below = unit_deviances(range(int(np.floor(mu)), max(-1, int(np.floor(mu)) - 6), -1))
        assert all(b >= a - 1e-9 for a, b in zip(above, above[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(below, below[1:]))

    def test_approx_close_to_exact_underdispersed(self):
        # low-count under-dispersed data; the approximation is claimed
        # accurate even here
        ds = simulate(120, [0.4, 0.5], 3.0, seed=61)
        fr = fit_com(ds)
        exact, _ = deviance_residuals(ds, fr, kind="exact")
        approx, notes = deviance_residuals(ds, fr, kind="approx")
        mask = np.abs(exact) > 0.5
        assert mask.any()
        rel = np.abs(approx[mask] - exact[mask]) / np.abs(exact[mask])
        assert np.max(rel) < 0.10

    def test_exact_finite_overdispersed(self):
        # saturated lambda far above e^5 at nu = 0.35: every residual exact
        ds = simulate(150, [0.6, 0.5], 0.35, seed=3)
        fr = fit_com(ds)
        r, notes = deviance_residuals(ds, fr, kind="exact")
        assert np.all(np.isfinite(r))
        assert notes == {}

    def test_unknown_kind_rejected(self, airfreight, airfreight_fit):
        with pytest.raises(ValueError):
            deviance_residuals(airfreight, airfreight_fit, kind="fancy")


class TestDiagnosticsReport:
    def test_airfreight_outlier_observation_seven(self, airfreight, airfreight_fit):
        rep = diagnostics_report(airfreight, airfreight_fit)
        # paper numbering: observation #7 (0-based index 6), large negative
        idx = 6
        assert rep.deviance[idx] < -2
        assert idx in rep.flagged_residual

    def test_flag_threshold_behavior(self, airfreight, airfreight_fit):
        rep = diagnostics_report(airfreight, airfreight_fit)
        cut = 2.0 * airfreight_fit.n_params / airfreight.n_obs
        for i, h in enumerate(rep.leverage):
            assert (i in rep.flagged_leverage) == (h > cut)

    def test_serializable(self, airfreight, airfreight_fit):
        import json

        rep = diagnostics_report(airfreight, airfreight_fit)
        payload = json.dumps(rep.to_dict())
        back = json.loads(payload)
        assert len(back["leverage"]) == airfreight.n_obs
        assert back["deviance_kind"] == "exact"

    def test_perfect_fit_all_zero(self):
        # counts exactly at the Poisson mean: residuals vanish
        n = 8
        X = np.column_stack([np.ones(n), np.linspace(-0.5, 0.5, n)])
        ds = Dataset(y=np.full(n, 5), X=X, names=("intercept", "x"))
        fr = fit_com(ds, fix_nu=1.0, beta0=np.array([np.log(5.0), 0.0]))
        rep = diagnostics_report(ds, fr)
        assert np.allclose(rep.pearson, 0.0, atol=1e-5)
        assert np.allclose(rep.deviance, 0.0, atol=1e-5)
        assert rep.flagged_residual == []


class TestZeroVarianceRows:
    def test_nan_pearson_residual_with_a_note(self):
        # fitted at nu = NU_CEILING: most rows hold all their mass on one
        # count, so their fitted variance is 0; under warnings-as-errors the
        # Pearson residual's 0/0 raised
        ds = simulate(19, [1.672058780906997, 0.9840561651743411], 7.882771378759133, seed=181)
        fr = fit_com(ds)
        assert fr.converged and fr.nu == fit.NU_CEILING
        flat = ~(fit.evaluate(ds, fr.beta, fr.nu).var > 0)
        assert 0 < flat.sum() < ds.n_obs
        rep = diagnostics_report(ds, fr)
        assert np.array_equal(np.isnan(rep.pearson), flat)
        assert np.isfinite(rep.deviance).all()
        assert {i: v for i, v in rep.notes.items() if "Pearson" in v} == dict.fromkeys(
            np.flatnonzero(flat).tolist(), "Pearson residual undefined: fitted variance 0")
        assert np.array_equal(pearson_residuals(ds, fr), rep.pearson, equal_nan=True)


def _brentq_deviance_residuals(ds, fr):
    """Reference: one scalar brentq per distinct y for the saturated lambda,
    bracketed around nu log y in steps of nu, and one log_pmf per row."""
    nu = fr.nu
    lam = np.exp(ds.X @ fr.beta)
    h = hat_diagonal(ds, fr)
    saturated = {0: 0.0}

    def saturated_loglik(y):
        def mean_minus(t):
            return mean_exact(ComParams(float(np.exp(t)), nu)) - y

        lo = hi = nu * np.log(y)
        while mean_minus(lo) > 0:
            lo -= nu
        while mean_minus(hi) < 0:
            hi += nu
        t = scipy.optimize.brentq(mean_minus, lo, hi, xtol=1e-12, rtol=1e-14)
        return log_pmf(y, ComParams(float(np.exp(t)), nu))

    out = np.empty(ds.n_obs)
    for i, y in enumerate(int(v) for v in ds.y):
        if y not in saturated:
            saturated[y] = saturated_loglik(y)
        p = ComParams(float(lam[i]), nu)
        d = max(0.0, -2.0 * (log_pmf(y, p) - saturated[y]))
        out[i] = np.sign(y - mean_exact(p)) * np.sqrt(d) / np.sqrt(1.0 - h[i])
    return out


class TestSharedEvaluation:
    @pytest.mark.parametrize("call", [
        lambda ds, fr: diagnostics_report(ds, fr),
        lambda ds, fr: diagnostics_report(ds, fr, deviance_kind="approx"),
        hat_diagonal,
        pearson_residuals,
        lambda ds, fr: deviance_residuals(ds, fr, kind="exact"),
        lambda ds, fr: deviance_residuals(ds, fr, kind="approx"),
    ])
    def test_one_evaluation_per_call(self, airfreight, airfreight_fit, monkeypatch, call):
        calls = []
        evaluate = fit.evaluate

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(fit, "evaluate", counted)
        call(airfreight, airfreight_fit)
        assert len(calls) == 1

    def test_report_matches_public_views(self, airfreight, airfreight_fit):
        rep = diagnostics_report(airfreight, airfreight_fit)
        assert np.array_equal(rep.leverage, hat_diagonal(airfreight, airfreight_fit))
        assert np.array_equal(rep.pearson, pearson_residuals(airfreight, airfreight_fit))
        assert np.array_equal(rep.deviance, deviance_residuals(airfreight, airfreight_fit)[0])


class TestSaturatedNewton:
    @pytest.mark.parametrize("nu", [0.1, 0.35, 1.0, 5.78, 30.0])
    def test_mean_at_saturated_lambda_is_y(self, nu):
        y = np.array([1.0, 2.0, 5.0, 39.0, 500.0])
        log_lam, ll, failed = _saturated(y, nu)
        assert failed == {}
        for target, t in zip(y, log_lam):
            assert mean_exact(ComParams(float(np.exp(t)), nu)) == pytest.approx(target, rel=1e-10)
        # the loglik returned is log P(y) at that lambda
        expected = [log_pmf(int(v), ComParams(float(np.exp(t)), nu)) for v, t in zip(y, log_lam)]
        assert np.allclose(ll, expected, rtol=1e-10)

    def test_zero_and_repeated_counts(self):
        y = np.array([3.0, 0.0, 3.0, 7.0])
        log_lam, ll, failed = _saturated(y, 0.8)
        assert failed == {}
        assert ll[1] == 0.0
        assert log_lam[0] == log_lam[2] and ll[0] == ll[2]

    def test_step_cap_reported(self):
        # at nu = 1e-3 steps of +-nu cannot travel from log lambda = 0 to the root
        _, ll, failed = _saturated(np.array([1.0]), 1e-3)
        assert np.isnan(ll[0])
        assert failed[1.0].endswith(f"not found in {MAX_NEWTON_STEPS} Newton steps")

    @pytest.mark.parametrize("which", ["airfreight", "criterion_08"])
    def test_exact_residuals_match_brentq(self, request, which):
        if which == "airfreight":
            ds = request.getfixturevalue("airfreight")
        else:
            ds = simulate(868, [0.6, 0.5, -0.3], 0.35, seed=2024)
        fr = fit_com(ds)
        r, notes = deviance_residuals(ds, fr, kind="exact")
        assert notes == {}
        assert np.allclose(r, _brentq_deviance_residuals(ds, fr), rtol=0, atol=1e-9)

    def test_truncated_row_nan_with_note(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 40)
        y = rng.poisson(np.exp(1 + 0.5 * x))
        y[5] = 300
        ds = Dataset(y=y, X=np.column_stack([np.ones(40), x]), names=("intercept", "x"))
        fr = fit_com(ds, fix_nu=1.0)
        # 100 terms cover every fitted lambda, but not the saturated lambda = 300 of row 5
        full, _ = deviance_residuals(ds, fr, kind="exact")
        monkeypatch.setattr(dist, "MAX_TERMS", 100)
        r, notes = deviance_residuals(ds, fr, kind="exact")
        assert list(notes) == [5]
        assert notes[5].startswith("deviance unavailable: series not converged")
        assert np.isnan(r[5])
        assert np.all(np.isfinite(np.delete(r, 5)))
        # the other rows are what the default cap gives
        assert np.allclose(np.delete(r, 5), np.delete(full, 5), rtol=1e-10, atol=1e-12)


class TestGeometricFit:
    """nu = 0: the saturated lambda y/(1+y) has a closed form, and the mean
    approximation is undefined."""

    @pytest.fixture(scope="class")
    def geometric(self, geometric_data):
        fr = fit_com(geometric_data, beta0=[np.log(0.4), 0.0], fix_nu=0.0)
        assert fr.converged and fr.nu == 0.0
        return geometric_data, fr

    def test_saturated_closed_form(self):
        y = np.array([0.0, 1.0, 4.0, 1.0])
        log_lam, ll, failed = _saturated(y, 0.0)
        assert failed == {} and ll[0] == 0.0
        for target, t, value in zip(y[1:], log_lam[1:], ll[1:]):
            p = ComParams(float(np.exp(t)), 0.0)
            assert mean_exact(p) == pytest.approx(target, rel=1e-12)
            assert value == pytest.approx(log_pmf(int(target), p), rel=1e-12)

    def test_exact_deviance_against_closed_form(self, geometric):
        ds, fr = geometric
        rep = diagnostics_report(ds, fr)
        lam = np.exp(ds.X @ fr.beta)
        h = hat_diagonal(ds, fr)
        expected = []
        for y, l, hi in zip(ds.y.tolist(), lam, h):
            sat = 0.0 if y == 0 else log_pmf(y, ComParams(y / (1.0 + y), 0.0))
            d = max(0.0, -2.0 * (log_pmf(y, ComParams(float(l), 0.0)) - sat))
            expected.append(np.sign(y - l / (1.0 - l)) * np.sqrt(d / (1.0 - hi)))
        assert rep.notes == {}
        assert np.allclose(rep.deviance, expected, rtol=1e-10, atol=1e-12)

    def test_approx_deviance_falls_back_to_exact(self, geometric):
        ds, fr = geometric
        r, notes = deviance_residuals(ds, fr, kind="approx")
        assert np.array_equal(r, deviance_residuals(ds, fr)[0])
        assert sorted(notes) == list(range(ds.n_obs))
        assert set(notes.values()) == {"approximation domain violated; exact deviance used"}

    def test_mean_approx_refused(self, geometric):
        ds, fr = geometric
        assert not dist.approx_mean_valid(np.exp(ds.X @ fr.beta), 0.0)
        with pytest.raises(ValueError, match="median"):
            fit.fitted_values(ds, fr, "mean_approx")


class TestLeverageOne:
    def test_residuals_raise_typed_error(self, airfreight):
        # an indicator of data row 3 fits that row exactly: leverage 1
        X = np.column_stack([airfreight.X, np.eye(airfreight.n_obs)[:, 2]])
        ds = Dataset(y=airfreight.y, X=X, names=(*airfreight.names, "row3"))
        fr = fit_com(ds)
        assert hat_diagonal(ds, fr)[2] == pytest.approx(1.0)
        for call in (pearson_residuals, deviance_residuals, diagnostics_report):
            with pytest.raises(LeverageError, match="leverage 1 at data row 3:"):
                call(ds, fr)

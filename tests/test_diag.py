import numpy as np
import pytest

from comreg.data import Dataset, simulate
from comreg.diag import (
    deviance_residuals,
    diagnostics_report,
    hat_diagonal,
    pearson_residuals,
)
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
        from comreg.diag import _unit_deviance_exact
        from comreg.dist import mean_exact, ComParams, DEFAULT_POLICY

        lam = float(np.exp(airfreight.X @ airfreight_fit.beta)[0])
        nu = airfreight_fit.nu
        mu = mean_exact(ComParams(lam, nu))
        saturated = {}
        above = [
            _unit_deviance_exact(y, lam, nu, DEFAULT_POLICY, saturated)
            for y in range(int(np.ceil(mu)), int(np.ceil(mu)) + 6)
        ]
        below = [
            _unit_deviance_exact(y, lam, nu, DEFAULT_POLICY, saturated)
            for y in range(int(np.floor(mu)), max(-1, int(np.floor(mu)) - 6), -1)
        ]
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

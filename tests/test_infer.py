from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from comreg import dist, fit
from comreg.baselines import BaselineError, fit_poisson
from comreg.data import Dataset, simulate
from comreg.diag import diagnostics_report
from comreg.fit import fit_com
from comreg.infer import dispersion_test, parametric_bootstrap, wald_z


@pytest.fixture(scope="module")
def airfreight_fit(airfreight):
    return fit_com(airfreight)


# fits that are not fit_com(ds) with nu estimated
WRONG_FITS = pytest.mark.parametrize("wrong_fit", [
    lambda ds: fit_com(ds, fix_nu=1.0),
    lambda ds: fit_com(ds, fix_nu=3.0),
    lambda ds: fit_com(simulate(30, [0.5, 0.4], 1.5, seed=3)),
    lambda ds: fit_com(simulate(10, [0.5, 0.4, 0.1], 1.5, seed=3)),
], ids=["nu fixed at 1", "nu fixed at 3", "other rows", "other columns"])


class TestDispersionTest:
    def test_airfreight_statistic(self, airfreight):
        res = dispersion_test(airfreight)
        # C derived from the published AICc entries 47.29 / 52.11
        assert res.statistic == pytest.approx(9.1, abs=0.5)
        assert res.p_value == pytest.approx(chi2.sf(res.statistic, 1), rel=1e-12)
        assert res.p_value < 0.01

    def test_nonnegative_and_nested(self, airfreight):
        res = dispersion_test(airfreight)
        assert res.statistic >= 0
        assert res.loglik_alt >= res.loglik_null - 1e-6

    def test_poisson_data_small_statistic(self):
        ds = simulate(500, [0.8, 0.4], 1.0, seed=31)
        res = dispersion_test(ds)
        assert res.p_value > 0.01

    def test_overdispersed_data_large_statistic(self):
        # crash-like over-dispersion
        ds = simulate(600, [0.6, 0.5], 0.35, seed=37)
        res = dispersion_test(ds)
        assert res.statistic > 50
        assert res.p_value < 1e-10

    def test_underdispersed_detected(self):
        ds = simulate(200, [1.2, 0.5], 5.0, seed=41)
        res = dispersion_test(ds)
        assert res.p_value < 0.01

    @pytest.mark.parametrize("data", ["airfreight", "criterion 08"])
    def test_caller_fit_gives_the_same_test(self, airfreight, monkeypatch, data):
        ds = airfreight if data == "airfreight" else simulate(868, [0.6, 0.5, -0.3], 0.35, seed=2024)
        fr = fit_com(ds)
        refitted = dispersion_test(ds)
        monkeypatch.setattr(fit, "fit_replicates", lambda *a, **k: pytest.fail("refitted"))
        assert dispersion_test(ds, fr=fr) == refitted

    @WRONG_FITS
    def test_caller_fit_must_be_the_alternative(self, airfreight, wrong_fit):
        # a fixed nu gave C = 0, p = 1 (or a p from the fixed nu), and a fit
        # to other data a statistic against the wrong likelihood
        with pytest.raises(ValueError, match=r"fr must be fit_com\(ds\) with nu estimated"):
            dispersion_test(airfreight, fr=wrong_fit(airfreight))

    def test_bootstrap_calibration_requires_seed(self, airfreight):
        with pytest.raises(ValueError, match="seed"):
            dispersion_test(airfreight, bootstrap_calibrate=True)

    def test_bootstrap_calibrated_p_value(self, airfreight):
        res = dispersion_test(
            airfreight, bootstrap_calibrate=True, n_boot=100, seed=5
        )
        assert res.bootstrap_p_value is not None
        assert 0.0 <= res.bootstrap_p_value <= 0.1

    @pytest.mark.parametrize("seed", [5, 6])
    def test_calibration_matches_per_replicate_reference(self, airfreight, seed):
        # the loop the stacked engine replaced: a Poisson fit and a
        # COM-Poisson fit of each simulated null response in turn
        res = dispersion_test(airfreight, bootstrap_calibrate=True, n_boot=100, seed=seed)
        lam0 = np.exp(airfreight.X @ fit_poisson(airfreight).beta)
        stats = []
        for child in np.random.SeedSequence(seed).spawn(100):
            y = np.random.default_rng(child).poisson(lam0)
            ds = Dataset(y=y, X=airfreight.X, names=airfreight.names)
            null = fit_poisson(ds)
            alt = fit_com(ds, beta0=null.beta)
            stats.append(max(0.0, -2.0 * (null.loglik - alt.loglik)))
        assert res.bootstrap_p_value == float(np.mean(np.array(stats) >= res.statistic))

    def test_calibration_drops_failed_replicates(self, sparse_dummy):
        # the loop of the reference above, keeping the replicates whose
        # Poisson and COM-Poisson fits both succeed and converge
        ds = sparse_dummy
        res = dispersion_test(ds, bootstrap_calibrate=True, n_boot=200, seed=1)
        lam0 = np.exp(ds.X @ fit_poisson(ds).beta)
        stats, failures = [], Counter()
        for child in np.random.SeedSequence(1).spawn(200):
            rep = Dataset(y=np.random.default_rng(child).poisson(lam0), X=ds.X, names=ds.names)
            try:
                null = fit_poisson(rep)
                alt = fit_com(rep, beta0=null.beta)
            except (BaselineError, fit.FitError) as exc:
                failures[type(exc).__name__] += 1
                continue
            if not alt.converged:
                failures["nonconverged"] += 1
                continue
            stats.append(max(0.0, -2.0 * (null.loglik - alt.loglik)))
        assert res.bootstrap_failures == dict(failures) == {"NonConvergenceError": 30}
        assert res.bootstrap_p_value == float(np.mean(np.array(stats) >= res.statistic))

    @pytest.mark.parametrize("given", [False, True])
    def test_unconverged_alternative_is_a_fit_error(self, airfreight, monkeypatch, given):
        fr = replace(fit_com(airfreight), converged=False) if given else None
        monkeypatch.setattr(fit, "MAX_ITER", 5)    # the airfreight fit needs 7 steps
        with pytest.raises(fit.FitError, match="COM-Poisson fit did not converge"):
            dispersion_test(airfreight, fr=fr)

    @pytest.mark.slow
    def test_null_distribution_ks(self):
        # C under simulated Poisson data vs chi^2_1, n=200
        stats = []
        for rep in range(500):
            ds = simulate(200, [0.8, 0.4], 1.0, seed=10_000 + rep)
            stats.append(dispersion_test(ds).statistic)
        stats = np.asarray(stats)
        # one-sided comparison at the 1% level
        _, pval = kstest(stats, chi2(df=1).cdf, alternative="greater")
        assert pval > 0.01


@pytest.fixture(scope="module")
def boot_small(airfreight, airfreight_fit):
    return parametric_bootstrap(
        airfreight, airfreight_fit, n_boot=120, ci_level=0.90, seed=99
    )


class TestParametricBootstrap:
    def test_reproducible(self, airfreight, airfreight_fit, boot_small):
        again = parametric_bootstrap(
            airfreight, airfreight_fit, n_boot=120, ci_level=0.90, seed=99
        )
        assert np.array_equal(boot_small.replicates, again.replicates)
        assert boot_small.intervals == again.intervals

    def test_interval_structure(self, boot_small):
        assert set(boot_small.param_names) == {"intercept", "transfers", "nu"}
        lo, hi = boot_small.intervals["nu"]
        assert lo < hi
        assert boot_small.n_failed + len(boot_small.replicates) == 120
        assert sum(boot_small.failures.values()) == boot_small.n_failed

    def test_percentile_equivariance_log_nu(self, boot_small):
        # monotone reparameterization commutes with percentile endpoints
        nu_col = boot_small.replicates[:, -1]
        lo, hi = np.percentile(np.log(nu_col), [5.0, 95.0], method="inverted_cdf")
        assert np.exp(lo) == pytest.approx(boot_small.intervals["nu"][0], rel=1e-10)
        assert np.exp(hi) == pytest.approx(boot_small.intervals["nu"][1], rel=1e-10)

    def test_failures_tallied_by_cause(self, airfreight, airfreight_fit, monkeypatch):
        # The engine inverts each replicate's information once, in one stack:
        # every 7th inversion fails, and max_iter=7 cuts off the slower replicates.
        invert_real = fit._invert_information
        calls = []

        def flaky(info):
            cov, errors = invert_real(info)
            for b in range(len(info)):
                calls.append(1)
                if len(calls) % 7 == 0:
                    errors[b] = fit.SingularInformationError("information matrix not invertible")
            return cov, errors

        monkeypatch.setattr(fit, "_invert_information", flaky)
        monkeypatch.setattr(fit, "MAX_ITER", 7)
        boot = parametric_bootstrap(airfreight, airfreight_fit, n_boot=100, seed=3)
        assert boot.failures["SingularInformationError"] == 14
        assert boot.failures["nonconverged"] >= 17
        assert sum(boot.failures.values()) == boot.n_failed
        assert boot.n_failed + len(boot.replicates) == 100

    def test_every_replicate_failed_is_a_fit_error(self, airfreight, airfreight_fit,
                                                   monkeypatch):
        # no replicate converges in 5 steps
        monkeypatch.setattr(fit, "MAX_ITER", 5)
        with pytest.raises(fit.FitError, match="every bootstrap replicate failed") as err:
            parametric_bootstrap(airfreight, airfreight_fit, n_boot=100, seed=3)
        assert "'nonconverged': 100" in str(err.value)

    def test_untyped_failure_propagates(self, airfreight, airfreight_fit, monkeypatch):
        def broken(info):
            raise KeyError("defect")

        monkeypatch.setattr(fit, "_invert_information", broken)
        with pytest.raises(KeyError):
            parametric_bootstrap(airfreight, airfreight_fit, n_boot=100, seed=3)

    def test_returned_overflow_is_tallied(self, airfreight, airfreight_fit, monkeypatch):
        # fit_replicates returns OverflowError (one of fit.SERIES_ERRORS) for a
        # replicate whose linear predictor overflows: here every 10th one
        clean = parametric_bootstrap(airfreight, airfreight_fit, n_boot=100, seed=3)
        fit_replicates = fit.fit_replicates

        def overflowing(*args, **kwargs):
            out = fit_replicates(*args, **kwargs)
            return [OverflowError("lambda overflows") if b % 10 == 9 else f
                    for b, f in enumerate(out)]

        monkeypatch.setattr(fit, "fit_replicates", overflowing)
        boot = parametric_bootstrap(airfreight, airfreight_fit, n_boot=100, seed=3)
        assert clean.n_failed == 0
        assert boot.failures == {"OverflowError": 10}
        assert boot.n_failed == 10
        kept = np.arange(100) % 10 != 9
        assert np.array_equal(boot.replicates, clean.replicates[kept])

    def test_matches_per_replicate_reference(self, airfreight, airfreight_fit, boot_small):
        # the loop the stacked engine replaced: one substream, one draw and
        # one fit_com per replicate
        fr = airfreight_fit
        lam = np.exp(airfreight.X @ fr.beta)
        rows = []
        for child in np.random.SeedSequence(99).spawn(120):
            y = dist.sample_many(lam, fr.nu, np.random.default_rng(child))
            ref = fit_com(Dataset(y=y, X=airfreight.X, names=airfreight.names))
            assert ref.converged
            rows.append([*ref.beta, ref.nu])
        assert boot_small.n_failed == 0
        assert np.allclose(boot_small.replicates, rows, rtol=1e-9, atol=0)

    def test_validation(self, airfreight, airfreight_fit):
        with pytest.raises(ValueError, match="n_boot"):
            parametric_bootstrap(airfreight, airfreight_fit, n_boot=10, seed=1)
        with pytest.raises(ValueError, match="ci_level"):
            parametric_bootstrap(
                airfreight, airfreight_fit, n_boot=100, ci_level=1.5, seed=1
            )
        with pytest.raises(ValueError, match="parametric_bootstrap requires a converged fit"):
            parametric_bootstrap(airfreight, replace(airfreight_fit, converged=False),
                                 n_boot=100, seed=1)

    @WRONG_FITS
    def test_fit_must_estimate_nu_on_the_data(self, airfreight, wrong_fit):
        # a fixed-nu fit was resampled at that nu and refitted with nu free,
        # and a fit to other data resampled from the wrong model
        with pytest.raises(ValueError, match=r"fr must be fit_com\(ds\) with nu estimated"):
            parametric_bootstrap(airfreight, wrong_fit(airfreight), n_boot=100, seed=1)


class TestWaldZ:
    def test_airfreight_com_slope(self, airfreight_fit):
        assert wald_z(airfreight_fit, 1) == pytest.approx(2.15, abs=0.11)

    def test_airfreight_poisson_slope(self, airfreight):
        pois = fit_poisson(airfreight)
        z = pois.beta[1] / pois.se[1]
        assert z == pytest.approx(3.33, abs=0.02)

    def test_zero_coefficient(self, airfreight_fit):
        fr = airfreight_fit
        fr2 = type(fr)(
            beta=np.array([0.0, 0.0]),
            nu=fr.nu,
            cov=fr.cov,
            loglik=fr.loglik,
            n_obs=fr.n_obs,
            n_params=fr.n_params,
            converged=True,
            iterations=fr.iterations,
        )
        assert wald_z(fr2, 0) == 0.0

    def test_boundary_nu_refused(self, airfreight_fit):
        fr = airfreight_fit
        fr_b = type(fr)(
            beta=fr.beta,
            nu=fr.nu,
            cov=fr.cov,
            loglik=fr.loglik,
            n_obs=fr.n_obs,
            n_params=fr.n_params,
            converged=True,
            iterations=fr.iterations,
            boundary=True,
        )
        with pytest.raises(ValueError, match="boundary"):
            wald_z(fr_b, len(fr.beta))

    def test_every_parameter(self, airfreight_fit):
        expected = [2.21659950904047, 2.1542424650947813, 2.226576275146169]
        assert [wald_z(airfreight_fit, j) for j in range(3)] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("j", [-1, -3, 3])
    def test_index_outside_the_parameters_refused(self, airfreight_fit, j):
        # j = -1 divided beta_transfers by nu's SE; 3 and -3 raised IndexError
        with pytest.raises(ValueError, match=f"j must lie in 0..2, got {j}"):
            wald_z(airfreight_fit, j)

    def test_unconverged_fit_refused(self, airfreight_fit):
        with pytest.raises(ValueError, match="wald_z requires a converged fit"):
            wald_z(replace(airfreight_fit, converged=False), 1)

    def test_fixed_nu_has_no_z(self, airfreight):
        with pytest.raises(ValueError, match="covariance diagonal entry 2 is not positive"):
            wald_z(fit_com(airfreight, fix_nu=1.0), 2)


def test_series_cap_reaches_every_path(monkeypatch):
    # lambda near e^5 puts every row's mode past a cap of 100 terms
    ds = simulate(30, [5.0, 0.1], 1.0, seed=3)
    fr = fit_com(ds)
    monkeypatch.setattr(dist, "MAX_TERMS", 100)
    paths = {
        "simulate": lambda: simulate(30, [5.0, 0.1], 1.0, seed=3),
        "fit_com": lambda: fit_com(ds),
        "parametric_bootstrap": lambda: parametric_bootstrap(ds, fr, n_boot=100, seed=1),
        "dispersion_test": lambda: dispersion_test(ds),
        "fitted_values": lambda: fit.fitted_values(ds, fr),
        "diagnostics_report": lambda: diagnostics_report(ds, fr),
    }
    for name, call in paths.items():
        with pytest.raises(dist.TruncationError, match="after 100 terms"):
            call()
            pytest.fail(f"{name} ignored the cap")

import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from comreg import dist, fit
from comreg.baselines import fit_logistic, fit_poisson, information_criteria, poisson_newton
from comreg.data import Dataset, simulate
from comreg.fit import (
    evaluate,
    fisher_information,
    fit_com,
    fit_replicates,
    fitted_values,
    loglik,
    score,
)


@pytest.fixture(scope="module")
def airfreight_fit(airfreight):
    return fit_com(airfreight)


def numerical_gradient(f, z, h=1e-6):
    g = np.empty_like(z)
    for j in range(len(z)):
        e = np.zeros_like(z)
        e[j] = h
        g[j] = (f(z + e) - f(z - e)) / (2 * h)
    return g


class TestLoglik:
    def test_matches_poisson_at_nu_one(self, airfreight):
        beta = np.array([2.0, 0.2])
        eta = airfreight.X @ beta
        y = airfreight.y.astype(float)
        expected = float(np.sum(y * eta - np.exp(eta) - gammaln(y + 1.0)))
        assert loglik(airfreight, beta, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_single_zero_count_poisson_unit(self):
        ds = Dataset(
            y=np.array([0, 0, 0]),
            X=np.column_stack([np.ones(3), [0.0, 1.0, 2.0]]),
            names=("intercept", "x"),
        )
        # each lambda_i = 1, nu = 1: per-observation loglik is -1
        assert loglik(ds, np.zeros(2), 1.0) == pytest.approx(-3.0, abs=1e-12)

    def test_airfreight_value_from_reported_criteria(self, airfreight, airfreight_fit):
        # -2 logL backed out of the published AICc 47.29 with k=3, n=10
        assert -2.0 * airfreight_fit.loglik == pytest.approx(37.29, abs=0.05)

    def test_nu_zero_divergence(self, airfreight):
        with pytest.raises(dist.DivergentSeriesError):
            loglik(airfreight, np.array([1.0, 0.1]), 0.0)


class TestScore:
    def test_zero_gradient_at_mle(self, airfreight, airfreight_fit):
        g = score(airfreight, airfreight_fit.beta, airfreight_fit.nu)
        # nu-component on the log scale is what the optimizer drove to zero
        g[-1] *= airfreight_fit.nu
        assert np.max(np.abs(g)) < 1e-5

    def test_poisson_block_at_nu_one(self, airfreight):
        beta = np.array([2.0, 0.15])
        lam = np.exp(airfreight.X @ beta)
        g = score(airfreight, beta, 1.0)
        expected = airfreight.X.T @ (airfreight.y - lam)
        assert np.allclose(g[:-1], expected, rtol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_difference_agreement(self, airfreight, seed):
        rng = np.random.default_rng(seed)
        beta = np.array([2.3, 0.26]) + rng.normal(scale=0.05, size=2)
        nu = float(np.exp(rng.normal(scale=0.3)))

        g = score(airfreight, beta, nu)

        def f(z):
            return loglik(airfreight, z[:2], z[2])

        z = np.array([*beta, nu])
        fd = numerical_gradient(f, z)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_finite_difference_on_simulated_points(self):
        ds = simulate(60, [0.6, 0.4], 1.6, seed=9)
        rng = np.random.default_rng(13)
        for _ in range(5):
            beta = np.array([0.6, 0.4]) + rng.normal(scale=0.1, size=2)
            nu = float(np.exp(rng.normal(scale=0.3)))
            g = score(ds, beta, nu)
            fd = numerical_gradient(lambda z: loglik(ds, z[:2], z[2]),
                                    np.array([*beta, nu]))
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-6)


class TestFisherInformation:
    def test_poisson_intercept_only(self):
        ds = Dataset(
            y=np.array([3, 4, 5, 2, 3]),
            X=np.column_stack([np.ones(5), [0.1, -0.2, 0.3, 0.0, -0.1]]),
            names=("intercept", "x"),
        )
        beta = np.array([1.0, 0.0])
        info = fisher_information(ds, beta, 1.0)
        # beta0 entry is sum of lambda_i = n * e at nu=1
        assert info[0, 0] == pytest.approx(5 * np.e, rel=1e-8)

    def test_symmetry_and_psd_beta_block(self, airfreight):
        info = fisher_information(airfreight, np.array([2.3, 0.26]), 2.0)
        assert np.allclose(info, info.T)
        eigvals = np.linalg.eigvalsh(info[:2, :2])
        assert np.all(eigvals >= -1e-10)

    def test_matches_negated_hessian(self, airfreight, airfreight_fit):
        z0 = np.array([*airfreight_fit.beta, airfreight_fit.nu])
        h = 1e-4
        n = len(z0)
        H = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                zi = np.zeros(n)
                zj = np.zeros(n)
                zi[i] = h
                zj[j] = h
                H[i, j] = (
                    loglik(airfreight, (z0 + zi + zj)[:2], (z0 + zi + zj)[2])
                    - loglik(airfreight, (z0 + zi - zj)[:2], (z0 + zi - zj)[2])
                    - loglik(airfreight, (z0 - zi + zj)[:2], (z0 - zi + zj)[2])
                    + loglik(airfreight, (z0 - zi - zj)[:2], (z0 - zi - zj)[2])
                ) / (4 * h * h)
        info = fisher_information(airfreight, airfreight_fit.beta, airfreight_fit.nu)
        assert np.allclose(info, -H, rtol=1e-3)

    def test_reproduces_paper_ses(self, airfreight, airfreight_fit):
        se = airfreight_fit.se
        assert se[0] == pytest.approx(6.2369, rel=0.05)
        assert se[1] == pytest.approx(0.6888, rel=0.05)
        assert se[2] == pytest.approx(2.597, rel=0.05)


class TestEvaluate:
    def test_one_table_per_evaluation(self, airfreight, monkeypatch):
        calls = []
        build = dist.log_term_table
        monkeypatch.setattr(dist, "log_term_table",
                            lambda *a, **k: calls.append(1) or build(*a, **k))
        ev = evaluate(airfreight, np.array([2.3, 0.26]), 2.0)
        assert len(calls) == 1
        assert ev.mean.shape == ev.var.shape == (airfreight.n_obs,)
        assert ev.score.shape == (3,) and ev.info.shape == (3, 3)

    def test_views_agree(self, airfreight):
        beta, nu = np.array([2.3, 0.26]), 2.0
        ev = evaluate(airfreight, beta, nu)
        assert loglik(airfreight, beta, nu) == ev.loglik
        assert np.array_equal(score(airfreight, beta, nu), ev.score)
        assert np.array_equal(fisher_information(airfreight, beta, nu), ev.info)

    def test_moments_match_kernel(self, airfreight):
        beta, nu = np.array([2.3, 0.26]), 0.7
        ev = evaluate(airfreight, beta, nu)
        lam = np.exp(airfreight.X @ beta)
        for i in (0, 5, 9):
            p = dist.ComParams(float(lam[i]), nu)
            assert ev.mean[i] == pytest.approx(dist.mean_exact(p), rel=1e-12)
            assert ev.var[i] == pytest.approx(dist.var_exact(p), rel=1e-9)
            assert ev.log_z[i] == pytest.approx(dist.log_normalizer(p), rel=1e-12)

    def test_loglik_is_sum_of_rows(self, airfreight):
        beta, nu = np.array([2.3, 0.26]), 0.7
        ev = evaluate(airfreight, beta, nu)
        y = airfreight.y.astype(float)
        rows = y * (airfreight.X @ beta) - nu * gammaln(y + 1.0) - ev.log_z
        assert rows.sum() == pytest.approx(ev.loglik, rel=1e-13)

    @pytest.mark.parametrize("func, nu, match", [
        (evaluate, -0.5, "nu must be nonnegative, got -0.5"),
        (score, 0.0, "score requires nu > 0, got 0.0"),
        (fisher_information, 0.0, "fisher_information requires nu > 0, got 0.0"),
    ], ids=["evaluate", "score", "fisher_information"])
    def test_nu_outside_the_domain_refused(self, airfreight, func, nu, match):
        with pytest.raises(ValueError, match=match):
            func(airfreight, np.array([1.0, 0.1]), nu)

    def test_lambda_overflow_is_typed(self, airfreight):
        with pytest.raises(OverflowError):
            evaluate(airfreight, np.array([800.0, 0.0]), 2.0)

    def test_peak_memory_is_one_table(self):
        # the series table is streamed through cache-sized blocks, never
        # stored whole: at criterion 08's optimum the peak is half a table
        ds = simulate(868, [0.6, 0.5, -0.3], 0.35, seed=2024)
        fr = fit_com(ds)
        s, _, _ = dist.log_term_table(np.exp(ds.X @ fr.beta), fr.nu)
        tracemalloc.start()
        try:
            evaluate(ds, fr.beta, fr.nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * ds.n_obs * len(s) * 8


class TestFitCom:
    def test_airfreight_matches_paper(self, airfreight_fit):
        assert airfreight_fit.converged
        assert airfreight_fit.beta[0] == pytest.approx(13.8247, rel=0.01)
        assert airfreight_fit.beta[1] == pytest.approx(1.4838, rel=0.01)
        assert airfreight_fit.nu == pytest.approx(5.7818, rel=0.01)

    def test_poisson_data_recovers_nu_near_one(self):
        ds = simulate(5000, [0.5, 0.3], 1.0, seed=21)
        fr = fit_com(ds)
        assert fr.converged
        assert 0.9 < fr.nu < 1.1

    def test_binary_data_flat_nu_regime(self):
        rng = np.random.default_rng(5)
        n = 400
        x = rng.uniform(-1, 1, n)
        p = 1.0 / (1.0 + np.exp(-(0.3 + 0.8 * x)))
        y = (rng.uniform(size=n) < p).astype(int)
        ds = Dataset(y=y, X=np.column_stack([np.ones(n), x]),
                     names=("intercept", "x"))
        fr = fit_com(ds)
        # Bernoulli limit: nu runs far above any plausible count dispersion
        assert fr.nu > 10

    def test_poisson_reduction_with_fixed_nu(self, airfreight):
        fr = fit_com(airfreight, fix_nu=1.0)
        pois = fit_poisson(airfreight)
        assert np.allclose(fr.beta, pois.beta, atol=1e-6)

    @pytest.mark.parametrize("seed", [None, 51])
    def test_fixed_nu_covariance_is_the_beta_block(self, airfreight, seed):
        # nu = 1 is not estimated: the beta SEs are Poisson's, nu gets none
        ds = airfreight if seed is None else simulate(150, [0.9, 0.5], 1.0, seed=seed)
        fr = fit_com(ds, fix_nu=1.0)
        p1 = len(fr.beta)
        assert np.allclose(fr.se[:p1], fit_poisson(ds).se, rtol=1e-10, atol=0)
        assert not fr.cov[p1].any() and not fr.cov[:, p1].any()

    def test_geometric_fit_from_the_default_start(self, geometric_data):
        # the Poisson start's intercept is lowered until every lambda <= 1/2
        ds = geometric_data
        fr = fit_com(ds, fix_nu=0.0)
        assert fr.converged and fr.nu == 0.0 and fr.n_params == 2
        assert fr.beta == pytest.approx([-2.53264342, 2.25422591], rel=0, abs=1e-8)
        assert fr.loglik == pytest.approx(-38.4284607, rel=0, abs=1e-7)
        given = fit_com(ds, beta0=[np.log(0.4), 0.0], fix_nu=0.0)
        assert np.allclose(fr.beta, given.beta, rtol=0, atol=1e-8)
        # a caller's start is used as given
        with pytest.raises(dist.DivergentSeriesError, match="nu=0 requires lambda < 1"):
            fit_com(ds, beta0=fit_poisson(ds).beta, fix_nu=0.0)

    def test_fixed_nu_counts_beta_alone(self, airfreight):
        # the Poisson slice has Poisson's parameter count, so its AIC and AICc
        fr, pois = fit_com(airfreight, fix_nu=1.0), fit_poisson(airfreight)
        assert fr.n_params == pois.n_params == 2
        aic, aicc = information_criteria(fr.loglik, fr.n_params, airfreight.n_obs)
        assert (aic, aicc) == pytest.approx((50.3946, 52.1088), abs=1e-4)

    def test_likelihood_ascent(self, airfreight, airfreight_fit):
        # the fit climbs from its Poisson warm start (beta_pois, nu = 1)
        start = loglik(airfreight, fit_poisson(airfreight).beta, 1.0)
        assert airfreight_fit.loglik >= start

    def test_scaled_beta(self, airfreight_fit):
        assert np.allclose(
            airfreight_fit.scaled_beta * airfreight_fit.nu, airfreight_fit.beta
        )

    def test_covariate_shift_invariance(self, airfreight):
        base = fit_com(airfreight)
        c = 2.0
        X = airfreight.X.copy()
        X[:, 1] = X[:, 1] + c
        shifted = Dataset(y=airfreight.y, X=X, names=airfreight.names)
        moved = fit_com(shifted)
        assert moved.nu == pytest.approx(base.nu, abs=1e-4)
        assert moved.loglik == pytest.approx(base.loglik, abs=1e-6)
        assert moved.beta[1] == pytest.approx(base.beta[1], abs=1e-4)
        assert moved.beta[0] == pytest.approx(base.beta[0] - base.beta[1] * c, abs=1e-3)

    def test_cov_shape_and_diagonal(self, airfreight_fit):
        assert airfreight_fit.cov.shape == (3, 3)
        assert np.allclose(airfreight_fit.cov, airfreight_fit.cov.T)
        assert np.all(np.diag(airfreight_fit.cov) > 0)

    def test_n_params(self, airfreight_fit):
        assert airfreight_fit.n_params == 3
        assert airfreight_fit.n_obs == 10

    def test_reaches_the_reference_optima(self, airfreight_fit):
        # optima reached by a quasi-Newton (BFGS) fit, gradient tolerance 1e-8
        assert airfreight_fit.loglik == pytest.approx(-18.644891515, rel=1e-8)
        fr = fit_com(simulate(868, [0.6, 0.5, -0.3], 0.35, seed=2024))
        assert fr.converged
        assert fr.loglik == pytest.approx(-2499.815965392, rel=1e-8)

    def test_few_scoring_iterations(self, airfreight_fit):
        assert airfreight_fit.iterations <= 25

    def test_max_iter_exhausted_is_not_converged(self, airfreight, monkeypatch):
        monkeypatch.setattr(fit, "MAX_ITER", 1)
        fr = fit_com(airfreight)
        assert not fr.converged
        assert fr.iterations == 1

    def test_binary_n30_matches_logistic(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 30)
        ds = Dataset(y=rng.integers(0, 2, 30), X=np.column_stack([np.ones(30), x]),
                     names=("intercept", "x"))
        fr = fit_com(ds)
        logit = fit_logistic(ds)
        assert fr.converged and fr.boundary    # Bernoulli limit: no finite nu-hat
        assert np.allclose(fr.beta, logit.beta, atol=1e-4)
        assert np.allclose(fr.se[:-1], logit.se, atol=1e-4)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_all_zero_level_of_a_dummy_runs_off(self, seed):
        # beta_d has no finite estimate: the decrement stops the fit near
        # beta_d = -28, where the next Newton step still moves x'beta by one
        rng = np.random.default_rng(seed)
        dummy = (np.arange(30) < 3).astype(float)
        X = np.column_stack([np.ones(30), dummy, rng.uniform(-1, 1, 30)])
        y = np.where(dummy == 1, 0, rng.poisson(4.0, 30))
        fr = fit_com(Dataset(y=y, X=X, names=("intercept", "d", "x")), beta0=[1.0, 0.0, 0.0])
        assert not fr.converged and fr.beta[1] < -20
        # in a stack only that replicate is flagged
        y_ok = y.copy()
        y_ok[0] = 1
        stack = fit.fit_replicates(X, np.stack([y, y_ok]), np.array([[1.0, 0.0, 0.0]] * 2))
        assert [f.converged for f in stack] == [False, True]

    @pytest.mark.parametrize("count", [1, 3, 50])
    def test_constant_response_is_flagged_boundary(self, count):
        # no finite MLE: the likelihood rises towards a point mass at count,
        # so nu-hat is wherever the loop stopped (y = 3's information there
        # is singular, y = 50's lambda overflows beyond it)
        rng = np.random.default_rng(0)
        ds = Dataset(y=np.full(30, count),
                     X=np.column_stack([np.ones(30), rng.uniform(0, 1, 30)]),
                     names=("intercept", "x"))
        fr = fit_com(ds)
        assert fr.boundary
        # the covariance is the inverse information or, where that is
        # singular, not reported at all
        assert np.all(np.isfinite(fr.cov)) or np.all(np.isnan(fr.cov))

    def test_invert_information_refuses_negative_diagonal(self):
        cov, (ok, refused) = fit._invert_information(np.stack([np.eye(2), np.diag([1.0, -1.0])]))
        assert ok is None and np.array_equal(cov[0], np.eye(2))
        assert isinstance(refused, fit.SingularInformationError)
        assert "diagonal" in str(refused)
        assert np.isnan(cov[1]).all()


def fitted_draws(ds, n_rep, seed):
    """n_rep responses drawn from the COM-Poisson fit of ds, one per row."""
    fr = fit_com(ds)
    _, pmf = dist.pmf_table(np.exp(ds.X @ fr.beta), fr.nu)
    return dist.inverse_cdf(pmf, np.random.default_rng(seed).uniform(size=(n_rep, ds.n_obs)))


def fit_stack(X, Y, **kwargs):
    beta0, _, _, failure = poisson_newton(X, Y)
    assert failure == [None] * len(Y)
    return fit_replicates(X, Y, beta0, **kwargs)


def fit_each(X, names, Y, **kwargs):
    """Reference: fit_com on each replicate's own Dataset, one at a time."""
    out = []
    for y in Y:
        try:
            out.append(fit_com(Dataset(y=y, X=X, names=names), **kwargs))
        except (fit.FitError, dist.TruncationError) as exc:
            out.append(exc)
    return out


def assert_same_fits(got, want, rel):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w)
            continue
        assert (g.converged, g.boundary, g.iterations) == (w.converged, w.boundary, w.iterations)
        assert np.allclose(g.beta, w.beta, rtol=rel, atol=0)
        assert g.nu == pytest.approx(w.nu, rel=rel, abs=0)
        assert g.loglik == pytest.approx(w.loglik, rel=rel, abs=0)


class TestFitReplicates:
    """fit_replicates: fit_com's scoring loop run on many responses at once."""

    def test_airfreight_replicates_match_fit_com(self, airfreight):
        Y = fitted_draws(airfreight, 60, seed=11)
        got = fit_stack(airfreight.X, Y)
        assert_same_fits(got, fit_each(airfreight.X, airfreight.names, Y), rel=1e-9)
        assert all(g.converged for g in got)

    def test_criterion_08_design_matches_fit_com(self):
        ds = simulate(868, [0.6, 0.5, -0.3], 0.35, seed=2024)
        Y = fitted_draws(ds, 3, seed=12)
        assert_same_fits(fit_stack(ds.X, Y), fit_each(ds.X, ds.names, Y), rel=1e-9)

    def test_truncation_and_max_iter_touch_no_other_replicate(self, airfreight, monkeypatch):
        # With MAX_TERMS at 100 the over-dispersed responses' trials at small
        # nu truncate: the first still converges, every trial of the
        # second's last step truncates; the third truncates at its
        # starting point.  The
        # airfreight draws never need 100 terms.
        monkeypatch.setattr(dist, "MAX_TERMS", 100)
        hard = np.array([[8, 5, 16, 12, 27, 19, 20, 5, 7, 12],
                         [7, 11, 14, 11, 4, 11, 6, 2, 30, 2],
                         [150, 140, 160, 150, 170, 150, 140, 150, 160, 140]])
        easy = fitted_draws(airfreight, 20, seed=13)
        Y = np.concatenate([easy[:10], hard, easy[10:]])
        got = fit_stack(airfreight.X, Y)
        assert_same_fits(got, fit_each(airfreight.X, airfreight.names, Y),
                         rel=1e-12)
        first, second, third = got[10:13]
        assert first.converged and not second.converged
        assert isinstance(third, dist.TruncationError)
        alone = fit_stack(airfreight.X, easy)
        assert_same_fits(got[:10] + got[13:], alone, rel=1e-12)

        # a max_iter that cuts off the slow replicates leaves the others'
        # results as they are
        monkeypatch.setattr(fit, "MAX_ITER", 6)
        short = fit_stack(airfreight.X, easy)
        assert 0 < sum(not f.converged for f in short) < len(easy)
        for f, ref in zip(short, alone):
            if f.converged:
                assert_same_fits([f], [ref], rel=1e-12)
            else:
                assert f.iterations == 6 and ref.iterations > 6

    @pytest.mark.parametrize("cells", [1, 2_000])
    def test_chunking_does_not_change_results(self, airfreight, monkeypatch, cells):
        Y = fitted_draws(airfreight, 80, seed=14)
        whole = fit_stack(airfreight.X, Y)
        monkeypatch.setattr(fit, "CHUNK_CELLS", cells)
        assert_same_fits(fit_stack(airfreight.X, Y), whole, rel=1e-12)

    def test_one_table_per_chunk(self, airfreight, monkeypatch):
        # the scoring loop's evaluations share tables: a 50-replicate fit
        # builds about as many as one fit does, not 50 times as many
        calls = []
        build = dist.log_term_table
        monkeypatch.setattr(dist, "log_term_table",
                            lambda *a, **k: calls.append(1) or build(*a, **k))
        fit_stack(airfreight.X, fitted_draws(airfreight, 50, seed=15))
        assert len(calls) < 50

    def test_bootstrap_table_cells(self, airfreight, monkeypatch):
        # tables sized where their terms stop mattering: a 100-replicate
        # bootstrap builds about 0.61 M cells (1.20 M with the sd padding)
        from comreg.infer import parametric_bootstrap

        cells = []
        build = dist.log_term_table

        def counted(lam, *args):
            table = build(lam, *args)
            cells.append(np.size(lam) * len(table.s))
            return table

        monkeypatch.setattr(dist, "log_term_table", counted)
        parametric_bootstrap(airfreight, fit_com(airfreight), n_boot=100, seed=5)
        assert sum(cells) <= 750_000


class TestBernoulliLimit:
    @pytest.fixture(scope="class")
    def binary(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 30)
        return Dataset(y=rng.integers(0, 2, 30), X=np.column_stack([np.ones(30), x]),
                       names=("intercept", "x"))

    def test_flagged_boundary(self, binary):
        from comreg.infer import wald_z

        fr = fit_com(binary)
        assert fr.converged and fr.boundary
        assert wald_z(fr, 1) == pytest.approx(fr.beta[1] / fr.se[1])
        with pytest.raises(ValueError, match="boundary"):
            wald_z(fr, 2)

    def test_not_flagged_under_fixed_nu_or_with_a_count_above_one(self, binary):
        assert not fit_com(binary, fix_nu=1.0).boundary
        y = binary.y.copy()
        y[0] = 2
        assert not fit_com(Dataset(y=y, X=binary.X, names=binary.names)).boundary


class TestFittedValues:
    def test_mean_approx_equals_lambda_at_nu_one(self):
        ds = simulate(200, [0.5, 0.3], 1.0, seed=2)
        fr = fit_com(ds, fix_nu=1.0)
        lam = np.exp(ds.X @ fr.beta)
        assert np.allclose(fitted_values(ds, fr, "mean_approx"), lam, rtol=1e-10)

    def test_airfreight_median_mse(self, airfreight, airfreight_fit):
        med = fitted_values(airfreight, airfreight_fit, "median")
        mse = float(np.mean((airfreight.y - med) ** 2))
        assert mse == pytest.approx(1.90, abs=0.05)

    def test_mean_approx_refused_outside_validity(self):
        # under-dispersed data with small counts: nu > 1 and lambda well
        # below 10^nu, so the closed-form mean is refused
        ds = simulate(200, [0.3, 0.4], 3.0, seed=8)
        fr = fit_com(ds)
        lam = np.exp(ds.X @ fr.beta)
        assert fr.nu > 1 and np.any(lam <= 10**fr.nu)
        with pytest.raises(ValueError, match="median"):
            fitted_values(ds, fr, "mean_approx")

    def test_unknown_kind(self, airfreight, airfreight_fit):
        with pytest.raises(ValueError):
            fitted_values(airfreight, airfreight_fit, "mode")

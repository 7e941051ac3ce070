import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import poisson

from comreg import baselines, diag, fit, infer
from comreg.baselines import (
    BaselineError,
    NonConvergenceError,
    SeparationError,
    SingularInformationError,
    compare_models,
    fit_logistic,
    fit_negbin,
    fit_poisson,
    fit_rgpr,
    information_criteria,
    negbin_loglik,
    poisson_newton,
    rgpr_loglik,
)
from comreg.data import Dataset, simulate
from comreg.fit import fit_com, fit_replicates, fitted_values


def gamma_poisson_dataset(n, beta, r, seed):
    """Over-dispersed counts from the gamma-Poisson (negative binomial) mixture."""
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    X = np.column_stack(
        [np.ones(n)] + [rng.uniform(size=n) for _ in range(len(beta) - 1)]
    )
    mu = np.exp(X @ beta)
    lam = rng.gamma(shape=r, scale=mu / r)
    y = rng.poisson(lam)
    names = tuple(["intercept"] + [f"x{j + 1}" for j in range(len(beta) - 1)])
    return Dataset(y=y, X=X, names=names)


class TestPoisson:
    def test_airfreight_coefficients(self, airfreight):
        bf = fit_poisson(airfreight)
        assert bf.beta[0] == pytest.approx(2.3529, abs=5e-4)
        assert bf.beta[1] == pytest.approx(0.2638, abs=5e-4)
        assert bf.se[0] == pytest.approx(0.1317, rel=5e-3)
        assert bf.se[1] == pytest.approx(0.0792, rel=5e-3)

    def test_airfreight_aicc(self, airfreight):
        bf = fit_poisson(airfreight)
        _, aicc = information_criteria(bf.loglik, bf.n_params, airfreight.n_obs)
        assert aicc == pytest.approx(52.11, abs=0.05)

    def test_intercept_only_constant_counts(self):
        ds = Dataset(
            y=np.full(6, 7),
            X=np.column_stack([np.ones(6), np.arange(6.0)]),
            names=("intercept", "x"),
        )
        bf = fit_poisson(ds)
        mu = np.exp(ds.X @ bf.beta)
        assert np.allclose(mu.mean(), 7.0, rtol=1e-6)


class TestNewtonStopRule:
    """The shared Newton stop rule is relative: counts of any size converge."""

    @pytest.mark.parametrize("mean", [8_000.0, 1e5])
    def test_large_counts_converge(self, mean):
        # the former absolute rule max|g| < 1e-10 sat below the rounding
        # noise of g: it failed 10 and 37 of these 40 datasets
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 1, 30)
            ds = Dataset(y=rng.poisson(mean * np.exp(0.3 * (x - 0.5))),
                         X=np.column_stack([np.ones(30), x]), names=("intercept", "x"))
            bf = fit_poisson(ds)
            mu = np.exp(ds.X @ bf.beta)
            # the score equations hold to rounding relative to the counts
            assert np.all(np.abs(ds.X.T @ (ds.y - mu)) <= 1e-9 * ds.y.sum())
            assert np.allclose(bf.beta, [np.log(mean) - 0.15, 0.3], atol=0.05)

    def test_estimates_are_within_the_step_tolerance(self):
        # the decrement can fire while the pending Newton step is still
        # 1e-5 of the estimate: newton takes that last step
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = [30, 200, 1000][seed % 3]
            X = np.column_stack([np.ones(n), rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)])
            counts = rng.poisson(np.exp(X @ [np.log([1.0, 100.0, 8000.0][seed % 3]), 0.3, -0.2]))
            binary = (rng.uniform(size=n) < expit(X @ [0.2, 1.5, -0.6])).astype(int)
            for fit, y, mean in ((fit_poisson, counts, np.exp), (fit_logistic, binary, expit)):
                bf = fit(Dataset(y=y, X=X, names=("intercept", "x1", "x2")))
                mu = mean(X @ bf.beta)
                step = bf.cov @ (X.T @ (y - mu))
                tol = baselines.NEWTON_RTOL * max(1.0, np.abs(bf.beta).max())
                assert np.abs(step).max() <= tol

    def test_airfreight_unchanged(self, airfreight):
        # values of the absolute rule, which stopped at the same optimum
        bf = fit_poisson(airfreight)
        assert np.allclose(bf.beta, [2.352949465046535, 0.26384222598202256],
                           rtol=1e-10, atol=0)
        assert np.allclose(bf.se, [0.1317411844353418, 0.07923548149318269],
                           rtol=1e-10, atol=0)
        assert bf.loglik == pytest.approx(-23.19727789124308, rel=1e-10)

    def test_stacked_rows_match_single_fits(self, airfreight):
        rng = np.random.default_rng(4)
        Y = rng.poisson(np.exp(airfreight.X @ [2.35, 0.26]), size=(25, airfreight.n_obs))
        Y[3] = 0    # no finite estimate: the log-mean start runs off
        beta, _, loglik, _, failure = poisson_newton(airfreight.X, Y)
        for b, y in enumerate(Y):
            ds = Dataset(y=y, X=airfreight.X, names=airfreight.names)
            if b == 3:
                assert isinstance(failure[b], NonConvergenceError)
                with pytest.raises(NonConvergenceError):
                    fit_poisson(ds)
                continue
            assert failure[b] is None
            bf = fit_poisson(ds)
            assert np.array_equal(beta[b], bf.beta) and loglik[b] == bf.loglik

    def test_all_zero_response_runs_off(self):
        # few rows and a small loglik: the decrement fires at beta0 ~ -29,
        # where the next Newton step still moves eta by one
        ds = Dataset(y=np.zeros(5, dtype=int), X=np.ones((5, 1)), names=("intercept",))
        with pytest.raises(NonConvergenceError, match="ran off"):
            fit_poisson(ds)

    def test_all_zero_level_of_a_dummy_runs_off(self):
        rng = np.random.default_rng(1)
        dummy = (np.arange(30) < 3).astype(float)
        X = np.column_stack([np.ones(30), dummy, rng.uniform(-1, 1, 30)])
        y = np.where(dummy == 1, 0, rng.poisson(4.0, 30))
        with pytest.raises(NonConvergenceError, match="ran off"):
            fit_poisson(Dataset(y=y, X=X, names=("intercept", "d", "x")))


class TestNegbin:
    def test_airfreight_boundary_equals_poisson(self, airfreight):
        # the Poisson limit reports the Poisson fit itself, bit for bit
        nb = fit_negbin(airfreight)
        pois = fit_poisson(airfreight)
        assert nb.boundary
        assert np.array_equal(nb.beta, pois.beta)
        assert np.array_equal(nb.cov[:-1, :-1], pois.cov)

    def test_overdispersed_recovers_r(self):
        ds = gamma_poisson_dataset(5000, [1.0, 0.5], r=4.0, seed=3)
        nb = fit_negbin(ds)
        assert not nb.boundary
        assert abs(nb.extra - 4.0) / 4.0 < 0.15

    def test_large_r_limit_matches_poisson_loglik(self, airfreight):
        pois = fit_poisson(airfreight)
        mu = np.exp(airfreight.X @ pois.beta)
        ll = negbin_loglik(airfreight.y.astype(float), mu, 1e8)
        assert ll == pytest.approx(pois.loglik, abs=1e-4)

    def test_loglik_at_huge_r_is_the_poisson_loglik(self, airfreight):
        # log NB(y; mu, r) = log Poisson(y; mu) + ((y - mu)^2 - y) / (2r) + O(r^-2);
        # here that term is 2.6e-12 of the loglik, and no term may cancel
        y = airfreight.y.astype(float)
        mu = np.exp(airfreight.X @ fit_poisson(airfreight).beta)
        r = 1e12
        limit = np.sum(poisson.logpmf(airfreight.y, mu) + ((y - mu) ** 2 - y) / (2.0 * r))
        assert negbin_loglik(y, mu, r) == pytest.approx(float(limit), rel=1e-13)

    @pytest.mark.parametrize("r", [0.3, 4.0, 1e3, 1e8])
    def test_loglik_matches_mpmath(self, r):
        mpmath = pytest.importorskip("mpmath")
        y = np.array([0.0, 1.0, 3.0, 7.0, 20.0, 61.0])
        mu = np.array([0.5, 2.0, 3.5, 6.0, 18.0, 40.0])
        with mpmath.workdps(40):
            rr = mpmath.mpf(r)
            exact = sum(mpmath.loggamma(rr + a) - mpmath.loggamma(rr) - mpmath.loggamma(a + 1)
                        + rr * mpmath.log(rr / (rr + m)) + a * mpmath.log(m / (rr + m))
                        for a, m in zip(y.tolist(), map(mpmath.mpf, mu.tolist())))
        assert negbin_loglik(y, mu, r) == pytest.approx(float(exact), rel=1e-13)

    def test_counts_past_the_cap_are_refused(self):
        y = np.array([0.0, baselines.NEGBIN_MAX_COUNT + 1.0])
        with pytest.raises(BaselineError, match="counts of at most"):
            negbin_loglik(y, np.ones(2), 2.0)


class TestLogistic:
    def test_balanced_coin_intercept_zero(self):
        y = np.array([0, 1] * 10)
        X = np.column_stack([np.ones(20), np.linspace(-1, 1, 20)])
        # symmetric design: intercept should be ~0
        ds = Dataset(y=y, X=X, names=("intercept", "x"))
        bf = fit_logistic(ds)
        assert abs(bf.beta[0]) < 0.5

    def test_matches_com_poisson_on_binary(self):
        rng = np.random.default_rng(17)
        n = 1000
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)])
        p = expit(X @ np.array([0.2, 0.9, -0.6]))
        y = (rng.uniform(size=n) < p).astype(int)
        ds = Dataset(y=y, X=X, names=("intercept", "x1", "x2"))
        logi = fit_logistic(ds)
        com = fit_com(ds)
        assert np.max(np.abs(logi.beta - com.beta)) < 1e-4
        assert np.max(np.abs(logi.se - com.se[:3])) < 1e-4

    def test_separation_error(self):
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        X = np.column_stack([np.ones(8), np.arange(8.0)])
        ds = Dataset(y=y, X=X, names=("intercept", "x"))
        with pytest.raises(SeparationError):
            fit_logistic(ds)

    def test_all_zero_level_of_a_dummy_is_separation(self):
        # quasi-complete separation: the other rows keep |eta| small
        rng = np.random.default_rng(1)
        dummy = (np.arange(30) < 3).astype(float)
        X = np.column_stack([np.ones(30), dummy, rng.uniform(-1, 1, 30)])
        y = np.where(dummy == 1, 0, rng.integers(0, 2, 30))
        with pytest.raises(SeparationError, match="ran off"):
            fit_logistic(Dataset(y=y, X=X, names=("intercept", "d", "x")))

    def test_other_failures_say_why_the_loop_stopped(self, monkeypatch):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(40), rng.uniform(-1, 1, 40)])
        ds = Dataset(y=rng.integers(0, 2, 40), X=X, names=("intercept", "x"))
        monkeypatch.setattr(baselines, "NEWTON_MAX_ITER", 1)
        with pytest.raises(SeparationError, match=r"\(no convergence in 1 iterations\)"):
            fit_logistic(ds)

    def test_rejects_non_binary(self, airfreight):
        with pytest.raises(BaselineError, match="0/1"):
            fit_logistic(airfreight)


class TestRgpr:
    def test_alpha_zero_reduces_to_poisson(self, airfreight):
        pois = fit_poisson(airfreight)
        mu = np.exp(airfreight.X @ pois.beta)
        assert rgpr_loglik(airfreight.y.astype(float), mu, 0.0) == pytest.approx(
            pois.loglik, rel=1e-12
        )

    def test_airfreight_does_not_converge(self, airfreight):
        with pytest.raises(NonConvergenceError) as err:
            fit_rgpr(airfreight)
        assert "alpha" in err.value.diagnostics
        assert err.value.diagnostics["alpha_feasibility_bound"] == pytest.approx(
            -1.0 / 22.0
        )

    def test_overdispersed_alpha_significant(self):
        ds = gamma_poisson_dataset(5000, [1.0, 0.5], r=4.0, seed=11)
        bf = fit_rgpr(ds)
        assert bf.extra > 0
        assert bf.extra / bf.se[-1] > 2


def criterion_08(seed):
    """A dataset of criterion 08's design: n = 868, beta = (0.6, 0.5, -0.3), nu = 0.35."""
    return simulate(868, [0.6, 0.5, -0.3], 0.35, seed=seed)


def refuse(_ds):
    raise AssertionError("fit_poisson called")


class TestBaselineStart:
    """Negative binomial and RGPR start at one_step_start's beta, with no Poisson fit."""

    CASES = {"negbin": (fit_negbin, "_negbin_derivatives", np.log(baselines.NEGBIN_R0)),
             "rgpr": (fit_rgpr, "_rgpr_derivatives", 0.0)}

    @pytest.mark.parametrize("seed", [2024, 2025, 2026])
    @pytest.mark.parametrize("model", sorted(CASES))
    def test_no_poisson_fit_off_the_limit(self, monkeypatch, model, seed):
        fitter, _, _ = self.CASES[model]
        monkeypatch.setattr(baselines, "fit_poisson", refuse)
        result = fitter(criterion_08(seed))
        assert result.converged and not result.boundary

    @pytest.mark.parametrize("seed", [2024, 2025, 2026])
    @pytest.mark.parametrize("model", sorted(CASES))
    def test_same_steps_and_estimates_as_from_the_poisson_fit(self, model, seed):
        # the earlier start: Newton from the converged Poisson fit's beta
        fitter, derivatives, extra0 = self.CASES[model]
        ds = criterion_08(seed)
        upper = np.append(np.full(ds.n_cols, np.inf), np.log(baselines.NEGBIN_BOUNDARY_R))
        z, _, iterations, stop = baselines._one_response(
            getattr(baselines, derivatives), ds.X, ds.y.astype(float),
            np.append(fit_poisson(ds).beta, extra0), -np.inf,
            upper if model == "negbin" else np.inf)
        assert stop == "converged"
        result = fitter(ds)
        assert result.iterations == iterations
        extra = np.log(result.extra) if model == "negbin" else result.extra
        np.testing.assert_allclose(np.append(result.beta, extra), z, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("fitter", [fit_negbin, fit_rgpr, fit_com])
    @pytest.mark.parametrize("case", ["all zero", "all-zero dummy level", "lone one"])
    def test_run_off_responses_refused(self, fitter, case):
        # TestPoisson's two run-off responses, and a lone 1 among zeros at
        # the largest x, where the slope runs off to +infinity
        rng = np.random.default_rng(1)
        if case == "all zero":
            ds = Dataset(y=np.zeros(5, dtype=int), X=np.ones((5, 1)), names=("intercept",))
        elif case == "all-zero dummy level":
            dummy = (np.arange(30) < 3).astype(float)
            X = np.column_stack([np.ones(30), dummy, rng.uniform(-1, 1, 30)])
            y = np.where(dummy == 1, 0, rng.poisson(4.0, 30))
            ds = Dataset(y=y, X=X, names=("intercept", "d", "x"))
        else:
            X = np.column_stack([np.ones(10), np.arange(10.0)])
            ds = Dataset(y=np.eye(10, dtype=int)[9], X=X, names=("intercept", "x"))
        with pytest.raises(NonConvergenceError):
            fitter(ds)


def test_one_analysis_fits_poisson_twice(monkeypatch):
    # the n868 workload's analysis: the dispersion test's null and the
    # comparison's Poisson row; no fit, fit_com's included, starts from one
    ds = criterion_08(2024)
    calls = []
    poisson = baselines.fit_poisson

    def counted(d):
        calls.append(1)
        return poisson(d)

    monkeypatch.setattr(baselines, "fit_poisson", counted)
    monkeypatch.setattr(infer, "fit_poisson", counted)
    fr = fit_com(ds)
    infer.dispersion_test(ds)
    diag.diagnostics_report(ds, fr)
    for fitter in (baselines.fit_poisson, fit_negbin, fit_rgpr):
        fitter(ds)
    assert len(calls) == 2


def central_differences(loglik, z, h=2e-4):
    """Score and information of loglik at z by central differences, with
    one Richardson extrapolation (error O(h^4))."""
    def at(h):
        e = h * np.eye(len(z))
        score = np.array([(loglik(z + d) - loglik(z - d)) / (2 * h) for d in e])
        info = np.array([[-(loglik(z + a + b) - loglik(z + a - b) - loglik(z - a + b)
                            + loglik(z - a - b)) / (4 * h * h) for b in e] for a in e])
        return score, info

    (s1, i1), (s2, i2) = at(h), at(h / 2)
    return (4 * s2 - s1) / 3, (4 * i2 - i1) / 3


class TestNewtonDerivatives:
    """The analytic score and information of the NB and RGPR Newton fits."""

    @pytest.fixture(params=["airfreight", "gamma_poisson"])
    def ds(self, request, airfreight):
        if request.param == "airfreight":
            return airfreight
        return gamma_poisson_dataset(300, [1.0, 0.5], r=4.0, seed=3)

    def check(self, derivatives, loglik, ds, z):
        y = ds.y.astype(float)
        ll, score, info = derivatives(ds.X, y, z)
        num_score, num_info = central_differences(lambda z: loglik(y, z), z)
        assert ll == loglik(y, z)
        # the differences carry about eps * |loglik| / h^2 of rounding
        assert np.allclose(score, num_score, rtol=1e-5, atol=1e-5 * np.abs(score).max())
        assert np.allclose(info, num_info, rtol=1e-5, atol=1e-5 * np.abs(info).max())

    @pytest.mark.parametrize("log_r", [-1.0, 1.5, 4.0])
    def test_negbin(self, ds, log_r):
        beta = fit_poisson(ds).beta + 0.05
        self.check(baselines._negbin_derivatives,
                   lambda y, z: negbin_loglik(y, np.exp(ds.X @ z[:-1]), np.exp(z[-1])),
                   ds, np.append(beta, log_r))

    @pytest.mark.parametrize("alpha", [-0.02, 0.0, 0.3])
    def test_rgpr(self, ds, alpha):
        beta = fit_poisson(ds).beta - 0.05
        self.check(baselines._rgpr_derivatives,
                   lambda y, z: rgpr_loglik(y, np.exp(ds.X @ z[:-1]), z[-1]),
                   ds, np.append(beta, alpha))


def quadratic(K):
    """One-coordinate toy model for newton: loglik -K z^2 / 2, exact score and information."""
    return lambda rows, z: (-0.5 * K * z[:, 0] ** 2, -K * z, np.full((len(z), 1, 1), K))


def usable_above_one(rows, z):
    """Finite only where z >= 1, with a score pointing below 1."""
    return np.where(z[:, 0] >= 1.0, -z[:, 0], -np.inf), -np.ones_like(z), np.ones((len(z), 1, 1))


def no_curvature(rows, z):
    return -z[:, 0], -np.ones_like(z), np.zeros((len(z), 1, 1))


# each way a newton replicate stops: (stop reason, model, start, end point,
# iterations counted)
NEWTON_STOPS = {
    "unusable start point": ("unusable start point", usable_above_one, 0.5, 0.5, 0),
    "information not usable": ("information not usable", no_curvature, 1.0, 1.0, 0),
    "no usable trial point": ("no usable trial point", usable_above_one, 1.0, 1.0, 0),
    # K huge: a step of 1e-9 (within NEWTON_RTOL) with a decrement of 100
    "converged by step size": ("converged", quadratic(1e20), 1e-9, 0.0, 1),
    # K tiny: the decrement fires at once, and the pending step to 0 is taken
    "converged by decrement": ("converged", quadratic(1e-30), 1.0, 0.0, 0),
}


class TestNewtonLoop:
    def test_never_accepts_a_lower_loglik(self):
        # a model whose "score" points downhill: every trial lowers the
        # loglik, so none may be accepted, however far the step is halved
        z0 = np.array([1.0, -2.0])

        def downhill_score(rows, z):
            return -0.5 * np.einsum("ij,ij->i", z, z), z, np.tile(np.eye(2), (len(z), 1, 1))

        (z,), ((ll,), _, _), _, _ = baselines.newton(
            downhill_score, z0[None], downhill_score(None, z0[None]), -np.inf, np.inf, 500)
        assert np.array_equal(z, z0) and ll == -2.5

    @pytest.mark.parametrize("case", sorted(NEWTON_STOPS))
    def test_stop_reason(self, case):
        reason, model, z0, z_end, steps = NEWTON_STOPS[case]
        start = np.array([[z0]])
        (z,), _, (iterations,), (stop,) = baselines.newton(
            model, start, model(None, start), -np.inf, np.inf, 500)
        assert stop == reason
        assert abs(z[0] - z_end) <= 1e-15 and iterations == steps

    def test_stop_reasons_in_one_stack(self):
        # every case as one replicate of a stack: each stops as it does alone
        cases = sorted(NEWTON_STOPS)
        models = [NEWTON_STOPS[c][1] for c in cases]
        start = np.array([[NEWTON_STOPS[c][2]] for c in cases])

        def model(rows, z):
            rows = np.arange(len(cases)) if rows is None else rows
            out = [models[r](None, z[i:i + 1]) for i, r in enumerate(rows)]
            return tuple(np.concatenate(a) for a in zip(*out))

        z, _, iterations, stop = baselines.newton(model, start, model(None, start),
                                                  -np.inf, np.inf, 500)
        for b, alone in enumerate(models):
            (z_b,), _, (iterations_b,), (stop_b,) = baselines.newton(
                alone, start[b:b + 1], alone(None, start[b:b + 1]), -np.inf, np.inf, 500)
            assert (z[b, 0], iterations[b], stop[b]) == (z_b[0], iterations_b, stop_b)

    def test_singular_information_touches_no_other_replicate(self):
        # k = 2: one replicate with zero information leaves the others'
        # Newton steps as they are alone, bit for bit
        A = np.array([[2.0, 0.7], [0.7, 1.3]])
        start = np.array([[1.3, -0.7], [0.4, 0.2], [2.1, 0.9]])

        def model_without(singular):
            def model(rows, z):
                rows = np.arange(len(z)) if rows is None else rows
                info = np.tile(A, (len(z), 1, 1))
                info[rows == singular] = 0.0
                return -0.5 * np.einsum("ij,jk,ik->i", z, A, z), -z @ A, info
            return model

        stacked = model_without(1)
        z, _, iterations, stop = baselines.newton(stacked, start, stacked(None, start),
                                                  -np.inf, np.inf, 500)
        assert stop[1] == "information not usable"
        alone = model_without(None)
        for b in (0, 2):
            (z_b,), _, (iterations_b,), (stop_b,) = baselines.newton(
                alone, start[b:b + 1], alone(None, start[b:b + 1]), -np.inf, np.inf, 500)
            assert np.array_equal(z[b], z_b) and (iterations[b], stop[b]) == (iterations_b, stop_b)

    def test_ran_off_marks_only_the_singular_row(self):
        X = np.column_stack([np.ones(5), np.arange(1.0, 6.0)])
        H = np.stack([X.T @ X, np.zeros((2, 2))])
        g = np.array([[1e-9, 1e-9], [0.0, 0.0]])
        stop = baselines.ran_off(X, np.array(["converged"] * 2, dtype=object), H, g)
        assert list(stop) == ["converged", "ran off towards an estimate at infinity"]
        # alone too, on a design with a covariate value of 0
        X[0, 1] = 0.0
        stop = baselines.ran_off(X, np.array(["converged"], dtype=object), H[1:], g[1:])
        assert list(stop) == ["ran off towards an estimate at infinity"]

    def test_stop_after_max_iter(self):
        model = quadratic(1.0)
        start = np.array([[1.0], [1e-20]])
        # the first replicate needs a step, the second has converged at once
        _, _, iterations, stop = baselines.newton(model, start, model(None, start),
                                                  -np.inf, np.inf, 0)
        assert list(stop) == ["no convergence in 0 iterations", "converged"]
        assert list(iterations) == [0, 0]

    @pytest.mark.parametrize("fitter, name", [(fit_negbin, "negative binomial fit"),
                                              (fit_rgpr, "RGPR fit")])
    def test_baseline_stops_after_max_iter(self, monkeypatch, fitter, name):
        # no Poisson fit starts the loop, so one step is the whole fit
        ds = gamma_poisson_dataset(200, [1.0, 0.5], r=4.0, seed=3)
        monkeypatch.setattr(baselines, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NonConvergenceError,
                           match=rf"^{name} did not converge \(no convergence in 1 iterations\)$"):
            fitter(ds)

    @pytest.mark.parametrize("derivatives", ["_negbin_derivatives", "_rgpr_derivatives"])
    def test_loglik_rises_monotonically(self, airfreight, derivatives):
        # airfreight takes both fits to a boundary, through infeasible or
        # overshooting trials: it ends at the highest loglik it evaluated
        y = airfreight.y.astype(float)
        seen = []
        evaluate = getattr(baselines, derivatives)

        def recording(X, y, z):
            out = evaluate(X, y, z)
            seen.append(out[0])
            return out

        upper = np.array([np.inf, np.inf, np.log(baselines.NEGBIN_BOUNDARY_R)])
        z0 = np.append(fit_poisson(airfreight).beta, 0.0)
        _, (ll, _, _), _, _ = baselines._one_response(recording, airfreight.X, y, z0, -np.inf,
                                                      upper)
        assert len(seen) > 10 and ll == max(seen)

    def test_every_fitter_runs_through_it(self, airfreight, monkeypatch):
        calls = []
        loop = baselines.newton
        monkeypatch.setattr(baselines, "newton", lambda *a: calls.append(1) or loop(*a))
        binary = Dataset(y=airfreight.y % 2, X=airfreight.X, names=airfreight.names)
        fits = [lambda: fit_com(airfreight),
                lambda: fit_replicates(airfreight.X, airfreight.y[None],
                                       fit_poisson(airfreight).beta[None]),
                lambda: fit_poisson(airfreight),
                lambda: fit_logistic(binary),
                lambda: fit_negbin(airfreight),
                lambda: fit_rgpr(gamma_poisson_dataset(300, [1.0, 0.5], r=4.0, seed=3))]
        for run in fits:
            before = len(calls)
            run()
            assert len(calls) > before


class TestFitResult:
    FITTERS = {"com": (fit_com, "nu"), "poisson": (fit_poisson, None),
               "negbin": (fit_negbin, "r"), "rgpr": (fit_rgpr, "alpha"),
               "logistic": (fit_logistic, None)}

    @pytest.mark.parametrize("model", list(FITTERS))
    def test_every_fitter_returns_it(self, model, monkeypatch):
        # one result type, with newton's own iteration count (the fitter's
        # newton runs last: negbin, rgpr and COM-Poisson start from a Poisson fit)
        ds = simulate(40, [1.0, 0.8], 0.4, seed=7)
        if model == "logistic":
            ds = Dataset(y=ds.y % 2, X=ds.X, names=ds.names)
        runs = []
        loop = baselines.newton
        monkeypatch.setattr(baselines, "newton", lambda *a: runs.append(loop(*a)) or runs[-1])
        fitter, extra_name = self.FITTERS[model]
        fr = fitter(ds)
        assert type(fr) is fit.FitResult is baselines.FitResult
        assert fr.extra_name == extra_name
        assert fr.n_params == ds.n_cols + (extra_name is not None) == len(fr.se)
        assert fr.iterations == runs[-1][2][0] > 0

    def test_nu_is_com_poisson_only(self, airfreight):
        nb = fit_negbin(airfreight)
        assert nb.extra_name == "r" and nb.extra > 0
        with pytest.raises(AttributeError, match="no nu"):
            nb.nu
        # so a baseline fit passed where a COM-Poisson fit belongs still fails
        with pytest.raises(AttributeError):
            fitted_values(airfreight, nb)
        with pytest.raises(AttributeError):
            diag.diagnostics_report(airfreight, fit_poisson(airfreight))

    @pytest.mark.parametrize("fitter", [fit_poisson, fit_negbin, fit_rgpr, fit_com])
    def test_collinear_design_refused(self, collinear, fitter):
        # the baselines returned covariances with negative diagonals (NaN SEs
        # with a RuntimeWarning, and an RGPR alpha SE of 0); every fitter now
        # refuses the design as COM-Poisson did
        with pytest.raises(SingularInformationError, match="not invertible"):
            fitter(collinear)

    def test_one_error_root(self):
        assert issubclass(BaselineError, fit.FitError)
        assert issubclass(SingularInformationError, fit.FitError)
        assert fit.SingularInformationError is SingularInformationError


class TestCompareModels:
    def test_airfreight_table(self, airfreight):
        com = fit_com(airfreight)
        pois = fit_poisson(airfreight)
        fits = {"com-poisson": com, "poisson": pois}
        fitted = {
            "com-poisson": fitted_values(airfreight, com, "median"),
            "poisson": np.exp(airfreight.X @ pois.beta),
        }
        try:
            fits["rgpr"] = fit_rgpr(airfreight)
        except NonConvergenceError as exc:
            fits["rgpr"] = exc
        comp = compare_models(airfreight, fits, fitted)
        com_row = comp.row("com-poisson")
        pois_row = comp.row("poisson")
        assert com_row.aicc == pytest.approx(47.29, abs=0.05)
        assert com_row.mse == pytest.approx(1.90, abs=0.05)
        assert pois_row.aicc == pytest.approx(52.11, abs=0.05)
        assert pois_row.mse == pytest.approx(2.21, abs=0.05)
        assert comp.row("rgpr").status.startswith("failed")

    def test_identical_fits_identical_rows(self, airfreight):
        pois = fit_poisson(airfreight)
        yhat = np.exp(airfreight.X @ pois.beta)
        comp = compare_models(
            airfreight, {"a": pois, "b": pois}, {"a": yhat, "b": yhat}
        )
        a, b = comp.row("a"), comp.row("b")
        assert (a.loglik, a.aic, a.aicc, a.mse) == (b.loglik, b.aic, b.aicc, b.mse)

    def test_aicc_formula_exact(self, airfreight):
        for k in (2, 3, 4):
            aic, aicc = information_criteria(-20.0, k, airfreight.n_obs)
            assert aicc - aic == pytest.approx(
                2 * k * (k + 1) / (airfreight.n_obs - k - 1)
            )
            assert aicc >= aic

    def test_unknown_model_row(self, airfreight):
        comp = compare_models(airfreight, {"poisson": fit_poisson(airfreight)}, {})
        with pytest.raises(KeyError, match="nope"):
            comp.row("nope")

    def test_aicc_singularity(self):
        aic, aicc = information_criteria(-20.0, 9, 10)
        assert np.isinf(aicc)
        assert np.isinf(information_criteria(-20.0, 3, 3)[1])    # n < k+1 as well


class TestNesting:
    def test_com_dominates_poisson(self, airfreight):
        com = fit_com(airfreight)
        pois = fit_poisson(airfreight)
        assert com.loglik >= pois.loglik - 1e-6

    def test_com_dominates_poisson_simulated(self):
        ds = simulate(300, [0.8, -0.2], 0.6, seed=23)
        assert fit_com(ds).loglik >= fit_poisson(ds).loglik - 1e-6

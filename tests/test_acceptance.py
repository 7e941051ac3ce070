"""Acceptance gate: one test per release criterion, one printed verdict each.

Run with plain pytest; each test prints `criterion NN <label>: PASS/FAIL`
through the capture-disabled channel so the verdict is always visible.
"""

import time

import numpy as np
import pytest
from scipy.stats import chi2

from comreg.baselines import (
    NonConvergenceError,
    compare_models,
    fit_logistic,
    fit_negbin,
    fit_poisson,
    fit_rgpr,
)
from comreg.data import Dataset, linear_predictor, simulate
from comreg.diag import hat_diagonal  # noqa: F401  (import check: diag is part of the gate)
from comreg.dist import (
    ComParams,
    consecutive_ratio,
    expect_fn,
    log_normalizer,
    log_pmf,
    mean_exact,
    pmf_table,
    var_exact,
)
from comreg.fit import fit_com, fitted_values
from comreg.infer import dispersion_test, parametric_bootstrap


def _verdict(capsys, number, label, checks):
    ok = all(bool(v) for _, v in checks)
    with capsys.disabled():
        print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    failed = [desc for desc, v in checks if not v]
    assert not failed, f"criterion {number} failed: {failed}"


@pytest.fixture(scope="module")
def airfreight_com(airfreight):
    return fit_com(airfreight)


def test_criterion_01_poisson_fit(airfreight, capsys):
    t0 = time.perf_counter()
    pois = fit_poisson(airfreight)
    elapsed = time.perf_counter() - t0
    target_beta = np.array([2.3529, 0.2638])
    target_se = np.array([0.1317, 0.0792])
    checks = [
        ("beta within 5e-4", np.allclose(pois.beta, target_beta, atol=5e-4)),
        ("SE within 5e-3 rel", np.allclose(pois.se, target_se, rtol=5e-3)),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    _verdict(capsys, 1, "airfreight-poisson-fit", checks)


def test_criterion_02_com_fit(airfreight, capsys):
    t0 = time.perf_counter()
    fr = fit_com(airfreight)
    elapsed = time.perf_counter() - t0
    target_beta = np.array([13.8247, 1.4838])
    target_se = np.array([6.2369, 0.6888, 2.597])
    checks = [
        ("beta within 1% rel", np.allclose(fr.beta, target_beta, rtol=0.01)),
        ("nu within 1% rel", abs(fr.nu - 5.7818) <= 0.01 * 5.7818),
        ("SEs within 5% rel", np.allclose(fr.se, target_se, rtol=0.05)),
        ("runtime < 5 s", elapsed < 5.0),
    ]
    _verdict(capsys, 2, "airfreight-com-fit", checks)


def test_criterion_03_model_comparison(airfreight, airfreight_com, capsys):
    pois = fit_poisson(airfreight)
    comp = compare_models(
        airfreight,
        {"com-poisson": airfreight_com, "poisson": pois},
        {
            "com-poisson": fitted_values(airfreight, airfreight_com, kind="median"),
            "poisson": np.exp(linear_predictor(airfreight, pois.beta)),
        },
    )
    com_row = comp.row("com-poisson")
    pois_row = comp.row("poisson")
    checks = [
        ("COM AICc 47.29 +/- 0.05", abs(com_row.aicc - 47.29) <= 0.05),
        ("COM median MSE 1.90 +/- 0.05", abs(com_row.mse - 1.90) <= 0.05),
        ("Poisson AICc 52.11 +/- 0.05", abs(pois_row.aicc - 52.11) <= 0.05),
        ("Poisson MSE 2.21 +/- 0.05", abs(pois_row.mse - 2.21) <= 0.05),
    ]
    _verdict(capsys, 3, "airfreight-model-comparison", checks)


def test_criterion_04_rgpr_and_negbin(airfreight, capsys):
    rgpr_nonconvergence = False
    try:
        fit_rgpr(airfreight)
    except NonConvergenceError:
        rgpr_nonconvergence = True
    nb = fit_negbin(airfreight)
    pois = fit_poisson(airfreight)
    checks = [
        ("RGPR reports non-convergence", rgpr_nonconvergence),
        ("NB boundary-flagged", nb.boundary),
        ("NB beta == Poisson beta within 1e-3",
         np.allclose(nb.beta, pois.beta, atol=1e-3)),
    ]
    _verdict(capsys, 4, "airfreight-rgpr-negbin", checks)


def test_criterion_05_dispersion_test(airfreight, capsys):
    res = dispersion_test(airfreight)
    checks = [
        ("C within 0.5 of 9.1", abs(res.statistic - 9.1) <= 0.5),
        ("p matches chi2_1 tail",
         abs(res.p_value - chi2.sf(res.statistic, 1)) < 1e-12),
        ("p < 0.05", res.p_value < 0.05),
    ]
    _verdict(capsys, 5, "airfreight-dispersion-test", checks)


@pytest.mark.slow
def test_criterion_06_bootstrap(airfreight, airfreight_com, capsys):
    t0 = time.perf_counter()
    boot = parametric_bootstrap(
        airfreight, airfreight_com, n_boot=1000, ci_level=0.90, seed=2026
    )
    elapsed = time.perf_counter() - t0
    lo, hi = boot.intervals["nu"]
    slope = boot.replicates[:, 1]
    checks = [
        ("nu CI lower in (2.8, 5.5)", 2.8 < lo < 5.5),
        ("nu CI upper in (15, 29)", 15 < hi < 29),
        ("P(slope* <= 0) == 0", float(np.mean(slope <= 0.0)) == 0.0),
        ("runtime < 3 min", elapsed < 180.0),
    ]
    _verdict(capsys, 6, "airfreight-bootstrap", checks)


def test_criterion_07_logistic_limit(capsys):
    rng = np.random.default_rng(77)
    n = 1000
    X = np.column_stack(
        [np.ones(n), rng.normal(size=n), rng.uniform(-1, 1, size=n)]
    )
    beta_true = np.array([-0.3, 0.9, -0.6])
    p = 1.0 / (1.0 + np.exp(-(X @ beta_true)))
    y = (rng.uniform(size=n) < p).astype(int)
    ds = Dataset(y=y, X=X, names=("intercept", "x1", "x2"))

    logit = fit_logistic(ds)
    com = fit_com(ds)
    med = fitted_values(ds, com, kind="median")
    cutoff = (1.0 / (1.0 + np.exp(-linear_predictor(ds, logit.beta))) > 0.5)
    checks = [
        ("coefficients agree within 1e-4",
         np.allclose(com.beta, logit.beta, atol=1e-4)),
        ("SEs agree within 1e-4",
         np.allclose(com.se[:-1], logit.se, atol=1e-4)),
        ("median fits == logistic 0.5-cutoff",
         np.array_equal(med.astype(int), cutoff.astype(int))),
    ]
    _verdict(capsys, 7, "binary-logistic-limit", checks)


def test_criterion_08_overdispersed_scale(capsys):
    t0 = time.perf_counter()
    ds = simulate(868, [0.6, 0.5, -0.3], 0.35, seed=2024)
    fr = fit_com(ds)
    res = dispersion_test(ds, fr=fr)
    elapsed = time.perf_counter() - t0
    checks = [
        ("fit converged", fr.converged),
        ("nu-hat in (0.30, 0.41)", 0.30 < fr.nu < 0.41),
        ("dispersion p ~ 0", res.p_value < 1e-8),
        ("runtime < 3 min", elapsed < 180.0),
    ]
    _verdict(capsys, 8, "overdispersed-n868", checks)


def test_criterion_09_distribution_kernel(capsys):
    t0 = time.perf_counter()
    checks = []
    grid = [
        (lam, nu)
        for lam in (0.3, 1.0, 2.0, 8.0)
        for nu in (0.25, 0.5, 1.0, 2.0, 5.0)
    ]
    for lam, nu in grid:
        params = ComParams(lam, nu)
        _, pmf = pmf_table(np.array([lam]), nu)
        checks.append(
            (f"normalization lam={lam} nu={nu}",
             abs(pmf.sum() - 1.0) < 1e-10)
        )
        # consecutive-ratio identity P(y-1)/P(y) = y^nu / lambda
        ratio_ok = all(
            abs(consecutive_ratio(y, params) - y**nu / lam) < 1e-8 * (y**nu / lam)
            for y in range(1, 30)
        )
        checks.append((f"ratio identity lam={lam} nu={nu}", ratio_ok))
        # E(Y^nu) = lambda
        e_pow = expect_fn(params, lambda s: s.astype(float) ** nu)
        checks.append(
            (f"E(Y^nu)=lambda lam={lam} nu={nu}", abs(e_pow - lam) < 1e-8 * lam)
        )
        # finite-difference identities: dlogZ/dloglam = E(Y), and the
        # second log-lambda derivative equals var(Y)
        h = 1e-5
        z_plus = log_normalizer(ComParams(lam * np.exp(h), nu))
        z_minus = log_normalizer(ComParams(lam * np.exp(-h), nu))
        z_mid = log_normalizer(params)
        mean_fd = (z_plus - z_minus) / (2 * h)
        var_fd = (z_plus - 2 * z_mid + z_minus) / h**2
        checks.append(
            (f"mean identity lam={lam} nu={nu}",
             abs(mean_fd - mean_exact(params)) < 1e-5 * max(1.0, mean_exact(params)))
        )
        checks.append(
            (f"variance identity lam={lam} nu={nu}",
             abs(var_fd - var_exact(params)) < 1e-3 * max(1.0, var_exact(params)))
        )
        # moment recursion: E(Y) = lambda * E[(Y+1)^(1-nu)]
        shift = expect_fn(params, lambda s: (s + 1.0) ** (1.0 - nu))
        checks.append(
            (f"moment recursion lam={lam} nu={nu}",
             abs(lam * shift - mean_exact(params)) < 1e-8 * max(1.0, mean_exact(params)))
        )
    # special-case collapse
    pois_ok = all(
        abs(np.exp(log_pmf(y, ComParams(2.0, 1.0)))
            - np.exp(-2.0) * 2.0**y / np.prod(np.arange(1, y + 1), initial=1.0)) < 1e-12
        for y in range(15)
    )
    checks.append(("Poisson collapse nu=1", pois_ok))
    geom_ok = all(
        abs(np.exp(log_pmf(y, ComParams(0.4, 0.0))) - 0.6 * 0.4**y) < 1e-12
        for y in range(15)
    )
    checks.append(("geometric collapse nu=0", geom_ok))
    bern = ComParams(0.7, 200.0)
    checks.append(
        ("Bernoulli limit large nu",
         abs(np.exp(log_pmf(1, bern)) / np.exp(log_pmf(0, bern)) - 0.7) < 1e-12)
    )
    elapsed = time.perf_counter() - t0
    checks.append(("runtime < 30 s", elapsed < 30.0))
    _verdict(capsys, 9, "distribution-kernel-invariants", checks)


@pytest.mark.slow
def test_criterion_10_null_calibration(capsys):
    n_sims = 500
    rejections = 0
    for rep in range(n_sims):
        ds = simulate(200, [0.8, 0.4], 1.0, seed=40_000 + rep)
        if dispersion_test(ds).p_value < 0.05:
            rejections += 1
    rate = rejections / n_sims
    checks = [("rejection rate in (0.02, 0.09)", 0.02 < rate < 0.09)]
    _verdict(capsys, 10, "null-calibration", checks)

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.special import expit

import comreg
from comreg import fit, infer
from comreg.baselines import fit_logistic
from comreg.cli import EXIT_IO, EXIT_OK, EXIT_STAT, MODELS, main
from comreg.data import Dataset, load_csv, simulate, write_csv


@pytest.fixture(scope="module")
def schema():
    text = resources.files("comreg").joinpath("schemas/report-v1.json").read_text()
    return json.loads(text)


def strict_json(text):
    """json.loads refusing NaN and Infinity, which are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_xy(path, x, y):
    write_csv(Dataset(y=y, X=np.column_stack([np.ones(len(x)), x]),
                      names=("intercept", "x")), path)
    return str(path)


@pytest.fixture
def singular_path(tmp_path, monkeypatch):
    # Ordinary counts, with each information at the optimum made exactly
    # singular (its nu row and column zeroed) at the fits' covariance step.
    # No natural input is singular wherever the optimizer happens to stop,
    # and what these tests check is how the CLI reports the error.
    invert = fit._invert_information

    def singular(info):
        info = info.copy()
        info[:, -1, :] = info[:, :, -1] = 0.0
        return invert(info)

    monkeypatch.setattr(fit, "_invert_information", singular)
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 30)
    return write_xy(tmp_path / "d.csv", x, rng.poisson(np.exp(1 + x)))


@pytest.fixture(scope="module")
def huge_counts_path(tmp_path_factory):
    # counts up to ~13 000 overrun the series truncation cap
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 30)
    return write_xy(tmp_path_factory.mktemp("huge") / "d.csv", x,
                    rng.poisson(np.exp(4 + 5.5 * x)))


class TestFit:
    def test_com_json_report(self, capsys, airfreight_path, schema):
        code, out = run_cli(
            capsys, "fit", "--data", str(airfreight_path),
            "--response", "broken", "--model", "com", "--format", "json",
        )
        assert code == EXIT_OK
        report = strict_json(out)
        jsonschema.validate(report, schema)
        assert report["model"] == "com-poisson"
        by_name = {c["name"]: c for c in report["coefficients"]}
        assert by_name["transfers"]["estimate"] == pytest.approx(1.48, abs=0.02)
        assert report["nu"]["estimate"] == pytest.approx(5.78, abs=0.06)
        assert report["nu"]["boundary"] is False
        assert report["aicc"] == pytest.approx(47.29, abs=0.05)

    def test_poisson_json_report(self, capsys, airfreight_path, schema):
        code, out = run_cli(
            capsys, "fit", "--data", str(airfreight_path),
            "--response", "broken", "--model", "poisson", "--format", "json",
        )
        assert code == EXIT_OK
        report = strict_json(out)
        jsonschema.validate(report, schema)
        by_name = {c["name"]: c for c in report["coefficients"]}
        assert by_name["intercept"]["estimate"] == pytest.approx(2.3529, abs=1e-3)
        assert by_name["transfers"]["se"] == pytest.approx(0.0792, abs=1e-3)

    def test_text_format_table(self, capsys, airfreight_path):
        code, out = run_cli(
            capsys, "fit", "--data", str(airfreight_path),
            "--response", "broken", "--model", "com", "--format", "text",
        )
        assert code == EXIT_OK
        assert "model: com-poisson" in out
        assert "nu" in out
        assert "(" in out  # estimate (SE) cells
        assert "  loglik -18.6449  AICc 47.2898\n" in out

    def test_binary_response_nu_at_boundary(self, capsys, tmp_path, schema):
        # 0/1 counts: nu has no finite estimate (the Bernoulli limit)
        rng = np.random.default_rng(1)
        path = write_xy(tmp_path / "binary.csv", rng.uniform(0, 1, 30), rng.integers(0, 2, 30))
        code, out = run_cli(capsys, "fit", "--data", path, "--response", "y",
                            "--format", "json")
        assert code == EXIT_OK
        report = strict_json(out)
        jsonschema.validate(report, schema)
        assert report["nu"]["boundary"] and report["nu"]["se"] is None
        code, out = run_cli(capsys, "fit", "--data", path, "--response", "y",
                            "--format", "text")
        assert code == EXIT_OK
        assert "[boundary]" in out

    def test_rgpr_nonconvergence_exit_one(self, capsys, airfreight_path):
        code, out = run_cli(
            capsys, "fit", "--data", str(airfreight_path),
            "--response", "broken", "--model", "rgpr", "--format", "json",
        )
        assert code == 1
        report = strict_json(out)
        assert report["errors"]
        assert "converge" in report["errors"][0]["message"].lower()

    def test_com_nonconvergence_exit_one(self, capsys, airfreight_path, monkeypatch):
        # the airfreight fit needs 4 steps
        monkeypatch.setattr(fit, "MAX_ITER", 1)
        code, out = run_cli(capsys, "fit", "--data", str(airfreight_path),
                            "--response", "broken", "--format", "json")
        assert code == EXIT_STAT
        assert strict_json(out)["errors"][0]["message"] == "COM-Poisson fit did not converge"

    def test_log_transform(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(1, 4, 40)
        path = write_xy(tmp_path / "d.csv", x, rng.poisson(2 * x))
        code, out = run_cli(capsys, "fit", "--data", path, "--response", "y",
                            "--model", "poisson", "--transform", "x=log", "--format", "json")
        assert code == EXIT_OK
        coef = strict_json(out)["coefficients"]
        assert [c["name"] for c in coef] == ["intercept", "log_x"]
        assert coef[1]["estimate"] == pytest.approx(1.0, abs=0.3)

    def test_malformed_transform_exit_two(self, capsys, airfreight_path):
        code = main(["fit", "--data", str(airfreight_path), "--response", "broken",
                     "--transform", "transfers", "--format", "text"])
        assert code == EXIT_IO
        assert "bad --transform 'transfers'" in capsys.readouterr().err

    @pytest.mark.parametrize("tag", ["log", "bogus"])
    def test_transform_of_the_response_exit_two(self, capsys, airfreight_path, tag):
        code = main(["fit", "--data", str(airfreight_path), "--response", "broken",
                     "--transform", f"broken={tag}", "--format", "text"])
        assert code == EXIT_IO
        assert "transform given for the response column 'broken'" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        code, out = run_cli(
            capsys, "fit", "--data", "/nonexistent/z.csv",
            "--response", "y", "--format", "json",
        )
        assert code == EXIT_IO
        report = strict_json(out)
        assert report["errors"] and "message" in report["errors"][0]

    def test_bad_response_column_exit_two(self, capsys, airfreight_path):
        code, out = run_cli(
            capsys, "fit", "--data", str(airfreight_path),
            "--response", "nope", "--format", "json",
        )
        assert code == EXIT_IO
        assert "nope" in strict_json(out)["errors"][0]["message"]

    def test_duplicate_column_exit_two(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("y,x,y\n" + "".join(f"{i % 4},{i},{i % 3}\n" for i in range(10)))
        code, out = run_cli(capsys, "fit", "--data", str(path), "--response", "y",
                            "--model", "poisson", "--format", "json")
        assert code == EXIT_IO
        assert "'y' appears more than once" in strict_json(out)["errors"][0]["message"]

    def test_output_file(self, capsys, airfreight_path, tmp_path):
        dest = tmp_path / "report.json"
        code, _ = run_cli(
            capsys, "fit", "--data", str(airfreight_path),
            "--response", "broken", "--format", "json", "--output", str(dest),
        )
        assert code == EXIT_OK
        assert strict_json(dest.read_text())["model"] == "com-poisson"


class TestDispersionTest:
    def test_airfreight(self, capsys, airfreight_path):
        code, out = run_cli(
            capsys, "test", "--data", str(airfreight_path),
            "--response", "broken", "--format", "json",
        )
        assert code == EXIT_OK
        report = strict_json(out)
        assert report["statistic"] == pytest.approx(9.1, abs=0.5)
        assert report["p_value"] < 0.01

    @pytest.mark.parametrize("n_boot", ["-3", "0"])
    def test_calibration_without_replicates_exit_two(self, capsys, airfreight_path, n_boot):
        code, out = run_cli(capsys, "test", "--data", str(airfreight_path),
                            "--response", "broken", "--bootstrap-calibrate", "--seed", "1",
                            "--n-boot", n_boot, "--format", "json")
        assert code == EXIT_IO
        assert strict_json(out)["errors"][0]["message"] == f"n_boot must be >= 1, got {n_boot}"

    def test_unconverged_alternative_exit_one(self, capsys, airfreight_path, monkeypatch):
        monkeypatch.setattr(fit, "MAX_ITER", 2)    # the airfreight fit needs 4 steps
        code, out = run_cli(capsys, "test", "--data", str(airfreight_path),
                            "--response", "broken", "--format", "json")
        assert code == EXIT_STAT
        assert strict_json(out)["errors"][0]["message"] == "COM-Poisson fit did not converge"

    def test_calibration_drops_failed_replicates(self, capsys, tmp_path, sparse_dummy, schema):
        path = tmp_path / "sparse.csv"
        write_csv(sparse_dummy, path)
        argv = ["test", "--data", str(path), "--response", "y", "--bootstrap-calibrate",
                "--n-boot", "200", "--seed", "1"]
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        report = strict_json(out)
        jsonschema.validate(report, schema)
        assert report["bootstrap_failures"] == {"NonConvergenceError": 26}
        code, out = run_cli(capsys, *argv, "--format", "text")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == (
            f"  bootstrap-calibrated p = {report['bootstrap_p_value']:.6g} "
            "(26 of 200 replicates dropped: NonConvergenceError 26)")

    def test_calibrated_text_on_airfreight(self, capsys, airfreight_path, schema):
        argv = ["test", "--data", str(airfreight_path), "--response", "broken",
                "--bootstrap-calibrate", "--n-boot", "100", "--seed", "5"]
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        report = strict_json(out)
        jsonschema.validate(report, schema)
        assert report["bootstrap_failures"] == {}
        code, out = run_cli(capsys, *argv, "--format", "text")
        assert code == EXIT_OK
        assert out.splitlines()[1:] == [
            f"  C = {report['statistic']:.4f}  df = 1  p = {report['p_value']:.6g}",
            f"  loglik: null {report['loglik_null']:.4f}, "
            f"alternative {report['loglik_alt']:.4f}",
            f"  bootstrap-calibrated p = {report['bootstrap_p_value']:.6g}"]

    def test_boundary_warning_in_text(self, capsys, tmp_path, schema):
        # a constant response has no finite nu-hat
        path = write_xy(tmp_path / "const.csv", np.linspace(0, 1, 20), np.full(20, 4))
        argv = ["test", "--data", path, "--response", "y"]
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        report = strict_json(out)
        jsonschema.validate(report, schema)
        assert report["boundary_warning"] is True
        assert report["bootstrap_failures"] is None
        code, out = run_cli(capsys, *argv, "--format", "text")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == (
            "  boundary: nu-hat at a bound or not identified; the chi^2_1 p is unreliable")


class TestBootstrap:
    @pytest.mark.slow
    def test_deterministic_bytes(self, capsys, airfreight_path, schema):
        argv = [
            "bootstrap", "--data", str(airfreight_path), "--response", "broken",
            "--n-boot", "120", "--seed", "7", "--format", "json",
        ]
        code1, out1 = run_cli(capsys, *argv)
        code2, out2 = run_cli(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        report = strict_json(out1)
        lo, hi = report["intervals"]["nu"]
        assert lo < hi
        jsonschema.validate(report, schema)
        assert sum(report["failures"].values()) == report["n_failed"]

    def test_every_replicate_failed_exit_one(self, capsys, airfreight_path, monkeypatch):
        # no replicate converges in 2 steps; the airfreight fit itself needs
        # 4, so the cap is lowered only around the bootstrap
        bootstrap = infer.parametric_bootstrap

        def capped(*args, **kwargs):
            monkeypatch.setattr(fit, "MAX_ITER", 2)
            return bootstrap(*args, **kwargs)

        monkeypatch.setattr(infer, "parametric_bootstrap", capped)
        code, out = run_cli(capsys, "bootstrap", "--data", str(airfreight_path),
                            "--response", "broken", "--n-boot", "100", "--seed", "3",
                            "--format", "json")
        assert code == EXIT_STAT
        assert "every bootstrap replicate failed" in strict_json(out)["errors"][0]["message"]


class TestDiagnose:
    def test_flags_observation_seven(self, capsys, airfreight_path):
        code, out = run_cli(
            capsys, "diagnose", "--data", str(airfreight_path),
            "--response", "broken", "--format", "json",
        )
        assert code == EXIT_OK
        report = strict_json(out)
        diag = report["diagnostics"]
        # observation numbers are 1-based in the report
        assert 7 in diag["flagged_residual"]
        assert len(diag["leverage"]) == 10

    def test_text_lists_observations(self, capsys, airfreight_path):
        code, out = run_cli(
            capsys, "diagnose", "--data", str(airfreight_path),
            "--response", "broken", "--format", "text",
        )
        assert code == EXIT_OK
        assert "flagged residuals" in out

    def test_leverage_one_exit_one(self, capsys, tmp_path, airfreight_path):
        # an indicator of data row 3 fits that row exactly, so its residuals
        # are undefined: a statistical failure, not a usage error
        rows = airfreight_path.read_text().splitlines()
        lines = [rows[0] + ",row3"] + [r + (",1" if i == 2 else ",0")
                                        for i, r in enumerate(rows[1:])]
        path = tmp_path / "indicator.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "diagnose", "--data", str(path),
                            "--response", "broken", "--format", "json")
        assert code == EXIT_STAT
        assert strict_json(out)["errors"][0]["message"] == (
            "leverage 1 at data row 3: residuals undefined")


class TestCompare:
    def test_failed_model_is_a_status_row(self, capsys, airfreight_path):
        code, out = run_cli(
            capsys, "compare", "--data", str(airfreight_path),
            "--response", "broken", "--models", "com,poisson,negbin,rgpr",
            "--format", "json",
        )
        assert code == EXIT_OK
        rows = {r["model"]: r for r in strict_json(out)["rows"]}
        assert rows["com-poisson"]["status"] == "ok"
        assert rows["poisson"]["status"] == "ok"
        assert rows["rgpr"]["status"].startswith("failed")
        assert rows["com-poisson"]["aicc"] == pytest.approx(47.29, abs=0.05)
        assert rows["com-poisson"]["mse"] == pytest.approx(1.90, abs=0.05)

    def test_logistic_row_on_binary_response(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 60)
        y = (rng.uniform(size=60) < expit(0.2 + 1.5 * x)).astype(int)
        path = write_xy(tmp_path / "binary.csv", x, y)
        code, out = run_cli(capsys, "compare", "--data", path, "--response", "y",
                            "--models", "logistic,poisson", "--format", "json")
        assert code == EXIT_OK
        rows = {r["model"]: r for r in strict_json(out)["rows"]}
        assert rows["logistic"]["status"] == "ok"
        # the MSE of the fitted probabilities
        ds = load_csv(path, response="y")
        prob = expit(ds.X @ fit_logistic(ds).beta)
        assert rows["logistic"]["mse"] == pytest.approx(np.mean((y - prob) ** 2), rel=1e-12)

    def test_mean_fitted_values_past_the_float_range_fall_back_to_medians(self, capsys, tmp_path):
        # a constant response gives nu-hat past 308, where 10^nu overflows: the
        # com row is fitted with medians (all 5, so an MSE of 0), not a traceback
        path = write_xy(tmp_path / "constant.csv", np.arange(1.0, 13.0), np.full(12, 5))
        code, out = run_cli(capsys, "compare", "--data", path, "--response", "y",
                            "--models", "com,poisson", "--fitted", "mean", "--format", "json")
        assert code == EXIT_OK
        rows = {r["model"]: r for r in strict_json(out)["rows"]}
        assert rows["com-poisson"]["status"] == "ok"
        assert rows["com-poisson"]["mse"] == 0.0

    def test_unknown_model_exit_two(self, capsys, airfreight_path):
        code = main(["compare", "--data", str(airfreight_path), "--response", "broken",
                     "--models", "com,gamma", "--format", "text"])
        assert code == EXIT_IO
        assert "unknown model 'gamma'" in capsys.readouterr().err


class TestReportKeys:
    # the schema leaves these reports open, so a field added to a result
    # object would enter them unseen
    def keys(self, capsys, airfreight_path, *argv):
        code, out = run_cli(capsys, *argv, "--data", str(airfreight_path),
                            "--response", "broken", "--format", "json")
        assert code == EXIT_OK
        return strict_json(out)

    def test_dispersion_test(self, capsys, airfreight_path):
        assert set(self.keys(capsys, airfreight_path, "test")) == {
            "bootstrap_failures", "bootstrap_p_value", "boundary_warning", "df", "errors",
            "loglik_alt", "loglik_null", "model", "p_value", "statistic"}

    def test_bootstrap(self, capsys, airfreight_path):
        report = self.keys(capsys, airfreight_path, "bootstrap", "--n-boot", "100",
                           "--seed", "1")
        assert set(report) == {"ci_level", "errors", "failures", "intervals", "model",
                               "n_boot", "n_failed", "seed", "unreliable"}

    def test_compare_rows(self, capsys, airfreight_path):
        rows = self.keys(capsys, airfreight_path, "compare")["rows"]
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {"aic", "aicc", "k", "loglik", "model", "mse", "note",
                                "status"}


class TestFitErrors:
    @pytest.mark.parametrize("sub", ["fit", "test", "diagnose", "bootstrap"])
    def test_truncation_exit_one(self, capsys, huge_counts_path, sub):
        extra = ["--seed", "1", "--n-boot", "100"] if sub == "bootstrap" else []
        code, out = run_cli(capsys, sub, "--data", huge_counts_path,
                            "--response", "y", "--format", "json", *extra)
        assert code == EXIT_STAT
        assert "not converged" in strict_json(out)["errors"][0]["message"]

    def test_run_off_exit_one(self, capsys, tmp_path):
        # a lone 1 among zeros at the largest x: the slope runs off to +infinity
        path = write_xy(tmp_path / "lone.csv", np.arange(10.0), np.eye(10, dtype=int)[9])
        code, out = run_cli(capsys, "fit", "--data", path, "--response", "y", "--format", "json")
        assert code == EXIT_STAT
        assert strict_json(out)["errors"][0]["message"] == (
            "Newton iterations did not converge (ran off towards an estimate at infinity)")

    def test_singular_information_exit_one(self, capsys, singular_path):
        code, out = run_cli(capsys, "diagnose", "--data", singular_path,
                            "--response", "y", "--format", "json")
        assert code == EXIT_STAT
        assert "not invertible" in strict_json(out)["errors"][0]["message"]

    @pytest.mark.parametrize("which, reason", [
        ("singular_path", "not invertible"),
        ("huge_counts_path", "not converged"),
    ])
    def test_compare_reports_failed_row(self, capsys, request, which, reason):
        code, out = run_cli(capsys, "compare", "--data", request.getfixturevalue(which),
                            "--response", "y", "--format", "json")
        assert code == EXIT_OK
        rows = {r["model"]: r for r in strict_json(out)["rows"]}
        assert rows["com-poisson"]["status"].startswith("failed")
        assert reason in rows["com-poisson"]["status"]
        assert rows["poisson"]["status"] == "ok"


class TestOneCovarianceRule:
    def test_collinear_design_exit_one(self, capsys, tmp_path, collinear):
        # the Poisson fit reported NaN SEs and exited 0
        path = tmp_path / "collinear.csv"
        write_csv(collinear, path)
        code, out = run_cli(capsys, "fit", "--data", str(path), "--response", "y",
                            "--model", "poisson", "--format", "json")
        assert code == EXIT_STAT
        assert "not invertible" in strict_json(out)["errors"][0]["message"]

    def test_aicc_note_below_the_singularity(self, capsys, tmp_path):
        # n = 3 rows and k = 3 COM-Poisson parameters: the note said n = k+1
        path = write_xy(tmp_path / "three.csv", np.array([0.0, 0.5, 1.0]), np.array([1, 3, 2]))
        code, out = run_cli(capsys, "compare", "--data", path, "--response", "y",
                            "--models", "com", "--format", "json")
        assert code == EXIT_OK
        (row,) = strict_json(out)["rows"]
        assert (row["k"], row["aicc"]) == (3, "inf")
        assert row["note"] == "AICc infinite: n <= k+1"


class TestStrictJson:
    @pytest.mark.parametrize("argv", [
        *(["fit", "--model", name] for name in MODELS),
        ["test"],
        ["test", "--bootstrap-calibrate", "--n-boot", "50", "--seed", "1"],
        ["bootstrap", "--n-boot", "100", "--seed", "3"],
        ["diagnose"],
        ["diagnose", "--deviance", "approx"],
        ["compare"],
        ["compare", "--fitted", "mean"],
        ["compare", "--models", ",".join(MODELS)],
    ], ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
    def test_airfreight_reports(self, capsys, airfreight_path, argv):
        code, out = run_cli(capsys, *argv, "--data", str(airfreight_path),
                            "--response", "broken", "--format", "json")
        assert code in (EXIT_OK, EXIT_STAT)
        strict_json(out)

    def test_undefined_residual_is_null(self, capsys, tmp_path):
        # nu-hat at NU_CEILING leaves 15 rows with fitted variance 0, whose
        # Pearson residuals were written as bare NaN tokens
        path = tmp_path / "flat.csv"
        write_csv(simulate(19, [1.672058780906997, 0.9840561651743411], 7.882771378759133,
                           seed=181), path)
        code, out = run_cli(capsys, "diagnose", "--data", str(path), "--response", "y",
                            "--format", "json")
        assert code == EXIT_OK
        body = strict_json(out)["diagnostics"]
        undefined = [i for i, r in enumerate(body["pearson"]) if r is None]
        assert len(undefined) == 15
        assert all("Pearson residual undefined" in body["notes"][str(i + 1)] for i in undefined)
        assert all(isinstance(r, float) for r in body["deviance"])


class TestSimulate:
    def test_roundtrip_fit(self, capsys, tmp_path):
        dest = tmp_path / "sim.csv"
        code, _ = run_cli(
            capsys, "simulate", "--n", "300", "--beta", "0.8,0.5",
            "--nu", "1.0", "--seed", "11", "--output", str(dest),
        )
        assert code == EXIT_OK
        code, out = run_cli(
            capsys, "fit", "--data", str(dest), "--response", "y",
            "--model", "com", "--format", "json",
        )
        assert code == EXIT_OK
        report = strict_json(out)
        assert report["nu"]["estimate"] == pytest.approx(1.0, abs=0.35)

    def test_deterministic_csv(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for dest in (a, b):
            run_cli(
                capsys, "simulate", "--n", "50", "--beta", "0.5,0.3",
                "--nu", "2.0", "--seed", "4", "--output", str(dest),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_overflowing_lambda_exit_two(self, capsys, tmp_path):
        code = main(["simulate", "--n", "10", "--beta", "1000,0.5", "--nu", "1.0",
                     "--seed", "1", "--output", str(tmp_path / "o.csv")])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            "error: exp(x_i' beta) must be a positive finite double, but x_i' beta "
            "runs from 1000.01 to 1000.48\n")

    def test_reversed_x_range_exit_two(self, capsys, tmp_path):
        dest = tmp_path / "r.csv"
        code = main(["simulate", "--n", "20", "--beta", "0.5,0.3", "--nu", "1.0",
                     "--x-min", "2", "--x-max", "1", "--seed", "1", "--output", str(dest)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            "error: x_min must be finite and at most x_max, got x_min=2, x_max=1\n")
        assert not dest.exists()

    def test_geometric_regime_guard(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "simulate", "--n", "20", "--beta", "0.5",
            "--nu", "0.0", "--seed", "1", "--output", str(tmp_path / "g.csv"),
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize("argv", [
        ["--n", "10", "--beta", "0.5,abc"],
        ["--n", "-1", "--beta", "0.5,0.3"],
        ["--n", "1", "--beta", "0.5,0.3"],     # too few rows to fit
        ["--n", "20", "--beta", "0.5", "--nu", "-1"],
    ])
    def test_usage_errors_exit_two(self, capsys, tmp_path, argv):
        dest = tmp_path / "bad.csv"
        argv = ["simulate", "--nu", "1.0", "--seed", "1", "--output", str(dest), *argv]
        assert main(argv) == EXIT_IO
        assert "error:" in capsys.readouterr().err
        assert not dest.exists()

    def test_truncation_exit_one(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "simulate", "--n", "5", "--beta", "12",
            "--nu", "1.0", "--seed", "1", "--output", str(tmp_path / "t.csv"),
        )
        assert code == EXIT_STAT


def run_fresh(code):
    """stdout of code run in a fresh interpreter that imports this comreg."""
    src = str(Path(comreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout


def test_import_defers_scipy_stats_and_optimize(airfreight_path, tmp_path):
    # a fresh interpreter loads no scipy module, on import or through a fit
    code = ("import sys, comreg.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert run_fresh(code).strip() == "[]"
    argv = ["fit", "--data", str(airfreight_path), "--response", "broken",
            "--output", str(tmp_path / "fit.json")]
    code = ("import runpy, sys\n"
            f"sys.argv = ['comreg', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('comreg.cli', run_name='__main__')\n"
            "except SystemExit as exit:\n"
            "    print(exit.code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    assert run_fresh(code).strip() == "0 []"
    sources = Path(comreg.__file__).parent.rglob("*.py")
    assert not [p.name for p in sources if "scipy" in p.read_text()]


def test_compare_never_imports_scipy_optimize(airfreight_path, tmp_path):
    # every model of the default compare list fits without any scipy module
    argv = ["compare", "--data", str(airfreight_path), "--response", "broken",
            "--output", str(tmp_path / "compare.json")]
    code = (f"import sys, comreg.cli; code = comreg.cli.main({argv!r}); "
            "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert run_fresh(code).strip() == "0 []"

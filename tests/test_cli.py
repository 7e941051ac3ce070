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
from comreg.cli import EXIT_IO, EXIT_OK, EXIT_STAT, main
from comreg.data import Dataset, load_csv, write_csv


@pytest.fixture(scope="module")
def schema():
    text = resources.files("comreg").joinpath("schemas/report-v1.json").read_text()
    return json.loads(text)


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
    # Ordinary counts, with the information at the optimum made exactly
    # singular (its nu row and column zeroed) at the fit's covariance step.
    # No natural input is singular wherever the optimizer happens to stop,
    # and what these tests check is how the CLI reports the error.
    invert = fit._invert_information

    def singular(info):
        info = info.copy()
        info[-1, :] = info[:, -1] = 0.0
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
        report = json.loads(out)
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
        report = json.loads(out)
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
        report = json.loads(out)
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
        report = json.loads(out)
        assert report["errors"]
        assert "converge" in report["errors"][0]["message"].lower()

    def test_com_nonconvergence_exit_one(self, capsys, airfreight_path, monkeypatch):
        # the airfreight fit needs 7 steps
        monkeypatch.setattr(fit, "MAX_ITER", 1)
        code, out = run_cli(capsys, "fit", "--data", str(airfreight_path),
                            "--response", "broken", "--format", "json")
        assert code == EXIT_STAT
        assert json.loads(out)["errors"][0]["message"] == "COM-Poisson fit did not converge"

    def test_log_transform(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(1, 4, 40)
        path = write_xy(tmp_path / "d.csv", x, rng.poisson(2 * x))
        code, out = run_cli(capsys, "fit", "--data", path, "--response", "y",
                            "--model", "poisson", "--transform", "x=log", "--format", "json")
        assert code == EXIT_OK
        coef = json.loads(out)["coefficients"]
        assert [c["name"] for c in coef] == ["intercept", "log_x"]
        assert coef[1]["estimate"] == pytest.approx(1.0, abs=0.3)

    def test_malformed_transform_exit_two(self, capsys, airfreight_path):
        code = main(["fit", "--data", str(airfreight_path), "--response", "broken",
                     "--transform", "transfers", "--format", "text"])
        assert code == EXIT_IO
        assert "bad --transform 'transfers'" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        code, out = run_cli(
            capsys, "fit", "--data", "/nonexistent/z.csv",
            "--response", "y", "--format", "json",
        )
        assert code == EXIT_IO
        report = json.loads(out)
        assert report["errors"] and "message" in report["errors"][0]

    def test_bad_response_column_exit_two(self, capsys, airfreight_path):
        code, out = run_cli(
            capsys, "fit", "--data", str(airfreight_path),
            "--response", "nope", "--format", "json",
        )
        assert code == EXIT_IO
        assert "nope" in json.loads(out)["errors"][0]["message"]

    def test_output_file(self, capsys, airfreight_path, tmp_path):
        dest = tmp_path / "report.json"
        code, _ = run_cli(
            capsys, "fit", "--data", str(airfreight_path),
            "--response", "broken", "--format", "json", "--output", str(dest),
        )
        assert code == EXIT_OK
        assert json.loads(dest.read_text())["model"] == "com-poisson"


class TestDispersionTest:
    def test_airfreight(self, capsys, airfreight_path):
        code, out = run_cli(
            capsys, "test", "--data", str(airfreight_path),
            "--response", "broken", "--format", "json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["statistic"] == pytest.approx(9.1, abs=0.5)
        assert report["p_value"] < 0.01

    @pytest.mark.parametrize("n_boot", ["-3", "0"])
    def test_calibration_without_replicates_exit_two(self, capsys, airfreight_path, n_boot):
        code, out = run_cli(capsys, "test", "--data", str(airfreight_path),
                            "--response", "broken", "--bootstrap-calibrate", "--seed", "1",
                            "--n-boot", n_boot, "--format", "json")
        assert code == EXIT_IO
        assert json.loads(out)["errors"][0]["message"] == f"n_boot must be >= 1, got {n_boot}"


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
        report = json.loads(out1)
        lo, hi = report["intervals"]["nu"]
        assert lo < hi
        jsonschema.validate(report, schema)
        assert sum(report["failures"].values()) == report["n_failed"]

    def test_every_replicate_failed_exit_one(self, capsys, airfreight_path, monkeypatch):
        # no replicate converges in 5 steps; the airfreight fit itself needs
        # 7, so the cap is lowered only around the bootstrap
        bootstrap = infer.parametric_bootstrap

        def capped(*args, **kwargs):
            monkeypatch.setattr(fit, "MAX_ITER", 5)
            return bootstrap(*args, **kwargs)

        monkeypatch.setattr(infer, "parametric_bootstrap", capped)
        code, out = run_cli(capsys, "bootstrap", "--data", str(airfreight_path),
                            "--response", "broken", "--n-boot", "100", "--seed", "3",
                            "--format", "json")
        assert code == EXIT_STAT
        assert "every bootstrap replicate failed" in json.loads(out)["errors"][0]["message"]


class TestDiagnose:
    def test_flags_observation_seven(self, capsys, airfreight_path):
        code, out = run_cli(
            capsys, "diagnose", "--data", str(airfreight_path),
            "--response", "broken", "--format", "json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
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
        assert json.loads(out)["errors"][0]["message"] == (
            "leverage 1 at data row 3: residuals undefined")


class TestCompare:
    def test_failed_model_is_a_status_row(self, capsys, airfreight_path):
        code, out = run_cli(
            capsys, "compare", "--data", str(airfreight_path),
            "--response", "broken", "--models", "com,poisson,negbin,rgpr",
            "--format", "json",
        )
        assert code == EXIT_OK
        rows = {r["model"]: r for r in json.loads(out)["rows"]}
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
        rows = {r["model"]: r for r in json.loads(out)["rows"]}
        assert rows["logistic"]["status"] == "ok"
        # the MSE of the fitted probabilities
        ds = load_csv(path, response="y")
        prob = expit(ds.X @ fit_logistic(ds).beta)
        assert rows["logistic"]["mse"] == pytest.approx(np.mean((y - prob) ** 2), rel=1e-12)

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
        return json.loads(out)

    def test_dispersion_test(self, capsys, airfreight_path):
        assert set(self.keys(capsys, airfreight_path, "test")) == {
            "bootstrap_p_value", "boundary_warning", "df", "errors", "loglik_alt",
            "loglik_null", "model", "p_value", "statistic"}

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
        assert "not converged" in json.loads(out)["errors"][0]["message"]

    def test_singular_information_exit_one(self, capsys, singular_path):
        code, out = run_cli(capsys, "diagnose", "--data", singular_path,
                            "--response", "y", "--format", "json")
        assert code == EXIT_STAT
        assert "not invertible" in json.loads(out)["errors"][0]["message"]

    @pytest.mark.parametrize("which, reason", [
        ("singular_path", "not invertible"),
        ("huge_counts_path", "not converged"),
    ])
    def test_compare_reports_failed_row(self, capsys, request, which, reason):
        code, out = run_cli(capsys, "compare", "--data", request.getfixturevalue(which),
                            "--response", "y", "--format", "json")
        assert code == EXIT_OK
        rows = {r["model"]: r for r in json.loads(out)["rows"]}
        assert rows["com-poisson"]["status"].startswith("failed")
        assert reason in rows["com-poisson"]["status"]
        assert rows["poisson"]["status"] == "ok"


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
        report = json.loads(out)
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
            "error: all lambda values must be positive finite reals\n")

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


def test_import_defers_scipy_stats_and_optimize():
    # a fresh interpreter: none of these is loaded until a subcommand needs it
    code = ("import sys, comreg.cli; print([m for m in "
            "('scipy.stats', 'scipy.optimize', 'scipy.linalg') if m in sys.modules])")
    assert run_fresh(code).strip() == "[]"


def test_compare_never_imports_scipy_optimize(airfreight_path, tmp_path):
    # every model of the default compare list fits without scipy.optimize
    argv = ["compare", "--data", str(airfreight_path), "--response", "broken",
            "--output", str(tmp_path / "compare.json")]
    code = (f"import sys, comreg.cli; code = comreg.cli.main({argv!r}); "
            "print(code, 'scipy.optimize' in sys.modules)")
    assert run_fresh(code).strip() == "0 False"
    sources = Path(comreg.__file__).parent.rglob("*.py")
    assert not [p.name for p in sources if "scipy.optimize" in p.read_text()]

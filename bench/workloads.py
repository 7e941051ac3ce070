"""The benchmark workloads: seeded inputs, timed calls into comreg, output checks.

Every workload calls comreg through module attributes (``fit.fit_com``,
not a name imported once), so a traced run sees the wrapped functions.
Each operation returns its units of work, the wall time of each stage it
timed, its output checks and a digest of its statistical outputs, which
a traced run compares with the same operation run untraced.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

AIRFREIGHT_CSV = "data/airfreight.csv"
SCHEMA = "src/comreg/schemas/report-v1.json"

# Airfreight targets and tolerances of acceptance criteria 02, 03 and 05.
AIR_BETA = np.array([13.8247, 1.4838])
AIR_NU = 5.7818
AIR_C = 9.1
AIR_AICC = {"com-poisson": 47.29, "poisson": 52.11}

# The design of criterion 08: n = 868, beta = (0.6, 0.5, -0.3), nu = 0.35.
N868_BETA = np.array([0.6, 0.5, -0.3])
N868_NU = 0.35
N868_POOL = 8

N_BOOT = 100          # the smallest bootstrap parametric_bootstrap accepts
CLI_SUBCOMMANDS = ("fit", "test", "diagnose", "compare", "simulate")
CLI_TIMEOUT_S = 120


def op_seed(seed: int, k: int) -> int:
    """Seed of operation k, derived from the run seed alone."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass
class Op:
    items: int
    stages: dict = field(default_factory=dict)    # stage -> seconds
    checks: list = field(default_factory=list)    # (description, passed)
    deviance_missing: int = 0    # deviance residuals returned as NaN with a note
    digest: str = ""

    def time(self, stage, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.stages[stage] = self.stages.get(stage, 0.0) + time.perf_counter() - t0
        return out

    def check(self, description: str, passed) -> None:
        self.checks.append((description, bool(passed)))

    @property
    def wall(self) -> float:
        """Seconds spent in the timed stages."""
        return sum(self.stages.values())

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


class Workload:
    """One workload: ``setup`` prepares inputs, ``run(k)`` performs operation k."""

    name = ""
    item = ""       # the unit of work op_ms is reported per
    quota = 1       # operations every traced run completes (counts cover these)
    in_subprocess = False   # the work runs in child processes (peak RSS is theirs)

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))

    def setup(self) -> Op:
        """Import comreg in a fresh interpreter, then prepare this workload's inputs."""
        op = Op(items=0)
        proc = op.time("cli.import", subprocess.run,
                       [sys.executable, "-c", "import comreg.cli"],
                       env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S)
        op.check("fresh interpreter imports comreg.cli", proc.returncode == 0)
        self.prepare(op)
        return op

    def prepare(self, op: Op) -> None:
        raise NotImplementedError

    def run(self, k: int) -> Op:
        raise NotImplementedError

    def close(self) -> None:
        pass


class AirfreightBootstrap(Workload):
    """Repeated 100-replicate parametric bootstraps of the airfreight fit."""

    name = "airfreight-bootstrap"
    item = "replicate"
    quota = 1

    def prepare(self, op):
        from comreg import data, fit, infer

        self.ds = op.time("data.load_csv", data.load_csv, self.root / AIRFREIGHT_CSV, "broken")
        self.fr = op.time("fit", fit.fit_com, self.ds)
        res = op.time("test", infer.dispersion_test, self.ds)
        op.check("airfreight fit converged", self.fr.converged)
        op.check("airfreight beta within 1%", np.allclose(self.fr.beta, AIR_BETA, rtol=0.01))
        op.check("airfreight nu within 1%", abs(self.fr.nu - AIR_NU) <= 0.01 * AIR_NU)
        op.check("dispersion statistic C within 0.5 of 9.1", abs(res.statistic - AIR_C) <= 0.5)

    def run(self, k):
        from comreg import infer

        op = Op(items=N_BOOT)
        boot = op.time("bootstrap", infer.parametric_bootstrap, self.ds, self.fr,
                       n_boot=N_BOOT, ci_level=0.90, seed=op_seed(self.seed, k))
        lo, hi = boot.intervals["nu"]
        op.check("nu interval finite", np.isfinite(lo) and np.isfinite(hi))
        op.check("nu interval brackets nu-hat", lo <= self.fr.nu <= hi)
        op.digest = _digest(boot.intervals, boot.n_failed, boot.replicates)
        return op


class Overdispersed868(Workload):
    """Full analysis of simulated n = 868 over-dispersed datasets (criterion 08)."""

    name = "overdispersed-n868"
    item = "dataset"
    quota = 2

    def prepare(self, op):
        from comreg import data, dist

        def simulate(s):
            rng = np.random.default_rng(s)
            X = np.column_stack([np.ones(868), rng.uniform(0.0, 1.0, size=(868, 2))])
            y = dist.sample_many(np.exp(X @ N868_BETA), N868_NU, rng)
            return data.Dataset(y=y, X=X, names=("intercept", "x1", "x2"))

        self.pool = op.time("simulate", lambda: [simulate(op_seed(self.seed, i))
                                                 for i in range(N868_POOL)])

    def run(self, k):
        from comreg import baselines, data, diag, fit, infer

        ds = self.pool[k % N868_POOL]
        op = Op(items=1)
        fr = op.time("fit", fit.fit_com, ds)
        res = op.time("test", infer.dispersion_test, ds)
        rep = op.time("diagnose", diag.diagnostics_report, ds, fr)

        def compare():
            fits = {"com-poisson": fr}
            for name, fn in (("poisson", baselines.fit_poisson),
                             ("negbin", baselines.fit_negbin),
                             ("rgpr", baselines.fit_rgpr)):
                try:
                    fits[name] = fn(ds)
                except baselines.BaselineError as exc:
                    fits[name] = exc
            fitted = {name: np.exp(data.linear_predictor(ds, f.beta)) for name, f in fits.items()
                      if name != "com-poisson" and not isinstance(f, Exception)}
            fitted["com-poisson"] = fit.fitted_values(ds, fr, kind="median")
            return baselines.compare_models(ds, fits, fitted)

        comp = op.time("compare", compare)
        op.check("fit converged", fr.converged)
        # Criterion 08's interval (0.30, 0.41) is for its one dataset; over
        # seeded datasets about one converged fit in 36 falls outside it.
        op.check("nu-hat within 6 standard errors of 0.35",
                 abs(fr.nu - N868_NU) <= 6.0 * fr.se[-1])
        op.check("dispersion p < 1e-8", res.p_value < 1e-8)
        op.check("leverage and Pearson residuals finite for every observation",
                 all(len(a) == ds.n_obs and np.all(np.isfinite(a))
                     for a in (rep.leverage, rep.pearson)))
        missing = np.flatnonzero(~np.isfinite(rep.deviance))
        op.check("every missing deviance residual carries a note",
                 len(rep.deviance) == ds.n_obs and all(i in rep.notes for i in missing))
        op.deviance_missing = len(missing)
        op.check("comparison has an ok COM-Poisson row", comp.row("com-poisson").status == "ok")
        op.digest = _digest(fr.beta, fr.nu, fr.cov, res.statistic, rep.leverage,
                            rep.pearson, rep.deviance, [vars(r) for r in comp.rows])
        return op


class CliAirfreight(Workload):
    """comreg subcommands run as subprocesses on airfreight, one at a time."""

    name = "cli-airfreight"
    item = "call"
    quota = len(CLI_SUBCOMMANDS)
    in_subprocess = True
    workdir = None

    def prepare(self, op):
        import jsonschema

        self.validator = jsonschema.Draft202012Validator(
            json.loads((self.root / SCHEMA).read_text(encoding="utf-8")))
        if self.workdir is None:
            self.workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=Path(__file__).parent))

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, k):
        rnd, pos = divmod(k, len(CLI_SUBCOMMANDS))
        order = np.random.default_rng(op_seed(self.seed, rnd)).permutation(CLI_SUBCOMMANDS)
        sub = str(order[pos])
        rng = np.random.default_rng(op_seed(self.seed, k))
        if sub == "simulate":
            n = int(rng.integers(100, 401))
            out = self.workdir / f"sim-{k}.csv"
            argv = ["simulate", "--n", str(n), "--beta", "0.6,0.5",
                    "--nu", str(float(rng.choice([0.5, 1.0, 2.0]))),
                    "--seed", str(int(rng.integers(2**31))), "--output", str(out)]
        else:
            argv = [sub, "--data", str(self.root / AIRFREIGHT_CSV), "--response", "broken"]
        op = Op(items=1)
        proc = op.time(f"cli.{sub}", subprocess.run,
                       [sys.executable, "-m", "comreg.cli", *argv],
                       env=self.env, cwd=self.root, capture_output=True, text=True,
                       timeout=CLI_TIMEOUT_S)
        op.check(f"{sub} exit code 0", proc.returncode == 0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return op
        if sub == "simulate":
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            out.unlink()
            ys = [float(r[0]) for r in rows[1:]]
            op.check("simulate header", rows[0] == ["y", "x1"])
            op.check("simulate row count", len(ys) == n)
            op.check("simulate counts are nonnegative integers",
                     all(y >= 0 and y == int(y) for y in ys))
            op.digest = _digest(rows)
            return op
        report = json.loads(proc.stdout)
        op.check(f"{sub} report matches schema v1", self.validator.is_valid(report))
        op.digest = _digest(proc.stdout)
        if sub == "fit":
            beta = np.array([c["estimate"] for c in report["coefficients"]])
            op.check("fit beta within 1%", np.allclose(beta, AIR_BETA, rtol=0.01))
            op.check("fit nu within 1%", abs(report["nu"]["estimate"] - AIR_NU) <= 0.01 * AIR_NU)
        elif sub == "test":
            op.check("test C within 0.5 of 9.1", abs(report["statistic"] - AIR_C) <= 0.5)
        elif sub == "diagnose":
            lev = report["diagnostics"]["leverage"]
            op.check("diagnose covers every observation", len(lev) == 10)
        elif sub == "compare":
            rows = {r["model"]: r for r in report["rows"]}
            for model, aicc in AIR_AICC.items():
                op.check(f"compare {model} AICc within 0.05 of {aicc}",
                         rows[model]["status"] == "ok" and abs(rows[model]["aicc"] - aicc) <= 0.05)
        return op


WORKLOADS = {w.name: w for w in (AirfreightBootstrap, Overdispersed868, CliAirfreight)}

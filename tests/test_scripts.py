"""Smoke tests: each end-to-end script runs from a checkout and prints its results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, expected", [
    ("run_airfreight.py", ["--n-boot", "100", "--seed", "2026"],
     ["90% CI for nu", "flagged residuals: [7]"]),
    ("run_dispersion_sim.py", ["--n", "200", "--null-reps", "3"], ["rejection rate"]),
])
def test_script_runs(script, args, expected):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    for line in expected:
        assert line in proc.stdout


def test_ab_inprocess_aa_run():
    # the script against a second load of this checkout's own sources: an
    # A/A run, so no output differs between the two packages
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / "ab_inprocess.py"),
                           "--parent-src", str(REPO_ROOT / "src"), "--rounds", "2"],
                          capture_output=True, text=True, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[2:]}
    stages = {f"n868.{stage}" for stage in ("fit", "test", "diagnose", "compare")}
    fitters = {f"{fitter}.{data}" for fitter in ("fit_poisson", "fit_negbin", "fit_rgpr")
               for data in ("air", "n868")}
    assert set(rows) == {"bootstrap", "fit_com", "n868"} | fitters | stages
    # every workload and fitter row is timed and has digests that match
    assert all(rows[w][-1] == "0" and float(rows[w][1]) > 0
               for w in {"bootstrap", "fit_com", "n868"} | fitters)
    # a stage row has timing columns and no digest of its own
    assert all(rows[s][-1] == "-" and float(rows[s][2]) > 0 for s in stages)

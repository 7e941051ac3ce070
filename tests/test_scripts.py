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

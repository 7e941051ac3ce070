from pathlib import Path

import pytest

from comreg.data import Dataset, load_csv

REPO_ROOT = Path(__file__).resolve().parents[1]
AIRFREIGHT_CSV = REPO_ROOT / "data" / "airfreight.csv"


@pytest.fixture(scope="session")
def airfreight() -> Dataset:
    return load_csv(AIRFREIGHT_CSV, response="broken")


@pytest.fixture(scope="session")
def airfreight_path() -> Path:
    return AIRFREIGHT_CSV


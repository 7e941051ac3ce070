from pathlib import Path

import numpy as np
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


@pytest.fixture(scope="session")
def geometric_data() -> Dataset:
    # nu = 0 counts whose Poisson fit has lambda up to 2.35, where a
    # geometric series needs every lambda < 1
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 40)
    y = rng.geometric(0.6, 40) - 1
    return Dataset(y=y, X=np.column_stack([np.ones(40), x]), names=("intercept", "x"))


@pytest.fixture(scope="session")
def sparse_dummy() -> Dataset:
    # n = 30 with a 3-row dummy level: under the fitted Poisson null about
    # one replicate in seven draws zeros on that level, whose Poisson fit
    # runs off towards an estimate at infinity
    rng = np.random.default_rng(0)
    n = 30
    d = (np.arange(n) < 3).astype(float)
    x = rng.uniform(0, 1, n)
    y = rng.poisson(np.exp(1.0 + 0.3 * x - 2.0 * d))
    y[0] = 1
    return Dataset(y=y, X=np.column_stack([np.ones(n), x, d]), names=("intercept", "x", "d"))

"""Dataset ingestion and design-matrix construction.

CSV convention: UTF-8 (a leading byte-order mark is skipped), comma
separated, header row, '.' decimal separator.  The intercept column of
ones is always prepended and is always the first column of X.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import dist

RANK_RTOL = 1e-10

_TRANSFORMS = {
    "identity": lambda v: v,
    "log": np.log,
}


class DataError(ValueError):
    """Malformed input data (parse failure, invalid response, bad design)."""


@dataclass(frozen=True)
class Dataset:
    """Observed counts plus covariate rows with a leading intercept column."""

    y: np.ndarray
    X: np.ndarray
    names: tuple[str, ...]
    response_name: str = "y"

    def __post_init__(self):
        yf = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "X", X)
        n, ncol = X.shape
        if len(yf) != n:
            raise DataError(f"y has {len(yf)} rows but X has {n}")
        if not np.all(np.isfinite(X)):
            raise DataError("X contains non-finite entries")
        # inf passes the sign and integrality tests, so test finiteness too
        invalid = ~np.isfinite(yf) | (yf < 0) | (yf != np.floor(yf))
        if invalid.any():
            bad = int(np.flatnonzero(invalid)[0])
            raise DataError(
                f"response {self.response_name!r} must be nonnegative integers; "
                f"data row {bad + 1} has value {yf[bad]:g}"
            )
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.int64))
        if len(self.names) != ncol:
            raise DataError("names length must match X column count")
        if not np.allclose(X[:, 0], 1.0):
            raise DataError("first column of X must be the intercept column of ones")
        if n < ncol + 1:
            raise DataError(
                f"need at least p+2 observations ({ncol + 1}) for {ncol} columns, got {n}"
            )
        _check_full_rank(X)
        X.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    @property
    def n_cols(self) -> int:
        return self.X.shape[1]


def _check_full_rank(X: np.ndarray) -> None:
    # the smallest singular value relative to the largest flags
    # (near-)collinear columns; X has at least as many rows as columns
    sv = np.linalg.svd(X, compute_uv=False)
    if sv[0] == 0 or sv[-1] < RANK_RTOL * sv[0]:
        raise DataError("design matrix is rank deficient (collinear columns)")


def load_csv(
    path: str | Path,
    response: str,
    transforms: Mapping[str, str] | None = None,
) -> Dataset:
    """Load a Dataset from CSV.

    The covariates are every non-response column, in header order.
    transforms maps column name -> {'identity', 'log'}; by default every
    covariate enters untransformed; a transform of the response is refused.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    transforms = dict(transforms or {})

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise DataError(f"{path}: column {repeated[0]!r} appears more than once in the header")
        if response not in header:
            raise DataError(f"{path}: response column {response!r} not in header {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            parsed = []
            for col, cell in zip(header, row):
                cell = cell.strip()
                if cell == "":
                    raise DataError(f"{path}:{lineno}: missing value in column {col!r}")
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: non-numeric value {cell!r} in column {col!r}"
                    ) from None
            rows.append(parsed)

    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.array(rows, dtype=float)
    col = {name: table[:, j] for j, name in enumerate(header)}

    unknown = set(transforms) - set(header)
    if unknown:
        raise DataError(f"{path}: transforms refer to unknown columns {sorted(unknown)}")
    if response in transforms:
        raise DataError(f"{path}: transform given for the response column {response!r}; "
                        "transforms apply to covariates only")

    cols = [np.ones(len(table))]
    names = ["intercept"]
    for name in [h for h in header if h != response]:
        tag = transforms.get(name, "identity")
        if tag not in _TRANSFORMS:
            raise DataError(f"unknown transform {tag!r} for column {name!r}")
        values = col[name]
        if tag == "log" and np.any(values <= 0):
            bad = int(np.flatnonzero(values <= 0)[0])
            raise DataError(
                f"{path}: log transform of {name!r} needs positive values; "
                f"data row {bad + 1} has {values[bad]:g}"
            )
        cols.append(_TRANSFORMS[tag](values))
        names.append(name if tag == "identity" else f"log_{name}")

    try:
        return Dataset(
            y=col[response],
            X=np.column_stack(cols),
            names=tuple(names),
            response_name=response,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write a Dataset back to CSV (response column first, no intercept)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([ds.response_name, *ds.names[1:]])
        for i in range(ds.n_obs):
            writer.writerow(
                [int(ds.y[i]), *(repr(float(v)) for v in ds.X[i, 1:])]
            )


def simulate(
    n: int,
    beta: Sequence[float],
    nu: float,
    seed: int,
    x_min: float = 0.0,
    x_max: float = 1.0,
) -> Dataset:
    """Simulated COM-Poisson regression data with uniform covariates.

    X is an intercept plus len(beta) - 1 columns from U(x_min, x_max),
    then y_i ~ COM-Poisson(exp(x_i' beta), nu), all drawn in that order
    from default_rng(seed).  An unusable design or covariate range
    (x_min > x_max, or either not finite), or an exp(x_i' beta) that is not
    a positive finite double, raises DataError, and counts too large for
    the series dist.TruncationError.
    """
    beta = np.asarray(beta, dtype=float)
    if n < 1:
        raise DataError(f"n must be a positive integer, got {n}")
    if beta.size == 0:
        raise DataError("beta must hold at least the intercept")
    if not (np.isfinite(nu) and nu >= 0):
        raise DataError(f"nu must be a nonnegative finite real, got {nu}")
    if not (np.isfinite(x_min) and np.isfinite(x_max) and x_min <= x_max):
        raise DataError(f"x_min must be finite and at most x_max, got x_min={x_min:g}, "
                        f"x_max={x_max:g}")
    rng = np.random.default_rng(seed)
    n_cov = len(beta) - 1
    X = np.column_stack(
        [np.ones(n)] + [rng.uniform(x_min, x_max, size=n) for _ in range(n_cov)]
    )
    with np.errstate(over="ignore"):
        lam = np.exp(eta := X @ beta)
    if not ((lam > 0) & (lam < np.inf)).all():
        raise DataError(f"exp(x_i' beta) must be a positive finite double, but x_i' beta "
                        f"runs from {eta.min():g} to {eta.max():g}")
    y = dist.sample_many(lam, nu, rng)
    names = tuple(["intercept"] + [f"x{j + 1}" for j in range(n_cov)])
    return Dataset(y=y, X=X, names=names)


def linear_predictor(ds: Dataset, beta: np.ndarray) -> np.ndarray:
    """eta = X beta rowwise; exp(eta_i) is the per-observation lambda_i."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (ds.n_cols,):
        raise ValueError(f"beta must have length {ds.n_cols}, got shape {beta.shape}")
    return ds.X @ beta

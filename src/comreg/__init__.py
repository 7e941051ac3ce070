"""COM-Poisson regression for count data of arbitrary dispersion."""

from .data import Dataset, load_csv, linear_predictor
from .dist import ComParams
from .fit import FitResult, fit_com, fitted_values
from .infer import dispersion_test, parametric_bootstrap, wald_z
from .baselines import (
    fit_logistic,
    fit_negbin,
    fit_poisson,
    fit_rgpr,
    compare_models,
)
from .diag import diagnostics_report

__all__ = [
    "ComParams",
    "Dataset",
    "load_csv",
    "linear_predictor",
    "FitResult",
    "fit_com",
    "fitted_values",
    "dispersion_test",
    "parametric_bootstrap",
    "wald_z",
    "fit_poisson",
    "fit_negbin",
    "fit_logistic",
    "fit_rgpr",
    "compare_models",
    "diagnostics_report",
]

__version__ = "0.1.0"

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comreg.data import DataError, Dataset, linear_predictor, load_csv, simulate, write_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_airfreight_shape(self, airfreight):
        assert airfreight.n_obs == 10
        assert airfreight.n_cols == 2
        assert airfreight.names == ("intercept", "transfers")
        assert np.allclose(airfreight.X[:, 0], 1.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", response="y")

    def test_missing_response_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="response column"):
            load_csv(path, response="y")

    def test_non_integer_response_names_row(self, tmp_path):
        rows = "\n".join(f"{i},{i}" for i in range(8))
        path = write(tmp_path, f"x,y\n1,2.5\n{rows}\n")
        with pytest.raises(DataError, match="row 1"):
            load_csv(path, response="y")

    def test_negative_response_rejected(self, tmp_path):
        rows = "\n".join(f"{i},{i}" for i in range(8))
        path = write(tmp_path, f"x,y\n{rows}\n1,-3\n")
        with pytest.raises(DataError, match="nonnegative"):
            load_csv(path, response="y")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_response_names_row(self, tmp_path, value):
        rows = "\n".join(f"{i},{i}" for i in range(8))
        path = write(tmp_path, f"x,y\n1,2\n2,{value}\n{rows}\n")
        with pytest.raises(DataError, match=rf"data\.csv: response 'y'.*data row 2 has value {value}"):
            load_csv(path, response="y")

    def test_duplicated_covariate_is_rank_deficient(self, tmp_path):
        rows = "\n".join(f"{i},{i},{i}" for i in range(8))
        path = write(tmp_path, f"a,b,y\n{rows}\n")
        with pytest.raises(DataError, match="rank deficient"):
            load_csv(path, response="y")

    @pytest.mark.parametrize("header,repeated", [("y,x,y", "y"), ("y,x,x", "x")])
    def test_duplicate_column_name_rejected(self, tmp_path, header, repeated):
        # the second 'y' was fitted silently; a repeated covariate was called collinear
        rows = "\n".join(f"{i},{i * i % 5},{i % 3}" for i in range(8))
        path = write(tmp_path, f"{header}\n{rows}\n")
        with pytest.raises(DataError, match=f"column '{repeated}' appears more than once"):
            load_csv(path, response="y")

    def test_byte_order_mark_skipped(self, tmp_path, airfreight):
        # Excel's "CSV UTF-8" starts with a byte-order mark, which was read
        # into the first column name: 'broken' was then not in the header
        rows = "\n".join(f"{y},{x}" for y, x in zip(airfreight.y, airfreight.X[:, 1]))
        path = tmp_path / "bom.csv"
        path.write_text(f"\ufeffbroken,transfers\n{rows}\n", encoding="utf-8")
        ds = load_csv(path, response="broken")
        assert ds.names == airfreight.names
        assert np.array_equal(ds.y, airfreight.y) and np.array_equal(ds.X, airfreight.X)

    @pytest.mark.parametrize("text, match", [
        ("", r"data\.csv: empty file"),
        ("x,y\n", r"data\.csv: no data rows"),
        ("x,y\n1,2\n3\n", r"data\.csv:3: expected 2 fields, got 1"),
    ], ids=["empty file", "header only", "short row"])
    def test_malformed_file_rejected(self, tmp_path, text, match):
        with pytest.raises(DataError, match=match):
            load_csv(write(tmp_path, text), response="y")

    def test_blank_rows_skipped(self, tmp_path):
        rows = [f"{i},{i % 3}" for i in range(8)]
        plain = load_csv(write(tmp_path, "x,y\n" + "\n".join(rows) + "\n", "plain.csv"),
                         response="y")
        text = "x,y\n" + "\n".join(rows[:3] + ["", " , "] + rows[3:]) + "\n"
        ds = load_csv(write(tmp_path, text), response="y")
        assert np.array_equal(ds.X, plain.X) and np.array_equal(ds.y, plain.y)

    def test_missing_value_rejected(self, tmp_path):
        path = write(tmp_path, "x,y\n1,2\n,3\n2,4\n3,5\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path, response="y")

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = write(tmp_path, "x,y\n1,2\nfoo,3\n2,4\n")
        with pytest.raises(DataError, match=r":3:.*'foo'"):
            load_csv(path, response="y")

    def test_too_few_rows(self, tmp_path):
        path = write(tmp_path, "x,y\n1,2\n2,3\n")
        with pytest.raises(DataError, match="observations"):
            load_csv(path, response="y")

    def test_log_transform(self, tmp_path):
        rows = "\n".join(f"{i + 1},{i}" for i in range(8))
        path = write(tmp_path, f"flow,y\n{rows}\n")
        ds = load_csv(path, response="y", transforms={"flow": "log"})
        assert ds.names == ("intercept", "log_flow")
        assert np.allclose(ds.X[:, 1], np.log(np.arange(1, 9)))

    def test_log_transform_rejects_nonpositive(self, tmp_path):
        rows = "\n".join(f"{i},{i}" for i in range(8))
        path = write(tmp_path, f"flow,y\n{rows}\n")
        with pytest.raises(DataError, match="positive values"):
            load_csv(path, response="y", transforms={"flow": "log"})

    @pytest.mark.parametrize("tag", ["log", "bogus"])
    def test_transform_of_the_response_rejected(self, tmp_path, tag):
        rows = "\n".join(f"{i + 1},{i + 1}" for i in range(8))
        path = write(tmp_path, f"flow,y\n{rows}\n")
        with pytest.raises(DataError, match="response column 'y'"):
            load_csv(path, response="y", transforms={"y": tag})

    def test_unknown_transform_tag(self, tmp_path):
        rows = "\n".join(f"{i + 1},{i}" for i in range(8))
        path = write(tmp_path, f"flow,y\n{rows}\n")
        with pytest.raises(DataError, match="unknown transform"):
            load_csv(path, response="y", transforms={"flow": "sqrt"})

    def test_transform_of_an_unknown_column(self, tmp_path):
        rows = "\n".join(f"{i + 1},{i}" for i in range(8))
        path = write(tmp_path, f"flow,y\n{rows}\n")
        with pytest.raises(DataError, match=r"transforms refer to unknown columns \['z'\]"):
            load_csv(path, response="y", transforms={"z": "log"})


class TestDatasetInvariants:
    def test_rank_check_on_construction(self):
        X = np.column_stack([np.ones(8), np.arange(8.0), 2 * np.arange(8.0)])
        with pytest.raises(DataError, match="rank deficient"):
            Dataset(y=np.arange(8), X=X, names=("intercept", "a", "b"))

    def test_intercept_must_be_first(self):
        X = np.column_stack([np.arange(1.0, 9.0), np.ones(8)])
        with pytest.raises(DataError, match="intercept"):
            Dataset(y=np.arange(8), X=X, names=("a", "intercept"))

    @pytest.mark.parametrize("y, X, names, match", [
        (np.arange(5), np.column_stack([np.ones(4), np.arange(4.0)]), ("intercept", "x"),
         "y has 5 rows but X has 4"),
        (np.arange(4), np.column_stack([np.ones(4), [0.0, np.nan, 2.0, 3.0]]), ("intercept", "x"),
         "X contains non-finite entries"),
        (np.arange(4), np.column_stack([np.ones(4), np.arange(4.0)]), ("intercept",),
         "names length must match X column count"),
    ], ids=["row mismatch", "non-finite X", "names length"])
    def test_malformed_dataset_rejected(self, y, X, names, match):
        with pytest.raises(DataError, match=match):
            Dataset(y=y, X=X, names=names)

    def test_nonfinite_response_rejected(self):
        X = np.column_stack([np.ones(4), np.arange(4.0)])
        with pytest.raises(DataError, match="data row 2 has value inf"):
            Dataset(y=[1, np.inf, 2, 3], X=X, names=("intercept", "x"))

    def test_immutability(self, airfreight):
        with pytest.raises(ValueError):
            airfreight.X[0, 0] = 7.0
        with pytest.raises(ValueError):
            airfreight.y[0] = 7


class TestSimulate:
    def test_seed_fixes_dataset(self):
        a = simulate(40, [0.5, 0.3, -0.2], 1.5, seed=3, x_min=-1.0, x_max=2.0)
        b = simulate(40, [0.5, 0.3, -0.2], 1.5, seed=3, x_min=-1.0, x_max=2.0)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.X, b.X)
        assert a.names == ("intercept", "x1", "x2")
        assert np.all((a.X[:, 1:] >= -1.0) & (a.X[:, 1:] < 2.0))

    @pytest.mark.parametrize("n, nu, match", [
        (0, 1.0, "positive"),
        (2, 1.0, "observations"),
        (20, -0.5, "nonnegative"),
    ])
    def test_unusable_design_rejected(self, n, nu, match):
        with pytest.raises(DataError, match=match):
            simulate(n, [0.5, 0.3], nu, seed=1)

    def test_empty_beta_rejected(self):
        # numpy's matmul ValueError came out of the design product
        with pytest.raises(DataError, match="beta must hold at least the intercept"):
            simulate(10, [], 1.0, seed=1)

    @pytest.mark.parametrize("x_min, x_max", [(2.0, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_unusable_covariate_range_rejected(self, x_min, x_max):
        with pytest.raises(DataError, match="x_min must be finite and at most x_max"):
            simulate(20, [0.5, 0.3], 1.0, seed=1, x_min=x_min, x_max=x_max)

    def test_overflowing_lambda_is_a_value_error(self):
        # the kernel's typed error, not numpy's overflow warning
        with pytest.raises(ValueError, match="positive finite"):
            simulate(10, [1000.0, 0.5], 1.0, seed=1)

    @pytest.mark.parametrize("beta, largest", [([100 * np.log(3000), 0.0], "800.637"),
                                               ([-800.0, 0.5], "-799.5")])
    def test_lambda_out_of_range_is_a_data_error(self, beta, largest):
        # exp(x'beta) overflows to inf, or underflows to 0, before any draw
        with pytest.raises(DataError, match=f"x_i' beta runs from .* to {largest}"):
            simulate(100, beta, 100.0, seed=3)


class TestRoundTrip:
    def test_csv_round_trip_identical(self, airfreight, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(airfreight, path)
        again = load_csv(path, response=airfreight.response_name)
        assert np.array_equal(again.y, airfreight.y)
        assert np.array_equal(again.X, airfreight.X)

    def test_round_trip_with_float_covariates(self, tmp_path):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(12), rng.normal(size=12), rng.normal(size=12)])
        ds = Dataset(y=rng.poisson(3.0, 12), X=X, names=("intercept", "a", "b"))
        path = tmp_path / "out.csv"
        write_csv(ds, path)
        again = load_csv(path, response="y")
        assert np.array_equal(again.X, ds.X)
        assert np.array_equal(again.y, ds.y)


class TestLinearPredictor:
    def test_zero_beta(self, airfreight):
        eta = linear_predictor(airfreight, np.zeros(2))
        assert np.array_equal(eta, np.zeros(10))
        assert np.allclose(np.exp(eta), 1.0)

    def test_intercept_only_constant(self, airfreight):
        eta = linear_predictor(airfreight, np.array([2.5, 0.0]))
        assert np.allclose(eta, 2.5)

    def test_paper_coefficients_at_x3(self, airfreight):
        # eta = 2.3529 + 3 * 0.2638 = 3.1443 -> lambda ~ 23.2
        eta = linear_predictor(airfreight, np.array([2.3529, 0.2638]))
        i = int(np.argmax(airfreight.X[:, 1]))  # the x=3 shipment
        assert eta[i] == pytest.approx(3.1443, abs=1e-10)
        assert np.exp(eta[i]) == pytest.approx(23.2, abs=0.1)

    def test_dimension_mismatch(self, airfreight):
        with pytest.raises(ValueError):
            linear_predictor(airfreight, np.zeros(3))

    @given(
        b1=st.lists(st.floats(-2, 2), min_size=2, max_size=2),
        b2=st.lists(st.floats(-2, 2), min_size=2, max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, airfreight, b1, b2):
        b1, b2 = np.array(b1), np.array(b2)
        combined = linear_predictor(airfreight, b1 + b2)
        assert np.allclose(
            combined,
            linear_predictor(airfreight, b1) + linear_predictor(airfreight, b2),
            atol=1e-12,
        )

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from areamix import (
    DomainError,
    DuplicateKeyError,
    InsufficientDataError,
    SchemaError,
    ShapeError,
    back_transform,
    delta_method_variance,
    gvf_impute,
    load_tabulation,
    log_transform,
    predict_summaries,
    write_prediction_csv,
)
from areamix import tabulation
from areamix.loess import loess_fit
from areamix.tabulation import IMPUTATION_FLOOR, PREDICTION_COLUMNS

from conftest import write_csv


class TestLoadTabulation:
    def test_basic_row_parsing(self, basic_table_csv):
        table = load_tabulation(basic_table_csv)
        assert table.areas == ("19013", "19041")
        assert table.n_cells == 2
        i = table.index_of("19041", 1)
        assert table.estimates[i] == 325.0
        assert table.std_errors[i] == 49.2
        assert table.sample_sizes[i] == 250.0

    def test_rows_are_area_major(self, basic_table_csv):
        table = load_tabulation(basic_table_csv)
        assert table.keys() == [("19013", 1), ("19013", 2), ("19041", 1), ("19041", 2)]
        assert table.n_rows == 4

    def test_duplicate_area_cell(self, tmp_path):
        path = write_csv(
            tmp_path / "dup.csv",
            "state,county,order,count,std_err\n19,041,1,325,49.2\n19,041,1,300,40.0\n",
        )
        with pytest.raises(DuplicateKeyError):
            load_tabulation(path)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "m.csv", "state,county,order,count\n19,041,1,325\n")
        with pytest.raises(SchemaError):
            load_tabulation(path)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "e.csv", "state,county,order,count,std_err\n")
        with pytest.raises(SchemaError):
            load_tabulation(path)

    def test_negative_count_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "n.csv", "state,county,order,count,std_err\n19,041,1,-5,49.2\n"
        )
        with pytest.raises(DomainError):
            load_tabulation(path)

    def test_non_integer_cell_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "c.csv", "state,county,order,count,std_err\n19,041,one,325,49.2\n"
        )
        with pytest.raises(SchemaError):
            load_tabulation(path)

    def test_ragged_cells_rejected(self, tmp_path):
        # area 19013 is missing cell 2
        path = write_csv(
            tmp_path / "r.csv",
            "state,county,order,count,std_err\n"
            "19,041,1,325,49.2\n19,041,2,10,3.0\n19,013,1,7,2.0\n",
        )
        with pytest.raises(SchemaError, match="cells"):
            load_tabulation(path)

    def test_ragged_names_first_area_in_sorted_order(self, tmp_path):
        # both 19041 (cells 2, 3) and 19013 (cell 3) are ragged
        path = write_csv(
            tmp_path / "r.csv",
            "state,county,order,count,std_err\n"
            "19,041,1,325,49.2\n19,013,1,7,2.0\n19,013,2,5,1.0\n"
            "19,077,1,1,1.0\n19,077,2,1,1.0\n19,077,3,1,1.0\n",
        )
        with pytest.raises(SchemaError, match=r"area 19013 lacks cells \[3\]$"):
            load_tabulation(path)

    def test_cells_must_start_at_one(self, tmp_path):
        path = write_csv(
            tmp_path / "s.csv",
            "state,county,order,count,std_err\n19,041,2,325,49.2\n19,041,3,10,3.0\n",
        )
        with pytest.raises(SchemaError):
            load_tabulation(path)

    def test_nonpositive_sample_size_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "z.csv",
            "state,county,order,count,std_err,sample_size\n19,041,1,325,49.2,0\n",
        )
        with pytest.raises(DomainError):
            load_tabulation(path)

    def test_column_name_overrides(self, tmp_path):
        path = write_csv(
            tmp_path / "alt.csv",
            "st,cty,cell,estimate,se\n19,041,1,325,49.2\n",
        )
        table = load_tabulation(
            path,
            columns={
                "state": "st",
                "county": "cty",
                "order": "cell",
                "count": "estimate",
                "std_err": "se",
            },
        )
        assert table.areas == ("19041",)
        assert table.estimates[0] == 325.0
        assert table.sample_sizes is None

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_tabulation("/nonexistent/tab.csv")


HEADER = "state,county,order,count,std_err\n"
SIZED = "state,county,order,count,std_err,sample_size\n"
GOOD_ROW = "19,041,1,325,49.2\n"


class TestLoadTabulationMessages:
    """Each rejected input's error class, message and line number."""

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (HEADER + GOOD_ROW + "19,041,2,abc,3\n", SchemaError, "3: non-numeric count or std_err"),
            (HEADER + "19,041,1,325,x\n", SchemaError, "2: non-numeric count or std_err"),
            # blank lines are skipped but counted: the bad row is physical line 5
            (HEADER + GOOD_ROW + "\n\n19,041,2,abc,3\n", SchemaError, "5: non-numeric count or std_err"),
            (HEADER + GOOD_ROW + "19,041,2,inf,3\n", DomainError, "3: count and std_err must be finite"),
            (HEADER + "19,041,1,nan,3\n", DomainError, "2: count and std_err must be finite"),
            (HEADER + GOOD_ROW + ",013,1,5,1.0\n", SchemaError, "3: blank state or county code"),
            (HEADER + "19, ,1,5,1.0\n", SchemaError, "2: blank state or county code"),
            # a short row's missing fields read as blank
            (HEADER + GOOD_ROW + "19,041,2,10\n", SchemaError, "3: non-numeric count or std_err"),
            (SIZED + GOOD_ROW, SchemaError, "2: non-numeric sample_size"),
            (SIZED + "19,041,1,325,49.2,250\n19,041,2,5,1,many\n", SchemaError, "3: non-numeric sample_size"),
            (HEADER + "19,041,x,325,49.2\n", SchemaError, "2: cell index 'x' is not an integer"),
            (HEADER + "19,041,0,325,49.2\n", SchemaError, "2: cell index must be >= 1"),
            (HEADER + "19,041,1,325,-1\n", DomainError, "2: negative count or std_err"),
            (HEADER, SchemaError, " no data rows"),
            ("", SchemaError, " empty file"),
            ("state,county,order,count\n19,041,1,325\n", SchemaError, " missing column 'std_err'"),
        ],
    )
    def test_message_names_the_line(self, tmp_path, text, error, message):
        path = write_csv(tmp_path / "t.csv", text)
        with pytest.raises(error) as info:
            load_tabulation(path)
        assert str(info.value) == f"{path}:{message}"

    def test_row_longer_than_header(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", HEADER + GOOD_ROW + "19,041,2,10,3.0,7\n")
        with pytest.raises(SchemaError) as info:
            load_tabulation(path)
        assert str(info.value) == f"{path}:3: 6 fields, but the header names 5"

    def test_unknown_column_role(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", HEADER + GOOD_ROW)
        with pytest.raises(SchemaError) as info:
            load_tabulation(path, columns={"bogus": "x", "count": "count"})
        assert str(info.value) == "unknown column roles: ['bogus']"

    def test_whitespace_padded_names_and_fields(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            " state , county ,order , count,std_err ,sample_size\n"
            " 19 , 041 , 2 , 10 , 3.0 , 40 \n 19 , 041 , 1 , 325 , 49.2 , 250 \n",
        )
        table = load_tabulation(path)
        assert table.areas == ("19041",)
        assert table.estimates.tolist() == [325.0, 10.0]
        assert table.std_errors.tolist() == [49.2, 3.0]
        assert table.sample_sizes.tolist() == [250.0, 40.0]


class TestDeltaMethod:
    def test_reference_value(self):
        # se^2 / (est + 1)^2 at est=325, se=49.2
        got = delta_method_variance(325.0, 49.2)
        assert got == pytest.approx((49.2 / 326.0) ** 2, rel=1e-14)

    def test_zero_estimate_zero_se(self):
        assert delta_method_variance(0.0, 0.0) == 0.0

    def test_vectorized(self):
        est = np.array([0.0, 9.0])
        se = np.array([1.0, 5.0])
        got = delta_method_variance(est, se)
        assert np.allclose(got, [(1.0 / 1.0) ** 2, (5.0 / 10.0) ** 2])

    def test_negative_inputs(self):
        with pytest.raises(DomainError):
            delta_method_variance(-1.0, 2.0)
        with pytest.raises(DomainError):
            delta_method_variance(1.0, -2.0)


class TestLogTransform:
    def test_z_is_log1p(self, basic_table_csv):
        table = load_tabulation(basic_table_csv)
        log_table = log_transform(table)
        assert np.array_equal(log_table.z, np.log1p(table.estimates))
        i = log_table.index_of("19041", 1)
        assert log_table.z[i] == pytest.approx(math.log(326.0), rel=1e-14)

    def test_zero_estimate_leaves_d_undefined(self, basic_table_csv):
        log_table = log_transform(load_tabulation(basic_table_csv))
        i = log_table.index_of("19041", 2)  # count 0, se 0.9
        assert math.isnan(log_table.d[i])
        j = log_table.index_of("19041", 1)
        assert log_table.d[j] == pytest.approx((49.2 / 326.0) ** 2)

    def test_zero_se_leaves_d_undefined(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", "state,county,order,count,std_err\n19,041,1,10,0\n"
        )
        log_table = log_transform(load_tabulation(path))
        assert math.isnan(log_table.d[0])


def _table_with_variances(n_defined: int, n_missing: int, rule):
    """Single-cell table whose defined d follow a rule of log sample size."""
    areas = tuple(f"19{i:03d}" for i in range(n_defined + n_missing))
    sizes = np.linspace(50.0, 5000.0, n_defined + n_missing)
    est = np.full(len(areas), 100.0)
    se = np.empty(len(areas))
    for i in range(len(areas)):
        if i < n_defined:
            d_target = rule(math.log(sizes[i]))
            se[i] = math.sqrt(d_target) * 101.0
        else:
            se[i] = 0.0  # collapses to undefined after the transform
    from areamix.tabulation import TabulationTable

    table = TabulationTable(
        areas=areas, n_cells=1, estimates=est, std_errors=se, sample_sizes=sizes
    )
    return log_transform(table)


class TestGvfImpute:
    def test_matches_independent_smoother(self):
        rule = lambda u: 2.5 - 0.2 * u + 0.01 * math.sin(50 * u)
        log_table = _table_with_variances(20, 6, rule)
        filled = gvf_impute(log_table, span=0.75)

        defined = np.isfinite(log_table.d)
        predictor = np.log(log_table.sample_sizes)
        oracle = loess_fit(predictor[defined], log_table.d[defined], span=0.75)
        expected = np.maximum(oracle(predictor[~defined]), IMPUTATION_FLOOR)
        assert np.allclose(filled.d[~defined], expected, rtol=1e-12)

    def test_defined_entries_untouched(self):
        log_table = _table_with_variances(12, 3, lambda u: 0.5 + 0.05 * u)
        filled = gvf_impute(log_table)
        defined = np.isfinite(log_table.d)
        assert np.array_equal(filled.d[defined], log_table.d[defined])
        assert np.array_equal(filled.imputed, ~defined)

    def test_input_arrays_unchanged(self):
        log_table = _table_with_variances(12, 3, lambda u: 0.5 + 0.05 * u)
        before = {
            name: getattr(log_table, name).copy()
            for name in ("z", "d", "estimates", "std_errors", "sample_sizes")
        }
        filled = gvf_impute(log_table)
        assert log_table.imputed is None
        for name, want in before.items():
            assert np.array_equal(getattr(log_table, name), want, equal_nan=True), name
        assert filled.z is log_table.z and filled.estimates is log_table.estimates

    def test_floor_applies(self):
        # defined variances are tiny, so the smoothed fill hits the floor
        log_table = _table_with_variances(10, 2, lambda u: 1e-9)
        filled = gvf_impute(log_table)
        assert np.all(filled.d[filled.imputed] == IMPUTATION_FLOOR)

    def test_no_defined_variances(self):
        log_table = _table_with_variances(0, 6, lambda u: 1.0)
        with pytest.raises(InsufficientDataError):
            gvf_impute(log_table)

    def test_too_few_defined(self):
        log_table = _table_with_variances(4, 3, lambda u: 1.0)
        with pytest.raises(InsufficientDataError):
            gvf_impute(log_table)


class TestBackTransform:
    def test_two_draw_example(self):
        # draws {log 1, log 3} decode to counts {0, 2}: mean 1, sd sqrt(2)
        out = back_transform(np.array([[0.0], [math.log(3.0)]]))
        assert out.mean[0] == 1.0
        assert out.sd[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert out.cv[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_exact_on_encoded_integers(self):
        ks = np.array([0, 1, 2, 7, 10, 999, 10**6, 123456789], dtype=float)
        draws = np.log1p(ks)[None, :]
        out = back_transform(draws)
        assert np.array_equal(out.mean, ks)

    def test_non_integer_draws_use_expm1(self):
        out = back_transform(np.array([[0.5, 2.5]]))
        assert np.allclose(out.mean, np.expm1([0.5, 2.5]), rtol=1e-15)

    def test_single_draw_sd_zero(self):
        out = back_transform(np.array([math.log(4.0), 1.3]))
        assert np.array_equal(out.sd, [0.0, 0.0])
        assert out.cv[0] == 0.0

    def test_cv_undefined_at_zero_mean(self):
        out = back_transform(np.array([[0.0]]))
        assert out.mean[0] == 0.0
        assert math.isnan(out.cv[0])

    def test_negative_draws_pass_through(self):
        out = back_transform(np.array([[-0.5]]))
        assert out.mean[0] == pytest.approx(math.expm1(-0.5), rel=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            back_transform(np.array([[np.nan]]))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            back_transform(np.empty((0, 3)))

    @pytest.mark.parametrize(
        "draws", [[[800.0, 1.0]], [[709.7, 1.0], [0.0, 1.0]]], ids=["mean", "sd"]
    )
    def test_count_overflow_is_a_domain_error(self, draws):
        # expm1(800) overflows the count mean; expm1(709.7) = 1.65e308 is
        # finite, but its deviation from the mean overflows the count sd
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"log\(max float\) = 709\.78") as caught:
                predict_summaries(np.array(draws))
        assert caught.value.exit_code == 3

    def test_largest_finite_count_summarises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = back_transform(np.array([[709.7, 1.0]]))
        assert out.mean[0] == math.expm1(709.7) and out.sd[0] == 0.0


class TestPredictSummaries:
    def test_array_input(self):
        draws = np.array([[0.0, 1.0], [2.0, 3.0]])
        s = predict_summaries(draws)
        assert np.allclose(s.log_mean, [1.0, 2.0])
        assert np.allclose(s.log_sd, np.std(draws, axis=0, ddof=1))
        assert np.allclose(s.count.mean, np.expm1(draws).mean(axis=0))

    def test_fit_like_object(self):
        class Fake:
            y = np.array([[1.0, 2.0]])

        s = predict_summaries(Fake())
        assert np.allclose(s.log_mean, [1.0, 2.0])
        assert np.array_equal(s.log_sd, [0.0, 0.0])

    def test_csv_layout(self, tmp_path, basic_table_csv):
        log_table = log_transform(load_tabulation(basic_table_csv))
        draws = np.tile(log_table.z, (3, 1))
        path = tmp_path / "pred.csv"
        write_prediction_csv(path, log_table, predict_summaries(draws))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(PREDICTION_COLUMNS)
        assert len(lines) == 1 + log_table.n_rows
        first = lines[1].split(",")
        assert first[0] == "19013"
        assert first[1] == "1"
        # constant draws decode the direct count exactly
        assert first[4] == "1200.0"
        assert first[7] == "1200.0"

    def test_shape_mismatch(self, tmp_path, basic_table_csv):
        log_table = log_transform(load_tabulation(basic_table_csv))
        with pytest.raises(ShapeError):
            write_prediction_csv(
                tmp_path / "x.csv", log_table, predict_summaries(np.zeros((2, 3)))
            )

    def test_chain_of_three_dimensions(self):
        # rejected before any arithmetic: the NaN is never reached
        with pytest.raises(ShapeError, match="3-D"):
            predict_summaries(np.full((2, 3, 4), np.nan))
        with pytest.raises(ShapeError, match="0-D"):
            predict_summaries([np.zeros((2, 3)), 1.0])

    def test_chains_disagree_on_entries(self):
        with pytest.raises(ShapeError, match="disagree"):
            predict_summaries([np.full((2, 3), np.nan), np.zeros((2, 4))])

    @pytest.mark.parametrize(
        "draws",
        [[], np.empty((0, 3)), np.empty((2, 0)), [np.empty((0, 3)), np.empty((0, 3))]],
        ids=["no chains", "no draws", "no entries", "empty chains"],
    )
    def test_empty_pooled_draws(self, draws):
        with pytest.raises(ShapeError, match="no retained draws"):
            predict_summaries(draws)

    def test_list_of_fit_results(self):
        class Fake:
            def __init__(self, y):
                self.y = y

        a, b = np.array([[0.0, 1.0]]), np.array([[2.0, 3.0], [math.log(3.0), 0.5]])
        s = predict_summaries([Fake(a), Fake(b)])
        assert np.array_equal(s.log_mean, np.vstack([a, b]).mean(axis=0))


def whole_array_summaries(draws) -> list[np.ndarray]:
    """Oracle: the five summaries from whole-array formulas over the pooled draws."""
    arr = np.asarray(draws, dtype=float)
    counts = np.expm1(arr)
    nearest = np.rint(counts)
    snap = (nearest >= 0) & (np.log1p(np.abs(nearest)) == arr)
    counts = np.where(snap, nearest, counts)

    def sd(a):
        return np.zeros(a.shape[1]) if len(a) == 1 else a.std(axis=0, ddof=1)

    mean = counts.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.where(mean != 0.0, sd(counts) / mean, np.nan)
    return [arr.mean(axis=0), sd(arr), mean, sd(counts), cv]


def summary_vectors(s) -> list[np.ndarray]:
    return [s.log_mean, s.log_sd, s.count.mean, s.count.sd, s.count.cv]


def mixed_draws(rows: int, columns: int, seed: int = 0) -> np.ndarray:
    """Draws mixing exact encodings log1p(k) for k in 0..1e15 and at and
    past 2^53, their nextafter neighbours, zeros, negatives and
    non-integers, column by column and draw by draw."""
    rng = np.random.default_rng(seed)
    past = [2.0**53, 2.0**53 + 2, 2.0**60]
    ks = np.unique(np.concatenate([np.arange(100.0), np.rint(np.logspace(2, 15, 200)), past]))
    encoded = np.log1p(rng.choice(ks, size=(rows, columns)))
    kinds = rng.integers(0, 6, size=(rows, columns))
    kinds[:, 0] = 0  # an all-encoded column
    kinds[:, 1] = 4  # an all-zero column: its mean is 0 and its CV undefined
    return np.select(
        [kinds == 0, kinds == 1, kinds == 2, kinds == 3, kinds == 4],
        [
            encoded,
            np.nextafter(encoded, np.inf),
            np.nextafter(encoded, -np.inf),
            -rng.exponential(1.0, size=(rows, columns)),
            np.zeros((rows, columns)),
        ],
        rng.normal(3.0, 2.0, size=(rows, columns)),
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBlockedSummaries:
    """predict_summaries against the whole-array formulas, bit for bit,
    with no floating-point warning."""

    @pytest.fixture(params=[None, 1, 13], ids=["default blocks", "1 column", "13 columns"])
    def block_columns(self, request, monkeypatch):
        """Force blocks of this many columns of the 41 pooled draws below."""
        if request.param is not None:
            monkeypatch.setattr(tabulation, "_BLOCK_BYTES", 8 * 41 * request.param)
        return request.param

    def assert_bitwise(self, draws, pooled):
        got, want = summary_vectors(predict_summaries(draws)), whole_array_summaries(pooled)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()
            assert np.array_equal(g, w, equal_nan=True)
        count = back_transform(draws)
        assert [count.mean.tobytes(), count.sd.tobytes(), count.cv.tobytes()] == [
            w.tobytes() for w in want[2:]
        ]

    def test_one_array(self, block_columns):
        draws = mixed_draws(41, 53)
        self.assert_bitwise(draws, draws)
        # numpy sums the columns of a Fortran-ordered array pairwise, whole or in blocks
        self.assert_bitwise(np.asfortranarray(draws), np.asfortranarray(draws))

    def test_chains_of_unequal_length(self, block_columns):
        chains = [mixed_draws(17, 53, seed=1), mixed_draws(24, 53, seed=2)]
        self.assert_bitwise(chains, np.vstack(chains))
        self.assert_bitwise(tuple(chains), np.vstack(chains))

    def test_single_draw(self, block_columns):
        draws = mixed_draws(1, 53)
        self.assert_bitwise(draws, draws)
        self.assert_bitwise(draws[0], draws)

    def test_single_entry(self, block_columns):
        # numpy sums a lone column pairwise, both whole and in one block
        draws = mixed_draws(41, 2)[:, :1]
        self.assert_bitwise(draws, draws)

    def test_memory_is_a_block_not_the_draws(self):
        draws = np.random.default_rng(0).normal(3.0, 1.0, size=(1024, 8192))
        assert draws.nbytes >= 64 * 2**20
        for arg in (draws, [draws[:512], draws[512:]]):
            tracemalloc.start()
            try:
                predict_summaries(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < draws.nbytes / 8

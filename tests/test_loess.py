import math

import numpy as np
import pytest

from areamix import DomainError, InsufficientDataError
from areamix.loess import MIN_POINTS, LoessSmoother, loess_fit


def wls_oracle(x, y, span, x0):
    """Independent re-derivation of one local-linear tricube prediction."""
    n = x.size
    dist = np.abs(x - x0)
    k = min(n, max(2, math.ceil(span * n)))
    h = np.sort(dist)[k - 1]
    if h <= 0:
        w = (dist == 0).astype(float)
        return float(np.sum(w * y) / np.sum(w))
    u = dist / h
    w = np.where(u < 1.0, (1.0 - u**3) ** 3, 0.0)
    design = np.column_stack([np.ones(n), x - x0])
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    return float(coef[0])


class TestAgainstOracle:
    def test_random_data_matches_pointwise_wls(self):
        rng = np.random.default_rng(42)
        x = np.sort(rng.uniform(0.0, 10.0, size=40))
        y = np.sin(x) + rng.normal(0.0, 0.3, size=40)
        for span in (0.3, 0.6, 1.0):
            smoother = loess_fit(x, y, span=span)
            got = smoother(x)
            expected = np.array([wls_oracle(x, y, span, x0) for x0 in x])
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-12), span

    def test_interior_query_points(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5.0, 5.0, size=25)
        y = rng.normal(size=25)
        smoother = loess_fit(x, y, span=0.5)
        queries = np.linspace(x.min(), x.max(), 17)
        expected = np.array([wls_oracle(x, y, 0.5, q) for q in queries])
        assert np.allclose(smoother(queries), expected, rtol=1e-9, atol=1e-12)


class TestBehaviour:
    def test_reproduces_straight_line(self):
        x = np.linspace(0.0, 1.0, 20)
        y = 2.0 * x + 1.0
        smoother = loess_fit(x, y, span=0.4)
        assert np.allclose(smoother(x), y, atol=1e-10)

    def test_queries_clamp_to_data_range(self):
        x = np.linspace(0.0, 1.0, 10)
        y = x**2
        smoother = loess_fit(x, y, span=0.8)
        assert smoother(np.array([5.0]))[0] == smoother(np.array([1.0]))[0]
        assert smoother(np.array([-5.0]))[0] == smoother(np.array([0.0]))[0]

    def test_scalar_and_array_queries_agree(self):
        x = np.linspace(0.0, 1.0, 12)
        y = np.cos(x)
        smoother = loess_fit(x, y, span=0.7)
        grid = np.array([0.1, 0.5])
        assert np.allclose(smoother(grid), [smoother(np.array([g]))[0] for g in grid])

    def test_all_points_identical(self):
        x = np.full(6, 2.0)
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        smoother = loess_fit(x, y, span=0.75)
        assert smoother(np.array([2.0]))[0] == pytest.approx(y.mean())

    def test_smoother_is_frozen(self):
        smoother = loess_fit(np.arange(5.0), np.arange(5.0))
        with pytest.raises(AttributeError):
            smoother.span = 0.5


class TestValidation:
    def test_too_few_points(self):
        x = np.arange(float(MIN_POINTS - 1))
        with pytest.raises(InsufficientDataError):
            loess_fit(x, x)

    def test_span_bounds(self):
        x = np.arange(8.0)
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                loess_fit(x, x, span=bad)

    def test_nonfinite_rejected(self):
        x = np.arange(8.0)
        y = x.copy()
        y[3] = np.nan
        with pytest.raises(DomainError):
            loess_fit(x, y)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            loess_fit(np.arange(8.0), np.arange(7.0))


class TestOneEvaluationPerPoint:
    @pytest.fixture
    def evaluations(self, monkeypatch) -> list:
        """The points at which LoessSmoother._predict_one runs, in order."""
        points = []
        real = LoessSmoother._predict_one

        def spy(self, x0):
            points.append(x0)
            return real(self, x0)

        monkeypatch.setattr(LoessSmoother, "_predict_one", spy)
        return points

    def test_each_distinct_clamped_query_once(self, evaluations):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 3.0, size=30)
        smoother = loess_fit(x, np.cos(x) + rng.normal(0.0, 0.1, size=30), span=0.5)
        # repeats, queries past both ends, and both signed zeros
        queries = np.array([0.5, -0.0, 9.0, 0.5, x[3], 0.0, -7.0, 12.0, x[3], -2.0, 0.5])
        got = smoother(queries)
        clamped = np.clip(queries, x.min(), x.max())
        assert sorted(evaluations) == np.unique(clamped).tolist()
        expected = np.array([LoessSmoother._predict_one(smoother, float(q)) for q in clamped])
        assert got.dtype == float
        assert np.array_equal(got, expected)

    def test_empty_and_scalar_queries(self, evaluations):
        smoother = loess_fit(np.arange(8.0), np.arange(8.0) ** 2)
        empty = smoother(np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,) and empty.dtype == float
        assert evaluations == []
        value = smoother(2.5)
        assert type(value) is float
        assert value == smoother(np.array([2.5]))[0]

    def test_gvf_impute_smooths_zero_counts_once(self, evaluations):
        # no sample sizes: every zero count sits at z = 0 and clamps to the
        # smallest defined z
        from areamix import gvf_impute, log_transform
        from areamix.tabulation import TabulationTable

        est = np.array([0.0, 12.0, 40.0, 0.0, 7.0, 300.0, 0.0, 95.0, 3.0, 0.0])
        se = np.where(est > 0, 0.2 * est + 1.0, 0.0)
        areas = tuple(f"19{i:03d}" for i in range(est.size))
        table = TabulationTable(areas=areas, n_cells=1, estimates=est, std_errors=se)
        filled = gvf_impute(log_transform(table))
        assert len(evaluations) == 1
        assert np.count_nonzero(filled.imputed) == 4
        assert len(set(filled.d[filled.imputed].tolist())) == 1

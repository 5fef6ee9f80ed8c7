import math

import numpy as np
import pytest

from areamix import (
    DegenerateChainError,
    DomainError,
    InsufficientDataError,
    ShapeError,
    batch_means_se,
    diagnostics_report,
    effective_sample_size,
    gelman_rubin,
    geweke,
)


def ar1(n, rho, seed, mean=0.0):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    innov = math.sqrt(1.0 - rho**2)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + innov * rng.standard_normal()
    return x + mean


class TestBatchMeans:
    def test_hand_computed_partition(self):
        # length 10000: 100 batches of 100, nothing dropped
        rng = np.random.default_rng(1)
        x = rng.normal(size=10000)
        means = x.reshape(100, 100).mean(axis=1)
        want = means.std(ddof=1) / math.sqrt(100)
        assert batch_means_se(x) == pytest.approx(want, rel=1e-12)

    def test_remainder_dropped_from_front(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=10007)
        trimmed = x[7:]
        means = trimmed.reshape(100, 100).mean(axis=1)
        want = means.std(ddof=1) / math.sqrt(100)
        assert batch_means_se(x) == pytest.approx(want, rel=1e-12)

    def test_iid_matches_root_n_rate(self):
        x = np.random.default_rng(3).normal(size=100000)
        se = batch_means_se(x)
        assert se == pytest.approx(1.0 / math.sqrt(100000), rel=0.15)

    def test_correlation_inflates_se(self):
        n = 100000
        x = ar1(n, rho=0.9, seed=4)
        naive = x.std(ddof=1) / math.sqrt(n)
        # AR(1) inflation factor sqrt((1+rho)/(1-rho)) = sqrt(19)
        assert 3.0 < batch_means_se(x) / naive < 6.0

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            batch_means_se(np.zeros(99))

    def test_nonfinite(self):
        x = np.zeros(200)
        x[5] = np.inf
        with pytest.raises(DomainError):
            batch_means_se(x)


class TestGeweke:
    def test_stationary_chain_small_z(self):
        x = np.random.default_rng(5).normal(size=20000)
        assert abs(geweke(x)) < 3.0

    def test_drift_detected(self):
        x = np.random.default_rng(6).normal(size=20000)
        x[10000:] += 5.0
        assert abs(geweke(x)) > 5.0

    def test_windows_must_hold_100(self):
        x = np.random.default_rng(8).normal(size=500)
        with pytest.raises(InsufficientDataError):
            geweke(x)  # first window = 50 draws

    def test_degenerate_windows(self):
        with pytest.raises(DegenerateChainError):
            geweke(np.ones(5000))


class TestGelmanRubin:
    def test_hand_computed_two_chains(self):
        # W = 5/3, B/n = 1/2: psrf = sqrt((0.75 * 5/3 + 0.5) / (5/3))
        chains = [np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0, 3.0, 4.0, 5.0])]
        want = math.sqrt((0.75 * (5.0 / 3.0) + 0.5) / (5.0 / 3.0))
        assert gelman_rubin(chains) == pytest.approx(want, rel=1e-12)

    def test_identical_chains_shrink_below_one(self):
        # B = 0 leaves sqrt((n-1)/n)
        chain = np.array([1.0, 2.0, 3.0, 4.0])
        assert gelman_rubin([chain, chain]) == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_same_distribution_near_one(self):
        rng = np.random.default_rng(9)
        chains = [rng.normal(size=5000), rng.normal(size=5000)]
        assert gelman_rubin(chains) == pytest.approx(1.0, abs=0.05)

    def test_separated_chains_large(self):
        rng = np.random.default_rng(10)
        chains = [rng.normal(0.0, 1.0, 4000), rng.normal(10.0, 1.0, 4000)]
        assert gelman_rubin(chains) > 2.0

    def test_constant_chains_degenerate(self):
        with pytest.raises(DegenerateChainError):
            gelman_rubin([np.ones(50), np.ones(50)])

    def test_shape_requirements(self):
        with pytest.raises(ShapeError):
            gelman_rubin([np.ones(50)])
        with pytest.raises(ShapeError):
            gelman_rubin([np.zeros(50), np.zeros(60)])
        with pytest.raises(InsufficientDataError):
            gelman_rubin([np.zeros(1), np.zeros(1)])


class TestEffectiveSampleSize:
    def test_iid_full_length(self):
        x = np.random.default_rng(11).normal(size=40000)
        ess = effective_sample_size(x)
        assert 0.5 * 40000 < ess <= 40000

    def test_correlated_chain_shrinks(self):
        n = 40000
        x = ar1(n, rho=0.9, seed=12)
        ess = effective_sample_size(x)
        # theory: n (1-rho)/(1+rho) = n/19
        assert ess < 0.2 * n
        assert ess > 0.01 * n

    def test_constant_chain_reports_length(self):
        assert effective_sample_size(np.full(500, 2.5)) == 500.0

    def test_capped_at_length(self):
        x = np.tile([1.0, -1.0], 200)  # antithetic: mcse tiny
        assert effective_sample_size(x) == 400.0


class TestReport:
    def test_two_chain_report(self):
        rng = np.random.default_rng(13)
        chains = {"a": [rng.normal(size=1000), rng.normal(size=1000)]}
        report = diagnostics_report(chains)
        entry = report["a"]
        assert entry["n_chains"] == 2
        assert entry["chain_length"] == 1000
        assert len(entry["geweke_z"]) == 2
        assert all(isinstance(v, float) for v in entry["mcse"])
        assert isinstance(entry["psrf"], float)

    def test_single_chain_has_no_psrf(self):
        report = diagnostics_report({"a": [np.random.default_rng(14).normal(size=500)]})
        assert "psrf" not in report["a"]

    def test_short_chain_recorded_as_note(self):
        report = diagnostics_report({"a": [np.arange(150.0)]})
        assert isinstance(report["a"]["geweke_z"][0], str)

    def test_keys_sorted(self):
        rng = np.random.default_rng(15)
        report = diagnostics_report(
            {"b": [rng.normal(size=200)], "a": [rng.normal(size=200)]}
        )
        assert list(report) == ["a", "b"]

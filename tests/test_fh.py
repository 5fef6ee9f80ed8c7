import numpy as np
import pytest

from areamix import AreamixError, DivergenceError, DomainError, FhConfig, fit_fh

from test_msm import joint_gaussian_condition


@pytest.fixture(scope="module")
def toy_data():
    rng = np.random.default_rng(77)
    n = 12
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    z = x @ np.array([1.0, 0.5]) + rng.normal(0.0, 0.4, size=n)
    d = rng.uniform(0.1, 0.6, size=n)
    return z, d, x


class TestFitFh:
    def test_shapes_and_retention(self, toy_data):
        z, d, x = toy_data
        cfg = FhConfig(iterations=60, burn_in=25, thin=5, seed=0)
        fit = fit_fh(z, d, x, cfg)
        # retained iterations: 25, 30, ..., 55
        assert len(fit.y) == 7
        assert fit.beta.shape == (7, 2)
        assert fit.nu.shape == (7, 12)
        assert fit.sigma2.shape == (7,)
        assert fit.y.shape == (7, 12)

    def test_y_consistent_with_draws(self, toy_data):
        z, d, x = toy_data
        fit = fit_fh(z, d, x, FhConfig(iterations=30, burn_in=10, seed=3))
        assert np.allclose(fit.y, fit.beta @ x.T + fit.nu, rtol=1e-12)

    def test_deterministic_in_seed(self, toy_data):
        z, d, x = toy_data
        cfg = FhConfig(iterations=40, burn_in=10, seed=21)
        a = fit_fh(z, d, x, cfg)
        b = fit_fh(z, d, x, cfg)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.sigma2, b.sigma2)

    def test_fixed_variance_not_sampled(self, toy_data):
        z, d, x = toy_data
        fit = fit_fh(z, d, x, FhConfig(iterations=25, burn_in=5, seed=1, sigma2_fixed=0.3))
        assert np.all(fit.sigma2 == 0.3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_input(self, toy_data):
        z, d, x = toy_data
        z = z.copy()
        z[0] = 1e300
        with pytest.raises(DivergenceError):
            fit_fh(z, d, x, FhConfig(iterations=20, burn_in=2, seed=5))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("case", ["repeated_column", "huge_design"])
    def test_beta_precision_without_factor(self, toy_data, case):
        # a repeated column under a flat prior leaves X'D^{-1}X + I/sigma2_beta
        # singular; 1e200-sized entries overflow it to inf: either way a
        # categorised numerical error, which a study records and goes past
        z, d, x = toy_data
        if case == "repeated_column":
            x, cfg = np.column_stack([x, x[:, 0]]), FhConfig(sigma2_beta=1e300)
        else:
            x, cfg = 1e200 * x, FhConfig()
        with pytest.raises(AreamixError) as caught:
            fit_fh(z, d, x, cfg)
        assert caught.value.exit_code == 4

    def test_undefined_variance_rejected(self, toy_data):
        z, d, x = toy_data
        d = d.copy()
        d[2] = np.inf
        with pytest.raises(DomainError):
            fit_fh(z, d, x, FhConfig(iterations=10, burn_in=1))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            FhConfig(iterations=0).validate()
        with pytest.raises(DomainError):
            FhConfig(a_sigma=0.0).validate()
        with pytest.raises(DomainError):
            FhConfig(sigma2_fixed=-0.1).validate()

    def test_posterior_tracks_closed_form(self, toy_data):
        # sigma2 fixed: integrate nu out, so beta | z is Gaussian with
        # covariance (X'(D + sigma2 I)^{-1}X + I/sigma2_beta)^{-1}
        z, d, x = toy_data
        sigma2 = 0.4
        cfg = FhConfig(
            iterations=6000, burn_in=1000, seed=2, sigma2_fixed=sigma2, sigma2_beta=25.0
        )
        fit = fit_fh(z, d, x, cfg)
        prior = 25.0 * np.eye(2)
        want_mean, want_cov = joint_gaussian_condition(prior, x, d + sigma2, z)
        got = fit.beta.mean(axis=0)
        assert np.allclose(got, want_mean, atol=4.0 * np.sqrt(np.diag(want_cov) / 500))

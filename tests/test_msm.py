import mmap

import numpy as np
import pytest
from scipy import stats

from areamix import (
    BaseMeasure,
    DefinitenessError,
    DivergenceError,
    DomainError,
    MoranBasis,
    MsmConfig,
    build_adjacency,
    build_basis,
    build_design,
    draw_inverse_gamma,
    fit_msm,
    msm,
)
from areamix.synthetic import two_field_study

from collapsed_reference import _ClusterStats, cluster_posterior
from conftest import entry_psi


def joint_gaussian_condition(prior_cov, design, noise_var, obs):
    """Posterior of theta ~ N(0, prior_cov) given obs = design theta + noise.

    Derived through the joint normal of (theta, obs) rather than the
    precision-form conditional, so it cross-checks the sampler algebra.
    """
    cross = prior_cov @ design.T
    obs_cov = design @ prior_cov @ design.T + np.diag(noise_var)
    gain = np.linalg.solve(obs_cov, cross.T).T
    mean = gain @ obs
    cov = prior_cov - gain @ cross.T
    return mean, (cov + cov.T) / 2.0


def area_level_inputs():
    """(study, x, basis) of a 4 x 4 grid, 3 cells per area, with the basis
    built from the area adjacency (L = 3)."""
    study = two_field_study(4, 4, 3, seed=2)
    x, _ = build_design(study.truth, study.population)
    basis = build_basis(x, build_adjacency(study.areas, study.edges))
    return study, x, basis


def random_area_inputs(rng, m, cells, p=3, r=4):
    """(z, d, x, basis) of m areas with ``cells`` entries each: an area-level
    basis of orthonormal random area rows, and variances that differ
    within each area."""
    n = m * cells
    area, _ = np.linalg.qr(rng.normal(size=(m, r)))
    basis = MoranBasis(
        area_psi=area / np.sqrt(cells), eigenvalues=np.ones(r),
        k_inv=np.eye(r), n_positive=r, cells=cells,
    )
    x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    return rng.normal(size=n), rng.uniform(0.05, 2.0, size=n), x, basis


def check_component_sums(rng, z, d, x, basis, m_comp=6, partitions=4):
    """``_component_sums`` against ``_ClusterStats``'s row sums, to 1e-12
    relative, on random partitions that leave components 1, 4 and 5 empty."""
    rows = msm._Rows(z, d, x, basis)
    u = np.hstack([x, entry_psi(basis)])
    for _ in range(partitions):
        c = rng.choice([0, 2, 3], size=z.size)
        sums = list(msm._component_sums(rows, c, m_comp))
        assert len(sums) == m_comp
        for m, got in enumerate(sums):
            members = np.flatnonzero(c == m)
            if members.size == 0:
                assert got is None
                continue
            want = _ClusterStats(members, z, d, u)
            f, g = got
            assert np.linalg.norm(f - want.f) <= 1e-12 * np.linalg.norm(want.f)
            assert np.linalg.norm(g - want.g) <= 1e-12 * np.linalg.norm(want.g)


class TestConditionalSigma2Eta:
    def test_shape_and_scale(self):
        eta = np.array([1.0, 2.0])
        k_inv = np.array([[2.0, 0.0], [0.0, 0.5]])
        quad = float(eta @ k_inv @ eta)  # eta' K^{-1} eta = 2 + 2 = 4
        a, b, dof = 0.1, 0.1, eta.size
        for seed in range(5):
            got = draw_inverse_gamma(np.random.default_rng(seed), a, b, dof, quad)
            want = draw_inverse_gamma(np.random.default_rng(seed), a + dof / 2, b + quad / 2)
            assert got == want

    @pytest.mark.parametrize("quad", [np.inf, np.nan])
    def test_non_finite_scale_is_a_divergence(self, quad):
        with pytest.raises(DivergenceError, match=r"scale diverged \(iteration 7\)") as caught:
            draw_inverse_gamma(np.random.default_rng(0), 0.1, 0.1, 2, quad, 7)
        assert caught.value.iteration == 7


class TestDrawInverseGamma:
    def test_distribution(self):
        rng = np.random.default_rng(0)
        shape, scale = 3.0, 2.0
        draws = np.array([draw_inverse_gamma(rng, shape, scale) for _ in range(20000)])
        # everything positive, moments near scale/(shape-1), KS against the law
        assert np.all(draws > 0)
        assert draws.mean() == pytest.approx(scale / (shape - 1.0), rel=0.05)
        ks = stats.kstest(draws, stats.invgamma(shape, scale=scale).cdf)
        assert ks.pvalue > 0.001

    def test_reference_draw(self):
        # mirrors the documented definition: 1 / Gamma(shape, rate=scale)
        a = draw_inverse_gamma(np.random.default_rng(99), 1.1, 2.1)
        b = 1.0 / np.random.default_rng(99).gamma(1.1, 1.0 / 2.1)
        assert a == b


class TestDrawRecorder:
    def test_columns_keep_shape_and_type(self):
        draws = msm.DrawRecorder(MsmConfig(iterations=5, burn_in=1, thin=2))
        for t in draws.keep:
            draws.record(y=np.full(3, float(t)), k=np.int64(t), s=0.5, e=np.empty(0))
        cols = draws.columns
        assert cols["y"].shape == (2, 3) and cols["y"].dtype == float
        assert cols["k"].dtype == np.int64 and cols["s"].dtype == float
        assert cols["e"].shape == (2, 0)
        np.testing.assert_array_equal(cols["y"][:, 0], [1.0, 3.0])

    def test_large_columns_are_mapped(self):
        # a large column lives in a memory map of its own, released with
        # it; a small one comes from the heap
        row = msm._MAPPED_COLUMN_BYTES // 16
        small = msm._draw_column((2, row - 1), np.float64)
        large = msm._draw_column((2, row), np.float64)
        assert small.base is None
        assert large.shape == (2, row) and large.flags.writeable
        base = large
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base.obj, mmap.mmap)


class TestFitMsm:
    def test_shapes_and_retention(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MsmConfig(iterations=50, burn_in=20, thin=3, seed=1)
        log_table = study.truth
        fit = fit_msm(log_table.z, log_table.d, x, basis, cfg)
        # retained iterations: 20, 23, ..., 47
        assert len(fit.y) == 10
        assert fit.beta.shape == (10, x.shape[1])
        assert fit.eta.shape == (10, basis.r)
        assert fit.sigma2_eta.shape == (10,)
        assert fit.y.shape == (10, log_table.n_rows)
        assert fit.seed == 1

    def test_y_consistent_with_draws(self, small_inputs):
        # on an entry-level basis and on an area-level one (L = 3), whose
        # Psi eta is formed on the area rows
        study, x, _, basis = small_inputs
        for study, x, basis in ((study, x, basis), area_level_inputs()):
            cfg = MsmConfig(iterations=30, burn_in=10, seed=4)
            fit = fit_msm(study.truth.z, study.truth.d, x, basis, cfg)
            rebuilt = fit.beta @ x.T + fit.eta @ entry_psi(basis).T
            assert np.allclose(fit.y, rebuilt, rtol=1e-12)

    def test_deterministic_in_seed(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MsmConfig(iterations=40, burn_in=10, seed=9)
        a = fit_msm(study.truth.z, study.truth.d, x, basis, cfg)
        b = fit_msm(study.truth.z, study.truth.d, x, basis, cfg)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.sigma2_eta, b.sigma2_eta)
        c = fit_msm(study.truth.z, study.truth.d, x, basis, MsmConfig(iterations=40, burn_in=10, seed=10))
        assert not np.array_equal(a.y, c.y)

    def test_fixed_variance_not_sampled(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MsmConfig(iterations=30, burn_in=5, seed=2, sigma2_eta_fixed=0.7)
        fit = fit_msm(study.truth.z, study.truth.d, x, basis, cfg)
        assert np.all(fit.sigma2_eta == 0.7)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_iteration(self, small_inputs):
        study, x, _, basis = small_inputs
        z = study.truth.z.copy()
        z[0] = 1e300
        cfg = MsmConfig(iterations=20, burn_in=5, seed=3)
        with pytest.raises(DivergenceError, match="iteration"):
            fit_msm(z, study.truth.d, x, basis, cfg)

    def test_undefined_variances_rejected(self, small_inputs):
        study, x, _, basis = small_inputs
        d = study.truth.d.copy()
        d[3] = np.nan
        with pytest.raises(DomainError, match="impute"):
            fit_msm(study.truth.z, d, x, basis, MsmConfig(iterations=10, burn_in=1))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            MsmConfig(iterations=10, burn_in=10).validate()
        with pytest.raises(DomainError):
            MsmConfig(thin=0).validate()
        with pytest.raises(DomainError):
            MsmConfig(sigma2_beta=-1.0).validate()
        with pytest.raises(DomainError):
            MsmConfig(sigma2_eta_fixed=0.0).validate()

    def test_posterior_tracks_closed_form(self, small_inputs):
        # with sigma2_eta held fixed the joint (beta, eta) posterior is
        # Gaussian; the chain mean should land near it
        study, x, _, basis = small_inputs
        sigma2_eta = 0.5
        cfg = MsmConfig(
            iterations=4000, burn_in=500, seed=8, sigma2_eta_fixed=sigma2_eta,
            sigma2_beta=10.0,
        )
        fit = fit_msm(study.truth.z, study.truth.d, x, basis, cfg)
        p = x.shape[1]
        design = np.hstack([x, entry_psi(basis)])
        prior = np.zeros((design.shape[1], design.shape[1]))
        prior[:p, :p] = 10.0 * np.eye(p)
        prior[p:, p:] = sigma2_eta * np.linalg.inv(basis.k_inv)
        want_mean, _ = joint_gaussian_condition(prior, design, study.truth.d, study.truth.z)
        got_mean = np.concatenate([fit.beta.mean(axis=0), fit.eta.mean(axis=0)])
        assert np.allclose(got_mean, want_mean, atol=0.08)


class TestSharedAtomKernel:
    """msm is the one-cluster case of the mixture.  ``fit_msm`` draws its
    coefficients through a once-per-fit diagonalisation of the atom
    posterior; ``cluster_posterior`` (the mixture's Cholesky path) is its
    oracle."""

    @pytest.mark.parametrize("cells", [1, 2, 3])
    def test_data_precision_sums_per_area(self, cells):
        # F and g summed per area against the row sums of _ClusterStats, with
        # variances that differ within each area
        z, d, x, basis = random_area_inputs(np.random.default_rng(40 + cells), 7, cells)
        one = np.zeros(z.size, dtype=np.intp)
        f, g = next(msm._component_sums(msm._Rows(z, d, x, basis), one, 1))
        rows = _ClusterStats(slice(None), z, d, np.hstack([x, entry_psi(basis)]))
        assert np.linalg.norm(f - rows.f) <= 1e-12 * np.linalg.norm(rows.f)
        assert np.linalg.norm(g - rows.g) <= 1e-12 * np.linalg.norm(rows.g)

    @pytest.mark.parametrize("cells", [1, 2, 3])
    def test_component_sums_match_row_sums(self, cells):
        rng = np.random.default_rng(60 + cells)
        z, d, x, basis = random_area_inputs(rng, 11, cells)
        check_component_sums(rng, z, d, x, basis)

    def test_component_sums_on_entry_level_basis(self, small_inputs):
        # an entry-level basis (L = 1) of a table with 2 cells per area
        study, x, _, basis = small_inputs
        assert basis.cells == 1 and study.n_cells == 2
        rng = np.random.default_rng(64)
        d = study.truth.d * rng.uniform(0.5, 2.0, size=study.truth.n_rows)
        check_component_sums(rng, study.truth.z, d, x, basis)

    @pytest.mark.parametrize("level", ["entry", "area"])
    def test_decomposition_matches_cluster_posterior(self, small_inputs, level):
        if level == "entry":
            study, x, _, basis = small_inputs
        else:
            study, x, basis = area_level_inputs()
            assert basis.cells == 3 and basis.r > 1
        z, d = study.truth.z, study.truth.d
        p = x.shape[1]
        one = np.zeros(z.size, dtype=np.intp)
        f, g = next(msm._component_sums(msm._Rows(z, d, x, basis), one, 1))
        mu, v, t = msm._diagonalise(f, g, BaseMeasure(p, 10.0, 1.0, basis.k_inv))
        assert np.all((mu >= 0.0) & (mu <= 1.0))
        u = np.hstack([x, entry_psi(basis)])
        for sigma2_eta in (1e-4, 1e-2, 1.0, 50.0, 1e4):
            s = msm._pencil_scales(mu, sigma2_eta)
            base = BaseMeasure(p, 10.0, sigma2_eta, basis.k_inv)
            want_mean, want_cov = cluster_posterior(np.arange(z.size), z, d, u, base)
            mean, cov = v @ (s * t), (v * s) @ v.T
            assert np.linalg.norm(mean - want_mean) <= 1e-10 * np.linalg.norm(want_mean)
            assert np.linalg.norm(cov - want_cov) <= 1e-10 * np.linalg.norm(want_cov)

    def test_indefinite_prior_is_a_definiteness_error(self, small_inputs):
        study, x, _, basis = small_inputs
        r = basis.r
        broken = MoranBasis(
            area_psi=basis.area_psi, eigenvalues=basis.eigenvalues, k_inv=-100.0 * np.eye(r),
            n_positive=basis.n_positive,
        )
        with pytest.raises(DefinitenessError) as caught:
            fit_msm(study.truth.z, study.truth.d, x, broken, MsmConfig(iterations=5, burn_in=1))
        assert caught.value.exit_code == 4

    def test_fixed_variance_matches_cluster_posterior(self, small_inputs):
        # the inputs and tolerance of TestFitMsm.test_posterior_tracks_closed_form
        study, x, _, basis = small_inputs
        sigma2_eta = 0.5
        cfg = MsmConfig(
            iterations=4000, burn_in=500, seed=8, sigma2_eta_fixed=sigma2_eta,
            sigma2_beta=10.0,
        )
        z, d = study.truth.z, study.truth.d
        fit = fit_msm(z, d, x, basis, cfg)
        p = x.shape[1]
        base = BaseMeasure(p, 10.0, sigma2_eta, basis.k_inv)
        u = np.hstack([x, entry_psi(basis)])
        want_mean, _ = cluster_posterior(np.arange(z.size), z, d, u, base)
        got_mean = np.concatenate([fit.beta.mean(axis=0), fit.eta.mean(axis=0)])
        assert np.allclose(got_mean, want_mean, atol=0.08)

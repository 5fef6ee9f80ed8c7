import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.linalg import solve_triangular
from scipy.special import betaln, gammaln, logsumexp

from areamix import (
    BaseMeasure,
    DefinitenessError,
    DivergenceError,
    DomainError,
    FhConfig,
    MixtureConfig,
    MoranBasis,
    MsmConfig,
    ShapeError,
    build_adjacency,
    build_basis,
    build_design,
    crp_simulate,
    expand_multivariate,
    fit_fh,
    fit_msm,
    fit_msmm_dp,
    fit_msmm_truncated,
)
from areamix import fh, mixture, msm
from areamix.diagnostics import batch_means_se
from areamix.mixture import canonicalize_labels
from areamix.synthetic import two_field_study

import collapsed_reference
from collapsed_reference import (
    _ClusterStats,
    cluster_posterior,
    crp_assignment_probs,
    fit_collapsed,
    prior_covariance,
    prior_expected_clusters,
    shift_row,
    stick_break,
    update_alpha_escobar_west,
)
from conftest import entry_psi
from test_msm import joint_gaussian_condition, random_area_inputs


@pytest.fixture(scope="module")
def base_measure():
    rng = np.random.default_rng(31)
    r = 2
    m = rng.normal(size=(r, r))
    k = m @ m.T + np.eye(r)
    return BaseMeasure(p=2, sigma2_beta=4.0, sigma2_eta=0.8, k_inv=np.linalg.inv(k))


@pytest.fixture(scope="module")
def cluster_data(base_measure):
    rng = np.random.default_rng(32)
    n = 7
    u = rng.normal(size=(n, base_measure.dim))
    z = rng.normal(size=n)
    d = rng.uniform(0.3, 0.9, size=n)
    return z, d, u


class TestBaseMeasure:
    def test_block_structure(self, base_measure):
        cov = prior_covariance(base_measure)
        prec = base_measure.prior_precision()
        p = base_measure.p
        assert np.allclose(cov[:p, :p], 4.0 * np.eye(p))
        assert np.allclose(cov[p:, p:] @ base_measure.k_inv, 0.8 * np.eye(base_measure.r))
        assert np.allclose(cov[:p, p:], 0.0)
        assert np.allclose(cov @ prec, np.eye(base_measure.dim), atol=1e-10)

    def test_draw_covariance(self):
        # cov = blockdiag(sigma2_beta I, sigma2_eta K) from the factor of K^{-1}
        rng = np.random.default_rng(33)
        m = rng.normal(size=(3, 3))
        k = m @ m.T + np.eye(3)
        base = BaseMeasure(p=2, sigma2_beta=4.0, sigma2_eta=0.8, k_inv=np.linalg.inv(k))
        chol_k_inv = np.linalg.cholesky(base.k_inv)
        draws = np.array([base.draw(rng, chol_k_inv) for _ in range(40000)])
        emp = np.cov(draws.T)
        assert np.allclose(emp[2:, 2:], 0.8 * k, atol=0.12)
        assert np.allclose(emp, prior_covariance(base), atol=0.12)

    def test_draw_deterministic(self, base_measure):
        chol_k_inv = np.linalg.cholesky(base_measure.k_inv)
        a = base_measure.draw(np.random.default_rng(9), chol_k_inv)
        b = base_measure.draw(np.random.default_rng(9), chol_k_inv)
        assert np.array_equal(a, b)


class TestClusterPosterior:
    def test_empty_returns_base(self, base_measure, cluster_data):
        z, d, u = cluster_data
        mean, cov = cluster_posterior(np.array([], dtype=int), z, d, u, base_measure)
        assert np.array_equal(mean, np.zeros(base_measure.dim))
        assert np.array_equal(cov, prior_covariance(base_measure))

    def test_matches_joint_gaussian_route(self, base_measure, cluster_data):
        z, d, u = cluster_data
        members = np.array([0, 2, 5])
        mean, cov = cluster_posterior(members, z, d, u, base_measure)
        want_mean, want_cov = joint_gaussian_condition(
            prior_covariance(base_measure), u[members], d[members], z[members]
        )
        assert np.allclose(mean, want_mean, rtol=1e-9)
        assert np.allclose(cov, want_cov, rtol=1e-9, atol=1e-12)

    def test_wrong_width(self, base_measure, cluster_data):
        z, d, u = cluster_data
        with pytest.raises(Exception):
            cluster_posterior(np.array([0]), z, d, u[:, :2], base_measure)


def marginal_likelihood(z, d, u, members, base):
    """Cluster evidence via the observation-space covariance, independently
    of any posterior computation: z_M ~ N(0, U Sigma0 U' + diag(d_M))."""
    members = np.asarray(members, dtype=int)
    if members.size == 0:
        return 1.0
    rows = u[members]
    cov = rows @ prior_covariance(base) @ rows.T + np.diag(d[members])
    return float(stats.multivariate_normal(mean=np.zeros(members.size), cov=cov).pdf(z[members]))


class TestCrpAssignmentProbs:
    def test_matches_marginal_likelihood_ratios(self, base_measure, cluster_data):
        z, d, u = cluster_data
        assignments = np.array([0, 0, 1, 1, 1, 2, -1])
        labels, probs = crp_assignment_probs(6, assignments.copy(), 0.7, z, d, u, base_measure)
        assert labels == [0, 1, 2]
        assert probs.shape == (4,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

        weights = []
        for label in labels:
            members = np.flatnonzero(assignments == label)
            joined = np.append(members, 6)
            ratio = marginal_likelihood(z, d, u, joined, base_measure) / marginal_likelihood(
                z, d, u, members, base_measure
            )
            weights.append(members.size * ratio)
        weights.append(0.7 * marginal_likelihood(z, d, u, np.array([6]), base_measure))
        expected = np.array(weights) / np.sum(weights)
        assert np.allclose(probs, expected, rtol=1e-9, atol=1e-12)

    def test_requires_held_out_observation(self, base_measure, cluster_data):
        z, d, u = cluster_data
        with pytest.raises(DomainError):
            crp_assignment_probs(3, np.zeros(7, dtype=int), 1.0, z, d, u, base_measure)

    def test_index_out_of_range(self, base_measure, cluster_data):
        z, d, u = cluster_data
        with pytest.raises(DomainError):
            crp_assignment_probs(99, np.full(7, -1), 1.0, z, d, u, base_measure)

    def test_invariant_to_relabelling(self, base_measure, cluster_data):
        z, d, u = cluster_data
        a1 = np.array([0, 0, 1, 1, 1, 2, -1])
        a2 = np.array([7, 7, 3, 3, 3, 11, -1])  # same partition, new names
        _, p1 = crp_assignment_probs(6, a1, 1.3, z, d, u, base_measure)
        labels2, p2 = crp_assignment_probs(6, a2, 1.3, z, d, u, base_measure)
        # sorted labels [3, 7, 11] map to partition blocks {2,3,4}, {0,1}, {5}
        assert labels2 == [3, 7, 11]
        assert p2[0] == pytest.approx(p1[1], rel=1e-12)
        assert p2[1] == pytest.approx(p1[0], rel=1e-12)
        assert p2[2] == pytest.approx(p1[2], rel=1e-12)
        assert p2[3] == pytest.approx(p1[3], rel=1e-12)


class TestAlphaValidation:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_alpha_must_be_finite_and_positive(self, base_measure, cluster_data, alpha):
        z, d, u = cluster_data
        assignments = np.array([0, 0, 1, 1, 1, 2, -1])
        with pytest.raises(DomainError, match="alpha"):
            crp_assignment_probs(6, assignments, alpha, z, d, u, base_measure)


class TestOneAssignmentKernel:
    """The oracle-checked probabilities and the collapsed reference sampler share one kernel."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch) -> list:
        calls: list = []
        real = collapsed_reference._assignment_logw

        def spy(*args, **kwargs):
            calls.append(len(args[3]) - 1)  # the clusters weighed against the empty one
            return real(*args, **kwargs)

        monkeypatch.setattr(collapsed_reference, "_assignment_logw", spy)
        return calls

    def test_crp_assignment_probs_calls_kernel(self, base_measure, cluster_data, kernel_calls):
        z, d, u = cluster_data
        crp_assignment_probs(6, np.array([0, 0, 1, 1, 1, 2, -1]), 1.0, z, d, u, base_measure)
        assert kernel_calls == [3]

    def test_collapsed_sampler_calls_kernel(self, small_inputs, kernel_calls):
        study, x, _, basis = small_inputs
        cfg = MixtureConfig(iterations=3, burn_in=1, seed=4)
        fit_collapsed(study.truth.z, study.truth.d, x, basis, cfg)
        # once per observation per sweep
        assert len(kernel_calls) == 3 * study.truth.n_rows

    def test_collapsed_sampler_weighs_empty_cluster_last(self, small_inputs, monkeypatch):
        # after every birth a fresh empty cluster follows: weight alpha, block [Sigma0; 0']
        study, x, _, basis = small_inputs
        p = x.shape[1]
        last: list = []
        real = collapsed_reference._assignment_logw

        def spy(u_i, z_i, d_i, weights, blocks):
            last.append((weights[-1], blocks[-1].copy()))
            return real(u_i, z_i, d_i, weights, blocks)

        monkeypatch.setattr(collapsed_reference, "_assignment_logw", spy)
        cfg = MixtureConfig(iterations=20, burn_in=1, seed=4, alpha_fixed=0.8)
        fit = fit_collapsed(study.truth.z, study.truth.d, x, basis, cfg)
        assert len(last) == 20 * study.truth.n_rows
        assert fit.n_clusters.max() >= 2  # the chain started from one cluster
        for weight, block in last:
            assert weight == 0.8
            assert np.array_equal(block[-1], np.zeros(block.shape[1]))
            assert np.array_equal(block[:p, :p], cfg.sigma2_beta * np.eye(p))
            assert np.array_equal(block[:p, p:], np.zeros((p, basis.r)))


def _norm_logpdf(x, mean, var):
    return -0.5 * (math.log(2.0 * math.pi) + math.log(var) + (x - mean) ** 2 / var)


def cholesky_assignment_logw(u_i, z_i, d_i, clusters, base, log_alpha):
    """Assignment log-weights with one Cholesky factor per cluster.

    ``clusters`` holds (count, F, g) per cluster; a new cluster is weighed
    by its closed form, u_i' Sigma0 u_i = sigma2_beta |x_i|^2 +
    sigma2_eta psi_i' K psi_i.  This is the reference for the batched
    kernel ``_assignment_logw`` over ``_cluster_blocks`` in the collapsed
    reference.
    """
    prec0 = base.prior_precision()
    x_i, psi_i = u_i[: base.p], u_i[base.p :]
    k_psi_i = np.linalg.solve(base.k_inv, psi_i)
    new_var = base.sigma2_beta * x_i @ x_i + base.sigma2_eta * psi_i @ k_psi_i + d_i
    logw = np.empty(len(clusters) + 1)
    for pos, (count, f, g) in enumerate(clusters):
        chol = np.linalg.cholesky(prec0 + f)
        mean = solve_triangular(chol.T, solve_triangular(chol, g, lower=True), lower=False)
        w = solve_triangular(chol, u_i, lower=True)
        var = float(w @ w) + d_i
        mu = float(u_i @ mean)
        logw[pos] = math.log(count) + _norm_logpdf(z_i, mu, var)
    logw[-1] = log_alpha + _norm_logpdf(z_i, 0.0, new_var)
    return logw


def member_sums(members, z, d, u):
    """(count, F, g) of one cluster, summed row by row."""
    q = u.shape[1]
    f, g = np.zeros((q, q)), np.zeros(q)
    for i in members:
        f += np.outer(u[i], u[i]) / d[i]
        g += u[i] * z[i] / d[i]
    return len(members), f, g


def random_base(rng, p, r, sigma2_beta=100.0):
    half = rng.normal(size=(r, r))
    k = half @ half.T + r * np.eye(r)
    return BaseMeasure(
        p=p, sigma2_beta=sigma2_beta, sigma2_eta=float(rng.uniform(0.3, 2.0)),
        k_inv=np.linalg.inv(k),
    )


def blocks_from_members(partition, z, d, u, prec0):
    """Counts and [S; m'] blocks of each member set, by dense solves."""
    counts, blocks = [], []
    for members in partition:
        count, f, g = member_sums(members, z, d, u)
        prec = prec0 + f
        cov = np.linalg.inv(prec)
        counts.append(count)
        blocks.append(np.vstack([cov, np.linalg.solve(prec, g)]))
    return np.array(counts), np.array(blocks)


class TestBatchedKernel:
    def test_matches_cholesky_loop(self):
        rng = np.random.default_rng(61)
        worst = 0.0
        for _ in range(200):
            p, r = int(rng.integers(1, 4)), int(rng.integers(0, 5))
            n = int(rng.integers(1, 40))
            base = random_base(rng, p, r, sigma2_beta=float(rng.choice([1.0, 100.0])))
            u = rng.normal(size=(n, p + r))
            z = rng.normal(scale=3.0, size=n)
            d = rng.uniform(0.05, 1.5, size=n)
            held_out = int(rng.integers(n))
            labels = rng.integers(0, int(rng.integers(1, 6)), size=n)
            partition = [
                [i for i in np.flatnonzero(labels == c) if i != held_out]
                for c in np.unique(labels)
            ]
            partition = [members for members in partition if members]
            alpha = float(rng.uniform(0.1, 3.0))
            want = cholesky_assignment_logw(
                u[held_out], z[held_out], d[held_out],
                [member_sums(members, z, d, u) for members in partition], base, math.log(alpha),
            )
            stats = [_ClusterStats(np.array(m), z, d, u) for m in partition]
            weights, blocks = collapsed_reference._cluster_blocks(stats, base, alpha)
            got, _, _ = collapsed_reference._assignment_logw(
                u[held_out], z[held_out], d[held_out], weights, blocks
            )
            assert got.shape == want.shape
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-12

    def test_rank_one_moves_do_not_drift(self):
        # a long random walk of single rows between clusters, kept by
        # rank-one steps only, must match a rebuild from the member rows
        rng = np.random.default_rng(62)
        p, r, n, k = 3, 4, 60, 4
        base = random_base(rng, p, r)
        u = rng.normal(size=(n, p + r))
        z = rng.normal(scale=3.0, size=n)
        d = rng.uniform(0.05, 1.5, size=n)
        prec0 = base.prior_precision()
        labels = np.arange(n) % k
        stats = [_ClusterStats(np.flatnonzero(labels == c), z, d, u) for c in range(k)]
        weights, blocks = collapsed_reference._cluster_blocks(stats, base, 1.0)
        counts = weights[:-1]  # a view: the moves below update the weights
        for _ in range(20000):
            i = int(rng.integers(n))
            old, new = labels[i], int(rng.integers(k))
            if counts[old] == 1 or new == old:
                continue
            su = blocks[old] @ u[i]
            shift_row(blocks[old], su, z[i], d[i] - su[:-1] @ u[i])
            su = blocks[new] @ u[i]
            shift_row(blocks[new], su, z[i], -(su[:-1] @ u[i] + d[i]))
            counts[old] -= 1
            counts[new] += 1
            labels[i] = new
        partition = [np.flatnonzero(labels == c) for c in range(k)]
        want_counts, want = blocks_from_members(partition, z, d, u, prec0)
        assert np.array_equal(counts, want_counts)
        assert np.max(np.abs(blocks[:-1] - want)) < 1e-9
        # the empty cluster's block is the base measure and was never moved
        assert np.array_equal(blocks[-1, :-1], prior_covariance(base))
        assert np.array_equal(blocks[-1, -1], np.zeros(p + r))


def scipy_gaussian_draw(rng, chol, g):
    """msm._gaussian_draw through scipy's solve_triangular: its test oracle."""
    half = solve_triangular(chol, g, lower=True, check_finite=False)
    half += rng.standard_normal(g.size)
    return solve_triangular(chol.T, half, lower=False, check_finite=False)


class TestAtomDraw:
    def test_matches_cluster_posterior(self, base_measure, cluster_data):
        # one draw is the posterior mean plus chol'^{-1} e, chol the Cholesky
        # factor of the posterior precision and e the seed's normals
        z, d, u = cluster_data
        members = np.array([0, 2, 3, 5, 6])
        mean, cov = cluster_posterior(members, z, d, u, base_measure)
        chol = np.linalg.cholesky(np.linalg.inv(cov))
        e = np.random.default_rng(71).standard_normal(base_measure.dim)
        want = mean + solve_triangular(chol.T, e, lower=False)
        st = _ClusterStats(members, z, d, u)
        chol_post, _ = st.posterior(base_measure.prior_precision())
        got = msm._gaussian_draw(np.random.default_rng(71), chol_post, st.g)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_is_mean_plus_back_substituted_normals(self):
        # C'^{-1}(C^{-1} g + e) against the mean C'^{-1} C^{-1} g plus
        # C'^{-1} e from the same normals: one draw, however it is split
        rng = np.random.default_rng(72)
        for q in (1, 3, 8, 20):
            a = rng.normal(size=(q, q))
            chol = np.linalg.cholesky(a @ a.T + q * np.eye(q))
            g = rng.normal(scale=5.0, size=q)
            mean = solve_triangular(chol.T, solve_triangular(chol, g, lower=True), lower=False)
            e = np.random.default_rng(q).standard_normal(q)
            want = mean + solve_triangular(chol.T, e, lower=False)
            got = msm._gaussian_draw(np.random.default_rng(q), chol, g)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("q", [1, 3, 8, 20, 167])
    def test_bit_identical_to_scipy_solves(self, q):
        # the direct LAPACK calls make the same solves as scipy's wrapper does
        # for numpy's C-ordered factor, so the draw keeps every bit
        rng = np.random.default_rng(73 + q)
        a = rng.normal(size=(q, q))
        chol = np.linalg.cholesky(a @ a.T + q * np.eye(q))
        g = rng.normal(scale=5.0, size=q)
        want = scipy_gaussian_draw(np.random.default_rng(q), chol, g)
        got = msm._gaussian_draw(np.random.default_rng(q), chol, g)
        assert np.array_equal(got, want)

    def test_zero_on_the_factor_diagonal_raises(self):
        chol = np.linalg.cholesky(np.diag([4.0, 1.0, 9.0]))
        chol[1, 1] = 0.0
        with pytest.raises(DefinitenessError):
            msm._gaussian_draw(np.random.default_rng(0), chol, np.ones(3))

    @pytest.mark.parametrize(
        "module, fit",
        [(mixture, fit_msmm_truncated), (mixture, fit_msmm_dp), (fh, fit_fh)],
        ids=["truncated", "dp", "fh"],
    )
    def test_samplers_match_the_scipy_oracle(self, small_inputs, monkeypatch, module, fit):
        # every sampler that draws through _gaussian_draw gives the same chain
        # when the scipy form is bound in its place
        study, x, _, basis = small_inputs
        args = (study.truth.z, study.truth.d, x) + ((basis,) if module is mixture else ())
        config = (MixtureConfig if module is mixture else FhConfig)(
            iterations=40, burn_in=10, seed=9
        )
        want = fit(*args, config)
        calls = []

        def oracle(*draw_args):
            calls.append(1)
            return scipy_gaussian_draw(*draw_args)

        monkeypatch.setattr(module, "_gaussian_draw", oracle)
        got = fit(*args, config)
        assert calls
        for field in fields(want):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name

    @pytest.mark.parametrize("fit", [fit_msmm_truncated, fit_msmm_dp], ids=["truncated", "dp"])
    @pytest.mark.parametrize("diagonal", [-100.0, np.inf], ids=["indefinite", "infinite"])
    def test_indefinite_prior_is_a_definiteness_error(self, small_inputs, fit, diagonal):
        # K^{-1} = -100 I has no Cholesky factor, and K^{-1} = inf I no finite
        # one: the fit fails at set-up, where it factors K^{-1}
        study, x, _, basis = small_inputs
        broken = replace(basis, k_inv=np.diag(np.full(basis.r, diagonal)))
        cfg = MixtureConfig(iterations=5, burn_in=1)
        with pytest.raises(DefinitenessError, match=r"basis precision K\^\{-1\}") as caught:
            fit(study.truth.z, study.truth.d, x, broken, cfg)
        assert caught.value.exit_code == 4


TILES = 40000  # copies of each row drawn by one _assign call


@pytest.fixture(scope="module")
def assign_inputs():
    """(z, d, u, theta) of n = 3 rows and M = 4 components, with each row's
    components close enough to z_i that every pick is plausible."""
    rng = np.random.default_rng(81)
    u = rng.normal(size=(3, 3))
    theta = rng.normal(scale=0.4, size=(4, 3))
    z = u @ theta[0] + rng.normal(scale=0.3, size=3)
    d = rng.uniform(0.3, 0.8, size=3)
    return z, d, u, theta


def spread(a, cells=1):
    """The n rows of ``a`` drawn TILES times, in row order: TILES copies of
    the table (cells = 1) or each row TILES times running (cells = TILES)."""
    if cells == 1:
        return np.tile(a, (TILES,) + (1,) * (a.ndim - 1))
    return np.repeat(a, TILES, axis=0)


def run_assign(seed, z, d, u, theta, log_prior, cells=1):
    """Picks, in row order, of one ``_assign`` call over the rows of (z, d, u)
    ``spread`` TILES times, with u = [x, psi] and one column of x.  At
    cells = TILES each row is an area of TILES entries, so the psi part of
    its means is formed on the area rows and repeated."""
    # the area rows: the table's TILES copies (cells = 1) or its rows once
    area_psi = spread(u[:, 1:]) if cells == 1 else u[:, 1:]
    r = area_psi.shape[1]
    basis = MoranBasis(
        area_psi=area_psi, eigenvalues=np.ones(r), k_inv=np.eye(r),
        n_positive=r, tolerance=1e-10, cells=cells,
    )
    rows = mixture._Rows(spread(z, cells), spread(d, cells), spread(u[:, :1], cells), basis)
    return mixture._assign(np.random.default_rng(seed), rows, theta, log_prior)


def pick_probs(z, d, u, theta, log_prior):
    """(n, M) probabilities exp(log_prior + log N(z_i; u_i' theta_m, d_i)), normalised per row."""
    logw = log_prior + stats.norm.logpdf(z[:, None], loc=u @ theta.T, scale=np.sqrt(d)[:, None])
    return np.exp(logw - logsumexp(logw, axis=1, keepdims=True))


class TestAssign:
    """The assignment step both samplers run, against its categorical law."""

    def check_frequencies(self, picks, want):
        freq = np.stack([np.mean(picks == m, axis=0) for m in range(want.shape[1])], axis=1)
        # the tiles are independent draws: MCSE = sqrt(p (1 - p) / TILES)
        mcse = np.sqrt(want * (1.0 - want) / TILES)
        admitted = want > 0
        assert np.all(freq[~admitted] == 0.0)
        assert np.all(np.abs(freq - want)[admitted] < 4.0 * mcse[admitted])

    def test_truncated_prior_frequencies(self, assign_inputs):
        z, d, u, theta = assign_inputs
        log_prior = np.log(stick_break([0.4, 0.3, 0.5]))
        want = pick_probs(z, d, u, theta, log_prior)
        assert want.min() > 0.01  # every entry of the law is tested
        picks = run_assign(82, z, d, u, theta, log_prior)
        self.check_frequencies(picks.reshape(TILES, z.size), want)

    def test_slice_mask_frequencies(self, assign_inputs):
        z, d, u, theta = assign_inputs
        mask = np.array([[0.0, -np.inf, 0.0, 0.0], [-np.inf, 0.0, -np.inf, 0.0], [0.0] * 4])
        want = pick_probs(z, d, u, theta, mask)
        picks = run_assign(83, z, d, u, theta, spread(mask))
        self.check_frequencies(picks.reshape(TILES, z.size), want)

    def test_slice_mask_never_picks_masked(self, assign_inputs):
        z, d, u, theta = assign_inputs
        rng = np.random.default_rng(84)
        rows, m_comp = TILES * z.size, theta.shape[0]
        admitted = rng.random((rows, m_comp)) < 0.4
        admitted[np.arange(rows), rng.integers(m_comp, size=rows)] = True  # each row admits one
        picks = run_assign(85, z, d, u, theta, np.where(admitted, 0.0, -np.inf))
        assert np.all(admitted[np.arange(rows), picks])

    def test_area_rows_frequencies(self, assign_inputs):
        # each row an area of TILES entries: the truncated prior and the
        # slice mask through the area-row means
        z, d, u, theta = assign_inputs
        mask = np.array([[0.0, -np.inf, 0.0, 0.0], [-np.inf, 0.0, -np.inf, 0.0], [0.0] * 4])
        for seed, log_prior, per_row in (
            (86, np.log(stick_break([0.4, 0.3, 0.5])), None),
            (87, mask, spread(mask, TILES)),
        ):
            want = pick_probs(z, d, u, theta, log_prior)
            given = log_prior if per_row is None else per_row
            picks = run_assign(seed, z, d, u, theta, given, cells=TILES)
            self.check_frequencies(picks.reshape(z.size, TILES).T, want)

    @pytest.mark.parametrize("fit", [fit_msmm_truncated, fit_msmm_dp], ids=["truncated", "dp"])
    def test_called_once_per_sweep(self, small_inputs, monkeypatch, fit):
        study, x, _, basis = small_inputs
        events: list = []
        real_assign, real_atoms = mixture._assign, mixture._draw_atoms

        def assign_spy(*args):
            events.append("assign")
            return real_assign(*args)

        def atoms_spy(rng, stats, base, chol_k_inv, config, t):
            events.append(t)
            return real_atoms(rng, stats, base, chol_k_inv, config, t)

        monkeypatch.setattr(mixture, "_assign", assign_spy)
        monkeypatch.setattr(mixture, "_draw_atoms", atoms_spy)
        fit(study.truth.z, study.truth.d, x, basis, MixtureConfig(iterations=12, burn_in=2, seed=6))
        assert events == [e for t in range(12) for e in ("assign", t)]


@pytest.mark.parametrize(
    "fit", [fit_msm, fit_msmm_truncated, fit_msmm_dp], ids=["msm", "truncated", "dp"]
)
def test_wrong_size_kernel_is_a_shape_error(small_inputs, fit):
    study, x, _, basis = small_inputs
    with pytest.raises(ShapeError, match="basis k_inv must be"):
        fit(study.truth.z, study.truth.d, x, replace(basis, k_inv=np.eye(basis.r + 1)))


@pytest.mark.parametrize("cells", [1, 3])
def test_y_formed_on_area_rows(cells):
    # the recorded y_i = u_i' theta_{c_i}, with its psi part formed on the
    # area rows
    rng = np.random.default_rng(90 + cells)
    z, d, x, basis = random_area_inputs(rng, 6, cells)
    theta = rng.normal(size=(4, x.shape[1] + basis.r))
    c = rng.integers(4, size=z.size)
    draws = mixture.DrawRecorder(MixtureConfig(iterations=1, burn_in=0))
    mixture._record(draws, 0, mixture._Rows(z, d, x, basis), theta, c, 1.0, 1.0, 4)
    want = np.einsum("ij,ij->i", np.hstack([x, entry_psi(basis)]), theta[c])
    assert np.linalg.norm(draws.columns["y"][0] - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fit", [fit_msmm_truncated, fit_msmm_dp], ids=["truncated", "dp"])
def test_y_checked_on_retained_sweeps(small_inputs, monkeypatch, fit):
    # finite atoms whose u theta overflows: only the first retained sweep
    # forms y, so that is where the divergence is caught
    study, x, _, basis = small_inputs
    real = mixture._draw_atoms

    def huge_atoms(*args):
        theta, occupied, sigma2_eta = real(*args)
        return np.full_like(theta, 1e308), occupied, sigma2_eta

    monkeypatch.setattr(mixture, "_draw_atoms", huge_atoms)
    cfg = MixtureConfig(iterations=10, burn_in=4, seed=1)
    with pytest.raises(DivergenceError) as caught:
        fit(study.truth.z, study.truth.d, x, basis, cfg)
    assert caught.value.iteration == cfg.burn_in


def ew_chain(k, n, a, b, steps, seed, alpha0=1.0):
    rng = np.random.default_rng(seed)
    alpha = alpha0
    out = np.empty(steps)
    for t in range(steps):
        alpha = update_alpha_escobar_west(alpha, k, n, a, b, rng)
        out[t] = alpha
    return out


def ew_target_moments(k, n, a, b):
    """Mean and variance of the stationary law by numerical integration:
    p(alpha) proportional to Gamma(alpha; a, b) alpha^k B(alpha, n)."""
    grid = np.linspace(1e-8, 40.0, 400001)
    logpdf = (
        (a - 1.0) * np.log(grid)
        - b * grid
        + k * np.log(grid)
        + betaln(grid, float(n))
    )
    logpdf -= logpdf.max()
    pdf = np.exp(logpdf)
    mass = integrate.trapezoid(pdf, grid)
    mean = integrate.trapezoid(grid * pdf, grid) / mass
    second = integrate.trapezoid(grid**2 * pdf, grid) / mass
    return mean, second - mean**2


class TestEscobarWest:
    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            update_alpha_escobar_west(1.0, 0, 10, 1.0, 4.0, rng)
        with pytest.raises(DomainError):
            update_alpha_escobar_west(-1.0, 2, 10, 1.0, 4.0, rng)
        with pytest.raises(DomainError):
            update_alpha_escobar_west(1.0, 2, 10, 0.0, 4.0, rng)

    def test_deterministic(self):
        a = update_alpha_escobar_west(1.0, 3, 20, 1.0, 4.0, np.random.default_rng(5))
        b = update_alpha_escobar_west(1.0, 3, 20, 1.0, 4.0, np.random.default_rng(5))
        assert a == b

    def test_recovers_prior_at_single_observation(self):
        # k = 1, n = 1: the partition carries no information, so the
        # stationary law is exactly the Gamma(a, b) prior
        chain = ew_chain(k=1, n=1, a=2.0, b=3.0, steps=40000, seed=8)
        assert chain.mean() == pytest.approx(2.0 / 3.0, rel=0.03)
        assert chain.var() == pytest.approx(2.0 / 9.0, rel=0.08)

    def test_matches_quadrature_target(self):
        k, n, a, b = 6, 80, 1.0, 4.0
        chain = ew_chain(k, n, a, b, steps=60000, seed=21)
        mean, var = ew_target_moments(k, n, a, b)
        assert chain.mean() == pytest.approx(mean, rel=0.02)
        assert chain.var() == pytest.approx(var, rel=0.10)


class TestStickBreak:
    def test_two_fractions(self):
        assert np.allclose(stick_break([0.5, 0.5]), [0.5, 0.25, 0.25])

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0.01, 0.99, size=24)
        pi = stick_break(v)
        assert pi.shape == (25,)
        assert pi.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(pi > 0)


class TestCrpLaw:
    def test_expected_clusters_small(self):
        # alpha = 1, n = 3: 1 + 1/2 + 1/3
        assert prior_expected_clusters(1.0, 3) == pytest.approx(11.0 / 6.0, rel=1e-12)

    def test_expected_clusters_log_growth(self):
        value = prior_expected_clusters(1.0, 1000)
        assert value == pytest.approx(7.4855, abs=5e-4)
        assert abs(value - math.log(1000.0)) / value < 0.10

    def test_simulate_deterministic(self):
        a = crp_simulate(1.0, 30, np.random.default_rng(4))
        b = crp_simulate(1.0, 30, np.random.default_rng(4))
        assert np.array_equal(a, b)

    def test_simulate_labels_are_canonical(self):
        labels = crp_simulate(2.0, 50, np.random.default_rng(7))
        assert np.array_equal(labels, canonicalize_labels(labels))

    def test_simulate_limits(self):
        rng = np.random.default_rng(11)
        assert np.array_equal(crp_simulate(1.0, 1, rng), [0])
        lone = crp_simulate(1e-12, 40, rng)
        assert np.all(lone == 0)
        crowded = crp_simulate(1e12, 40, rng)
        assert len(set(crowded.tolist())) == 40
        assert np.array_equal(crp_simulate(math.inf, 6, rng), np.arange(6))

    @pytest.mark.parametrize(
        "alpha, n", [(0.0, 6), (-1.0, 6), (math.nan, 6), (1.0, 0)],
        ids=["alpha 0", "alpha -1", "alpha nan", "n 0"],
    )
    def test_simulate_rejects_bad_arguments(self, alpha, n):
        with pytest.raises(DomainError):
            crp_simulate(alpha, n, np.random.default_rng(0))

    def test_simulated_moments_match_law(self):
        alpha, n = 1.3, 40
        rng = np.random.default_rng(19)
        ks = np.array(
            [len(set(crp_simulate(alpha, n, rng).tolist())) for _ in range(4000)]
        )
        want_mean = prior_expected_clusters(alpha, n)
        probs = alpha / (alpha + np.arange(n))
        want_var = float(np.sum(probs * (1.0 - probs)))
        assert ks.mean() == pytest.approx(want_mean, rel=0.03)
        assert ks.var() == pytest.approx(want_var, rel=0.15)


def first_appearance_labels(labels) -> np.ndarray:
    """Relabel 0, 1, 2, ... in order of first appearance, one label at a time."""
    seen: dict[int, int] = {}
    out = np.empty(len(labels), dtype=np.int32)
    for idx, lab in enumerate(labels):
        out[idx] = seen.setdefault(int(lab), len(seen))
    return out


class TestCanonicalizeLabels:
    def test_matches_first_appearance_loop(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(0, 60))
            labels = rng.integers(-3, int(rng.integers(1, 30)), size=n)
            got = canonicalize_labels(labels)
            assert got.dtype == np.int32
            assert np.array_equal(got, first_appearance_labels(labels))

    def test_first_appearance_order(self):
        got = canonicalize_labels([2, 2, 0, 5, 0])
        assert np.array_equal(got, [0, 0, 1, 2, 1])
        assert got.dtype == np.int32

    def test_idempotent(self):
        labels = np.array([3, 1, 1, 0, 3])
        once = canonicalize_labels(labels)
        assert np.array_equal(canonicalize_labels(once), once)


class TestMixtureConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            MixtureConfig(truncation_m=1).validate()
        with pytest.raises(DomainError):
            MixtureConfig(a_alpha=0.0).validate()
        with pytest.raises(DomainError):
            MixtureConfig(alpha_fixed=-2.0).validate()
        MixtureConfig().validate()


@pytest.fixture(scope="module")
def blank_inputs(small_inputs):
    """(z, d, x, basis) of the 18-entry grid with inputs that carry no
    information: a zero (n, 1) design and a zero (n, 1) basis with K = I.

    Every u_i is 0, so every candidate predicts N(z_i; 0, d_i), the
    assignment weights are the prior's, and every fitted y is exactly 0.
    """
    study = small_inputs[0]
    n = study.truth.n_rows
    basis = MoranBasis(
        area_psi=np.zeros((n, 1)), eigenvalues=np.ones(1), k_inv=np.eye(1),
        n_positive=1, tolerance=1e-10,
    )
    return study.truth.z, study.truth.d, np.zeros((n, 1)), basis


def _canonical_rows(assignments):
    for row in assignments:
        if not np.array_equal(row, canonicalize_labels(row)):
            return False
    return True


class TestFitDp:
    def test_shapes_and_retention(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MixtureConfig(iterations=40, burn_in=10, thin=2, seed=3)
        fit = fit_msmm_dp(study.truth.z, study.truth.d, x, basis, cfg)
        assert fit.n_retained == 15
        n = study.truth.n_rows
        assert fit.y.shape == (15, n)
        assert fit.assignments.shape == (15, n)
        assert fit.assignments.dtype == np.int32
        assert np.all(fit.alpha > 0)
        assert np.all(fit.sigma2_eta > 0)

    def test_assignments_canonical_and_counted(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MixtureConfig(iterations=30, burn_in=10, seed=5)
        fit = fit_msmm_dp(study.truth.z, study.truth.d, x, basis, cfg)
        assert _canonical_rows(fit.assignments)
        assert np.array_equal(fit.n_clusters, fit.assignments.max(axis=1) + 1)

    def test_deterministic_in_seed(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MixtureConfig(iterations=25, burn_in=5, seed=12)
        a = fit_msmm_dp(study.truth.z, study.truth.d, x, basis, cfg)
        b = fit_msmm_dp(study.truth.z, study.truth.d, x, basis, cfg)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.alpha, b.alpha)

    def test_alpha_fixed(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MixtureConfig(iterations=25, burn_in=5, seed=2, alpha_fixed=0.9)
        fit = fit_msmm_dp(study.truth.z, study.truth.d, x, basis, cfg)
        assert np.all(fit.alpha == 0.9)

    def test_prior_only_recovers_crp_law(self, blank_inputs):
        # with data that carry no information the sweep is a Gibbs scan
        # over the seating prior, so cluster counts must match the CRP law
        z, d, x, basis = blank_inputs
        cfg = MixtureConfig(iterations=4000, burn_in=500, seed=6, alpha_fixed=1.0)
        fit = fit_msmm_dp(z, d, x, basis, cfg)
        want = prior_expected_clusters(1.0, z.size)
        assert fit.n_clusters.mean() == pytest.approx(want, abs=0.25)
        assert np.all(fit.y == 0.0)

    def test_prior_only_alpha_marginal_is_prior(self, blank_inputs):
        # alpha against a prior-law partition integrates back to Gamma(a, b)
        z, d, x, basis = blank_inputs
        cfg = MixtureConfig(
            iterations=8000, burn_in=1000, seed=7, a_alpha=1.0, b_alpha=4.0
        )
        fit = fit_msmm_dp(z, d, x, basis, cfg)
        assert abs(fit.alpha.mean() - 0.25) < 3.0 * batch_means_se(fit.alpha)

    def test_finds_structure_in_two_field_truth(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MixtureConfig(iterations=300, burn_in=100, seed=1)
        fit = fit_msmm_dp(study.truth.z, study.truth.d, x, basis, cfg)
        assert np.median(fit.n_clusters) >= 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_input(self, small_inputs):
        study, x, _, basis = small_inputs
        z = study.truth.z.copy()
        z[:] = 1e200
        cfg = MixtureConfig(iterations=10, burn_in=1, seed=1)
        with pytest.raises((DivergenceError, FloatingPointError)):
            fit_msmm_dp(z, study.truth.d, x, basis, cfg)

    def test_not_truncated(self, blank_inputs):
        # truncation_m binds the truncated sampler only: under a large
        # concentration the slices admit as many components as the prior asks for
        z, d, x, basis = blank_inputs
        cfg = MixtureConfig(iterations=60, burn_in=10, seed=8, alpha_fixed=20.0, truncation_m=2)
        fit = fit_msmm_dp(z, d, x, basis, cfg)
        assert fit.n_clusters.min() > 2
        want = prior_expected_clusters(20.0, z.size)
        assert fit.n_clusters.mean() == pytest.approx(want, abs=2.0)


class TestMsmOnBlankInputs:
    def test_fits_zero(self, blank_inputs):
        # msm, the one-cluster case, runs on the same inputs: u = 0 makes
        # every fitted y exactly 0 whatever the coefficients drawn
        z, d, x, basis = blank_inputs
        fit = fit_msm(z, d, x, basis, MsmConfig(iterations=40, burn_in=10, seed=3))
        assert fit.n_retained == 30
        assert np.all(fit.y == 0.0)
        assert np.all(np.isfinite(fit.beta)) and np.all(np.isfinite(fit.eta))


class TestSwitchLabels:
    def test_keeps_the_labelling_law(self):
        # sticks given the labels, then the label moves, over and over on a
        # two-block partition: each labelling must turn up as often as the
        # prior weighs it, P(c) = prod_j B(1 + n_j, alpha + n_{>j}) / B(1, alpha)
        # over the components up to the last occupied one, divided by the
        # partition's probability alpha^2 Gamma(alpha) Gamma(a) Gamma(b) / Gamma(alpha + a + b)
        a, b, alpha = 5, 2, 0.7
        rng = np.random.default_rng(71)
        c = np.array([0] * a + [1] * b)
        first = np.empty(20000)
        for t in range(first.size):
            sticks = mixture._draw_sticks(rng, np.bincount(c, minlength=c.max() + 2), alpha)
            c, sticks = mixture._switch_labels(rng, c, sticks, alpha)
            assert sticks.shape == (2, c.max() + 1)
            first[t] = c[0] == 0 and c[-1] == 1  # the a-block first, the b-block second

        def log_weight(counts):
            tails = np.cumsum(counts[::-1])[::-1]
            tails = np.append(tails[1:], 0)
            return float(np.sum(betaln(1 + counts, alpha + tails) - betaln(1, alpha)))

        log_partition = (
            2 * math.log(alpha) + gammaln(alpha) + gammaln(a) + gammaln(b) - gammaln(alpha + a + b)
        )
        want = math.exp(log_weight(np.array([a, b])) - log_partition)
        assert abs(first.mean() - want) < 4.0 * batch_means_se(first)


class TestEmptyAtoms:
    @pytest.mark.parametrize("fit", [fit_msmm_truncated, fit_msmm_dp], ids=["truncated", "dp"])
    def test_drawn_under_the_sweeps_sigma2_eta(self, small_inputs, monkeypatch, fit):
        # the atom step draws the occupied atoms, then sigma2_eta, then the
        # empty components' atoms from the base measure under that new
        # sigma2_eta: the one the chain records for the same sweep
        study, x, _, basis = small_inputs
        sweep, used = [None], []
        draw_atoms, base_draw = mixture._draw_atoms, BaseMeasure.draw

        def atoms_spy(rng, stats, base, chol_k_inv, config, t):
            sweep[0] = t
            try:
                return draw_atoms(rng, stats, base, chol_k_inv, config, t)
            finally:
                sweep[0] = None

        def draw_spy(self, rng, chol_k_inv):
            if sweep[0] is not None:
                used.append((sweep[0], self.sigma2_eta))
            return base_draw(self, rng, chol_k_inv)

        monkeypatch.setattr(mixture, "_draw_atoms", atoms_spy)
        monkeypatch.setattr(BaseMeasure, "draw", draw_spy)
        cfg = MixtureConfig(iterations=150, burn_in=0, seed=5)
        chain = fit(study.truth.z, study.truth.d, x, basis, cfg)
        assert used  # some sweeps had empty components
        for t, sigma2_eta in used:
            assert sigma2_eta == chain.sigma2_eta[t]


def _mcse_gap(a, b) -> float:
    """|mean(a) - mean(b)| over the two chains' joint batch-means standard error."""
    se = math.hypot(batch_means_se(a), batch_means_se(b))
    diff = abs(float(np.mean(a)) - float(np.mean(b)))
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


@pytest.fixture(scope="module", params=[3, 4], ids=["side3", "side4"])
def two_chains(request):
    """Slice and collapsed-reference fits of one two-field grid, alpha free."""
    study = two_field_study(request.param, request.param, 2, seed=0)
    x, _ = build_design(study.truth, study.population)
    a = expand_multivariate(build_adjacency(study.areas, study.edges), study.n_cells)
    basis = build_basis(x, a)
    z, d = study.truth.z, study.truth.d
    cfg = MixtureConfig(iterations=2500, burn_in=500, seed=21)
    return fit_msmm_dp(z, d, x, basis, cfg), fit_collapsed(z, d, x, basis, replace(cfg, seed=22))


class TestSliceMatchesCollapsed:
    """The slice sampler and the collapsed reference share no sweep code and
    target one posterior, so their estimates agree within Monte Carlo error.

    As in acceptance 01, a gap is an error over its batch-means standard
    error; four of them allow for the several dozen estimates compared.
    """

    def test_posterior_means_of_y_and_alpha(self, two_chains):
        sliced, collapsed = two_chains
        gaps = [_mcse_gap(sliced.y[:, j], collapsed.y[:, j]) for j in range(sliced.y.shape[1])]
        gaps.append(_mcse_gap(sliced.alpha, collapsed.alpha))
        assert max(gaps) < 4.0

    def test_cluster_count_law(self, two_chains):
        sliced, collapsed = two_chains
        top = int(max(sliced.n_clusters.max(), collapsed.n_clusters.max()))
        gaps = [
            _mcse_gap(sliced.n_clusters <= k, collapsed.n_clusters <= k) for k in range(1, top)
        ]
        gaps.append(_mcse_gap(sliced.n_clusters, collapsed.n_clusters))
        assert max(gaps) < 4.0


class TestFitTruncated:
    def test_shapes_and_retention(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MixtureConfig(iterations=40, burn_in=20, thin=4, seed=3, truncation_m=12)
        fit = fit_msmm_truncated(study.truth.z, study.truth.d, x, basis, cfg)
        assert fit.n_retained == 5
        assert fit.y.shape == (5, study.truth.n_rows)
        assert np.all(fit.n_clusters <= 12)
        assert np.all(fit.assignments < 12)
        assert _canonical_rows(fit.assignments)

    def test_deterministic_in_seed(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MixtureConfig(iterations=30, burn_in=10, seed=14)
        a = fit_msmm_truncated(study.truth.z, study.truth.d, x, basis, cfg)
        b = fit_msmm_truncated(study.truth.z, study.truth.d, x, basis, cfg)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.assignments, b.assignments)

    def test_alpha_fixed(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MixtureConfig(iterations=25, burn_in=5, seed=2, alpha_fixed=1.4)
        fit = fit_msmm_truncated(study.truth.z, study.truth.d, x, basis, cfg)
        assert np.all(fit.alpha == 1.4)

    def test_prior_only_coclustering_rate(self, blank_inputs):
        # with data that carry no information the assignments follow the
        # stick prior, under which two fixed items share a component with
        # probability 1/(1 + alpha)
        z, d, x, basis = blank_inputs
        cfg = MixtureConfig(
            iterations=6000, burn_in=500, seed=9, alpha_fixed=1.0, truncation_m=25
        )
        fit = fit_msmm_truncated(z, d, x, basis, cfg)
        together = np.mean(fit.assignments[:, 0] == fit.assignments[:, 1])
        assert together == pytest.approx(0.5, abs=0.05)
        assert np.all(fit.y == 0.0)

    def test_prior_only_alpha_marginal_is_prior(self, blank_inputs):
        # as for the slice sampler: alpha integrates back to its Gamma(1, 4)
        # prior, mean 0.25, which needs log(1 - V) of sticks whose 1 - V
        # underflows at small alpha
        z, d, x, basis = blank_inputs
        cfg = MixtureConfig(
            iterations=8000, burn_in=1000, seed=7, a_alpha=1.0, b_alpha=4.0
        )
        fit = fit_msmm_truncated(z, d, x, basis, cfg)
        assert abs(fit.alpha.mean() - 0.25) < 3.0 * batch_means_se(fit.alpha)

    def test_n_clusters_counts_occupied(self, small_inputs):
        study, x, _, basis = small_inputs
        cfg = MixtureConfig(iterations=30, burn_in=10, seed=4)
        fit = fit_msmm_truncated(study.truth.z, study.truth.d, x, basis, cfg)
        for row, k in zip(fit.assignments, fit.n_clusters):
            assert len(set(row.tolist())) == k

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_input(self, small_inputs):
        study, x, _, basis = small_inputs
        z = study.truth.z.copy()
        z[:] = 1e200
        cfg = MixtureConfig(iterations=10, burn_in=1, seed=1)
        with pytest.raises(DivergenceError):
            fit_msmm_truncated(z, study.truth.d, x, basis, cfg)

"""The collapsed Gibbs sampler for the mixture model, kept as a test
reference, with the closed forms the tests check the samplers against.

``fit_collapsed`` integrates the atoms out of the assignment step and
moves one row at a time, so it shares no sweep code with the blocked
samplers in ``areamix.mixture``: agreement between it and the slice
sampler checks both.  Its one-row kernel lives here too:
``_cluster_blocks`` stacks every cluster's atom posterior and the empty
cluster's, and ``_assignment_logw`` weighs a held-out row against them.
``crp_assignment_probs`` runs the same kernel, so the brute-force
oracles that check it check the kernel ``fit_collapsed`` runs.  The
sampler looks the kernel up on this module at call time so tests can
watch the calls.

The closed forms: ``_ClusterStats`` sums a cluster's data precision over
the rows of U = [X, Psi] themselves, the oracle of ``msm._component_sums``;
``cluster_posterior`` gives an atom's posterior mean and covariance from
it; ``prior_covariance`` is Sigma0 of a ``BaseMeasure``; and
``stick_break`` and ``prior_expected_clusters`` are the stick-breaking
weights and the expected number of clusters of the seating law.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular

from areamix.errors import DivergenceError, DomainError, ShapeError
from areamix.mixture import (
    BaseMeasure,
    MixtureConfig,
    MixturePosterior,
    _draw_atoms,
    _log_weights,
    canonicalize_labels,
)
from areamix.msm import DrawRecorder, _check_data
from conftest import entry_psi

_LOG_2PI = math.log(2.0 * math.pi)


def prior_covariance(base: BaseMeasure) -> np.ndarray:
    """Sigma0 = blockdiag(sigma2_beta I_p, sigma2_eta K) of ``base``."""
    cov = np.zeros((base.dim, base.dim))
    cov[: base.p, : base.p] = np.eye(base.p) * base.sigma2_beta
    cov[base.p :, base.p :] = base.k * base.sigma2_eta
    return cov


class _ClusterStats:
    """A cluster's count, F = sum u_i u_i'/d_i and g = sum u_i z_i/d_i over its
    member rows (``slice(None)``: every row, uncopied); ``posterior`` forms
    the posterior of the theta those rows share.
    """

    __slots__ = ("count", "f", "g")

    def __init__(self, members, z: np.ndarray, d: np.ndarray, u: np.ndarray):
        rows = u[members]
        weights = d[members]
        self.count = rows.shape[0]
        self.f = (rows / weights[:, None]).T @ rows
        self.g = rows.T @ (z[members] / weights)

    def posterior(self, prec0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The atom posterior (chol of prec0 + F, mean) under prior precision prec0."""
        chol = np.linalg.cholesky(prec0 + self.f)
        half = solve_triangular(chol, self.g, lower=True)
        return chol, solve_triangular(chol.T, half, lower=False)


def _cov_from_chol(chol: np.ndarray) -> np.ndarray:
    half = solve_triangular(chol, np.eye(chol.shape[0]), lower=True)
    cov = half.T @ half
    return (cov + cov.T) / 2.0


def cluster_posterior(
    members: np.ndarray, z, d, u, base: BaseMeasure
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior (mean, cov) of a cluster atom given its members.

    cov = (Sigma0^{-1} + sum u_i u_i'/d_i)^{-1},
    mean = cov sum u_i z_i / d_i,
    with the sums over ``members`` (row indices).  An empty member set
    returns the base measure itself: (0, Sigma0).
    """
    members = np.asarray(members, dtype=int).ravel()
    z, d, u = _check_data(z, d, u)
    if u.shape[1] != base.dim:
        raise ShapeError("u must be (n, p + r)")
    if members.size == 0:
        return np.zeros(base.dim), prior_covariance(base)
    chol, mean = _ClusterStats(members, z, d, u).posterior(base.prior_precision())
    return mean, _cov_from_chol(chol)


def stick_break(v) -> np.ndarray:
    """Weights from stick-breaking fractions: pi_k = V_k prod_{b<k}(1 - V_b).

    ``v`` has length M - 1 with entries strictly inside (0, 1); the last
    stick is implicitly 1, so the returned M weights sum to one.
    """
    v = np.asarray(v, dtype=float).ravel()
    return np.exp(_log_weights(np.array([np.log(v), np.log1p(-v)])))


def prior_expected_clusters(alpha: float, n: int) -> float:
    """E[number of clusters] among n draws: sum_i alpha / (alpha + i - 1)."""
    return float(np.sum(alpha / (alpha + np.arange(n))))


def _cluster_blocks(
    clusters: list[_ClusterStats], base: BaseMeasure, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Weights (K + 1,) and stacked blocks (K + 1, q + 1, q) of the assignment candidates.

    Block c < K holds cluster c's atom posterior, S_c = (prec0 + F_c)^{-1}
    in its first q rows and m_c' = (S_c g_c)' in its last, so one product
    with u_i gives both S_c u_i and m_c' u_i; its weight is n_c.  All K
    inverses are one batched call.  The last block is a new cluster's: a
    cluster with no members, whose posterior is the base measure
    [Sigma0; 0'], weighed alpha.
    """
    q = base.dim
    k = len(clusters)
    prec0 = base.prior_precision()
    prec = np.empty((k, q, q))
    lin = np.empty((k, q))
    for pos, st in enumerate(clusters):
        np.add(prec0, st.f, out=prec[pos])
        lin[pos] = st.g
    blocks = np.zeros((k + 1, q + 1, q))
    blocks[:k, :q] = np.linalg.inv(prec)
    blocks[:k, q] = np.einsum("cjk,ck->cj", blocks[:k, :q], lin)
    blocks[k, :q] = prior_covariance(base)
    weights = np.array([st.count for st in clusters] + [alpha], dtype=float)
    return weights, blocks


def _assignment_logw(u_i, z_i, d_i, weights, blocks):
    """Log-weights of a held-out observation, one per candidate cluster.

    Candidate c, with weight w_c and atom posterior N(m_c, S_c) held in
    ``blocks[c]`` (see ``_cluster_blocks``), weighs
    log w_c + log N(z_i; u_i' m_c, u_i' S_c u_i + d_i).  Also returns
    ``su = blocks @ u_i`` and the predictive variances, which the step
    that adds row i reuses.
    """
    su = blocks @ u_i
    var = su[:, :-1] @ u_i + d_i
    resid = z_i - su[:, -1]
    logw = np.log(weights) - 0.5 * (_LOG_2PI + np.log(var) + resid * resid / var)
    return logw, su, var


def _normalise(logw: np.ndarray) -> np.ndarray:
    probs = np.exp(logw - logw.max())
    probs /= probs.sum()
    return probs


def crp_assignment_probs(
    i: int, assignments: np.ndarray, alpha: float, z, d, u, base: BaseMeasure
) -> tuple[list[int], np.ndarray]:
    """Assignment probabilities for observation i with atoms integrated out.

    ``assignments`` labels each row's cluster, and observation i must be
    held out of every cluster (``assignments[i] == -1``).  For each
    existing cluster c the weight is

        n_c * N(z_i; u_i' m_c, u_i' S_c u_i + d_i)

    where (m_c, S_c) is the atom posterior from the remaining members.
    A fresh cluster is the same formula for a cluster with no members,
    whose posterior is the base measure (0, Sigma0):

        alpha * N(z_i; 0, u_i' Sigma0 u_i + d_i).

    The weights of all candidates come from one batched kernel over
    ``_cluster_blocks``.  Returns the sorted existing labels and a
    probability vector whose final entry is the new-cluster probability.
    """
    z, d, u = _check_data(z, d, u)
    if u.shape[1] != base.dim:
        raise ShapeError("u must be (n, p + r)")
    if not (0 <= i < assignments.size):
        raise DomainError(f"observation index {i} out of range")
    if assignments[i] != -1:
        raise DomainError("observation must be removed from its cluster first")
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError("alpha must be finite and positive")
    labels = [int(l) for l in np.unique(assignments[assignments >= 0])]
    clusters = [_ClusterStats(np.flatnonzero(assignments == label), z, d, u) for label in labels]
    weights, blocks = _cluster_blocks(clusters, base, alpha)
    logw, _, _ = _assignment_logw(u[i], z[i], d[i], weights, blocks)
    return labels, _normalise(logw)


def shift_row(block: np.ndarray, su: np.ndarray, z_i: float, c: float) -> None:
    """Add or remove row i of one cluster's block in place (Sherman-Morrison).

    ``su = block @ u_i`` = [S u_i; m' u_i].  The step is
    block += [s; m' u_i - z_i] s' / c with s = S u_i: c = d_i - u_i' s
    removes the row, c = -(u_i' s + d_i) adds it.
    """
    step = su[:-1] / c
    block += su[:, None] * step
    block[-1] -= z_i * step


def update_alpha_escobar_west(
    alpha: float, k: int, n: int, a_alpha: float, b_alpha: float, rng: np.random.Generator
) -> float:
    """Resample the concentration given k occupied clusters among n items.

    Augmented beta-variable scheme: draw zeta ~ Beta(alpha + 1, n), form
    the odds pi/(1 - pi) = (a_alpha + k - 1) / (n (b_alpha - log zeta)),
    then draw from Gamma(a_alpha + k, b_alpha - log zeta) with
    probability pi and from Gamma(a_alpha + k - 1, .) otherwise (shape /
    rate parameterisation).
    """
    if k < 1 or n < 1:
        raise DomainError("need k >= 1 clusters and n >= 1 observations")
    if alpha <= 0 or a_alpha <= 0 or b_alpha <= 0:
        raise DomainError("alpha and its prior parameters must be positive")
    zeta = float(rng.beta(alpha + 1.0, n))
    zeta = min(max(zeta, np.finfo(float).tiny), 1.0 - 1e-16)
    rate = b_alpha - math.log(zeta)
    odds = (a_alpha + k - 1.0) / (n * rate)
    pi = odds / (1.0 + odds)
    shape = a_alpha + k if rng.random() < pi else a_alpha + k - 1.0
    return float(rng.gamma(shape, 1.0 / rate))


def fit_collapsed(z, d, x, basis, config: MixtureConfig | None = None) -> MixturePosterior:
    """Collapsed Gibbs for the mixture model.

    Scan per iteration: (1) one pass of assignment updates with atoms
    integrated out, spawning and deleting clusters as needed; (2) atom
    redraw per cluster from its Gaussian posterior; (3) sigma2_eta from
    InverseGamma(a_eta + k r / 2, b_eta + sum_c eta_c' K^{-1} eta_c / 2);
    (4) alpha by the augmented beta-gamma step.  Starts from a single
    cluster holding every observation, alpha = 1, sigma2_eta = 1.

    Clusters are numbered 0..K-1 in order of creation.  Their atom
    posteriors are rebuilt from the member rows once per sweep and kept
    current within the pass by rank-one steps as rows leave and join.
    The candidates of each assignment are the K clusters and, last, a
    cluster with no members (posterior: the base measure, weight alpha);
    a row that picks it makes it cluster K, and a new empty one follows.
    """
    config = config or MixtureConfig()
    config.validate()
    z, d, x = _check_data(z, d, x)
    n, p = x.shape
    u = np.hstack([x, entry_psi(basis)])

    rng = np.random.default_rng(config.seed)
    assignments = np.zeros(n, dtype=int)
    stats = [_ClusterStats(np.arange(n), z, d, u)]
    alpha = config.alpha_fixed if config.alpha_fixed is not None else 1.0
    sigma2_eta = 1.0

    draws = DrawRecorder(config)
    for t in range(config.iterations):
        base = BaseMeasure(p, config.sigma2_beta, sigma2_eta, basis.k, basis.k_inv)
        weights, blocks = _cluster_blocks(stats, base, alpha)
        empty = blocks[-1:].copy()

        for i in range(n):
            u_i = u[i]
            z_i = z[i]
            d_i = d[i]
            old = assignments[i]
            weights[old] -= 1
            if weights[old] == 0:
                # drop the emptied cluster; the later ones keep their order
                weights = np.delete(weights, old)
                blocks = np.delete(blocks, old, axis=0)
                assignments[assignments > old] -= 1
            else:
                su = blocks[old] @ u_i
                shift_row(blocks[old], su, z_i, d_i - su[:-1] @ u_i)

            k = weights.size - 1  # candidate k is the empty cluster
            logw, su, var = _assignment_logw(u_i, z_i, d_i, weights, blocks)
            pick = int(_normalise(logw).cumsum().searchsorted(rng.random()))
            pick = min(pick, k)
            shift_row(blocks[pick], su[pick], z_i, -var[pick])
            if pick == k:
                # the empty cluster became cluster k; a new empty one follows it
                weights[k] = 0.0
                weights = np.append(weights, alpha)
                blocks = np.concatenate([blocks, empty])
            weights[pick] += 1
            assignments[i] = pick

        k = weights.size - 1
        members = [np.flatnonzero(assignments == c) for c in range(k)]
        stats = [_ClusterStats(idx, z, d, u) for idx in members]
        sums = [(st.f, st.g) for st in stats]
        # every cluster has members, so no atom comes from the base measure and no chol K
        theta, _, sigma2_eta = _draw_atoms(rng, sums, base, None, config, t)
        y = np.empty(n)
        for c, idx in enumerate(members):
            y[idx] = u[idx] @ theta[c]

        if config.alpha_fixed is None:
            alpha = update_alpha_escobar_west(
                alpha, k, n, config.a_alpha, config.b_alpha, rng
            )
        if not (np.isfinite(alpha) and np.isfinite(sigma2_eta) and np.all(np.isfinite(y))):
            raise DivergenceError("non-finite draw", iteration=t)

        if draws.wants(t):
            draws.record(
                y=y,
                alpha=alpha,
                sigma2_eta=sigma2_eta,
                n_clusters=np.int32(k),
                assignments=canonicalize_labels(assignments),
            )

    return MixturePosterior(**draws.columns, seed=config.seed)

"""Mixture extension: entry-level coefficients under a Dirichlet process.

Each observation i carries theta_i = (beta_i, eta_i) in R^{p+r} with

    z_i | theta_i ~ N(u_i' theta_i, d_i),    u_i = [x_i; psi_i]
    theta_i | G ~ G,   G ~ DP(alpha G0),
    G0 = N(0, Sigma0),  Sigma0 = blockdiag(sigma2_beta I_p, sigma2_eta K).

Ties among the theta_i induce clusters of observations that share one
regression surface and one spatial field.  Two samplers are provided:

* fit_msmm_dp: collapsed Gibbs over cluster assignments (atoms
  integrated out of the assignment step, then re-instantiated).
* fit_msmm_truncated: blocked Gibbs under a finite stick-breaking
  truncation with M components.

Both update sigma2_eta through its inverse-gamma conditional over the
occupied atoms, and the concentration alpha through the beta-augmented
gamma mixture (collapsed) or the stick-breaking conjugate form
(truncated).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .basis import MoranBasis
from .errors import DivergenceError, DomainError, ShapeError
from .msm import (
    ChainConfig,
    DrawRecorder,
    _check_data,
    _cov_from_chol,
    _inverse_gamma_conditional,
    _posterior_draw,
    _posterior_factor,
    draw_inverse_gamma,
)

_LOG_2PI = math.log(2.0 * math.pi)
_STICK_EPS = 1e-12  # keep drawn sticks strictly inside (0, 1)


@dataclass(frozen=True)
class BaseMeasure:
    """The Gaussian base distribution N(0, Sigma0) of the process.

    Sigma0 = blockdiag(sigma2_beta I_p, sigma2_eta K); ``k`` is the SPD
    spatial covariance kernel K and ``k_inv`` its inverse.
    """

    p: int
    sigma2_beta: float
    sigma2_eta: float
    k: np.ndarray
    k_inv: np.ndarray

    @property
    def r(self) -> int:
        return self.k.shape[0]

    @property
    def dim(self) -> int:
        return self.p + self.r

    @classmethod
    def from_basis(
        cls, basis: MoranBasis, p: int, sigma2_beta: float, sigma2_eta: float
    ) -> "BaseMeasure":
        return cls(
            p=p,
            sigma2_beta=float(sigma2_beta),
            sigma2_eta=float(sigma2_eta),
            k=basis.k,
            k_inv=basis.k_inv,
        )

    def prior_precision(self) -> np.ndarray:
        q = self.dim
        prec = np.zeros((q, q))
        prec[: self.p, : self.p] = np.eye(self.p) / self.sigma2_beta
        prec[self.p :, self.p :] = self.k_inv / self.sigma2_eta
        return prec

    def prior_covariance(self) -> np.ndarray:
        q = self.dim
        cov = np.zeros((q, q))
        cov[: self.p, : self.p] = np.eye(self.p) * self.sigma2_beta
        cov[self.p :, self.p :] = self.k * self.sigma2_eta
        return cov

    def draw(self, rng: np.random.Generator, chol_k: np.ndarray | None = None) -> np.ndarray:
        if chol_k is None:
            chol_k = np.linalg.cholesky(self.k)
        head = math.sqrt(self.sigma2_beta) * rng.standard_normal(self.p)
        tail = math.sqrt(self.sigma2_eta) * (chol_k @ rng.standard_normal(self.r))
        return np.concatenate([head, tail])


@dataclass
class MixtureState:
    """A partition and the concentration it is weighed under.

    ``assignments[i] == -1`` marks an observation currently held out of
    every cluster (used while its label is being resampled).
    """

    assignments: np.ndarray
    alpha: float = 1.0


class _ClusterStats:
    """A cluster's count, F = sum u_i u_i'/d_i and g = sum u_i z_i/d_i over its
    member rows; ``posterior`` forms its atom posterior.
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
        return _posterior_factor(prec0 + self.f, self.g)


def _check_rows(z, d, u, base: BaseMeasure):
    z, d, u, _ = _check_data(z, d, u)
    if u.shape[1] != base.dim:
        raise ShapeError("u must be (n, p + r)")
    return z, d, u


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
    blocks[k, :q] = base.prior_covariance()
    weights = np.array([st.count for st in clusters] + [alpha], dtype=float)
    return weights, blocks


def _shift_row(block: np.ndarray, su: np.ndarray, z_i: float, c: float) -> None:
    """Add or remove row i of one cluster's block in place (Sherman-Morrison).

    ``su = block @ u_i`` = [S u_i; m' u_i].  The step is
    block += [s; m' u_i - z_i] s' / c with s = S u_i: c = d_i - u_i' s
    removes the row, c = -(u_i' s + d_i) adds it.
    """
    step = su[:-1] / c
    block += su[:, None] * step
    block[-1] -= z_i * step


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
    z, d, u = _check_rows(z, d, u, base)
    if members.size == 0:
        return np.zeros(base.dim), base.prior_covariance()
    chol, mean = _ClusterStats(members, z, d, u).posterior(base.prior_precision())
    return mean, _cov_from_chol(chol)


def crp_assignment_probs(
    i: int, state: MixtureState, z, d, u, base: BaseMeasure
) -> tuple[list[int], np.ndarray]:
    """Assignment probabilities for observation i with atoms integrated out.

    Requires observation i to be held out (``state.assignments[i] == -1``).
    For each existing cluster c the weight is

        n_c * N(z_i; u_i' m_c, u_i' S_c u_i + d_i)

    where (m_c, S_c) is the atom posterior from the remaining members.
    A fresh cluster is the same formula for a cluster with no members,
    whose posterior is the base measure (0, Sigma0):

        alpha * N(z_i; 0, u_i' Sigma0 u_i + d_i).

    The weights are those of the collapsed sampler's assignment step
    (``fit_msmm_dp``), formed by the same kernel and normalised the same
    way.  Returns the sorted existing labels and a probability vector
    whose final entry is the new-cluster probability.
    """
    z, d, u = _check_rows(z, d, u, base)
    assign = state.assignments
    if not (0 <= i < assign.size):
        raise DomainError(f"observation index {i} out of range")
    if assign[i] != -1:
        raise DomainError("observation must be removed from its cluster first")
    if not (math.isfinite(state.alpha) and state.alpha > 0):
        raise DomainError("alpha must be finite and positive")
    labels = [int(l) for l in np.unique(assign[assign >= 0])]
    clusters = [_ClusterStats(np.flatnonzero(assign == label), z, d, u) for label in labels]
    weights, blocks = _cluster_blocks(clusters, base, state.alpha)
    logw, _, _ = _assignment_logw(u[i], z[i], d[i], weights, blocks)
    return labels, _normalise(logw)


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


def stick_break(v) -> np.ndarray:
    """Weights from stick-breaking fractions: pi_k = V_k prod_{b<k}(1 - V_b).

    ``v`` has length M - 1 with entries strictly inside (0, 1); the last
    stick is implicitly 1, so the returned M weights sum to one.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.size < 1:
        raise DomainError("need at least one stick fraction")
    if np.any(v <= 0.0) or np.any(v >= 1.0):
        raise DomainError("stick fractions must lie strictly inside (0, 1)")
    remain = np.concatenate([[1.0], np.cumprod(1.0 - v)])
    pi = np.empty(v.size + 1)
    pi[:-1] = v * remain[:-1]
    pi[-1] = remain[-1]
    return pi


def prior_expected_clusters(alpha: float, n: int) -> float:
    """E[number of clusters] among n draws: sum_i alpha / (alpha + i - 1)."""
    if alpha <= 0 or n < 1:
        raise DomainError("alpha must be positive and n >= 1")
    return float(np.sum(alpha / (alpha + np.arange(n))))


def crp_simulate(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """One partition of n items by sequential seating (labels 0-based)."""
    if alpha <= 0 or n < 1:
        raise DomainError("alpha must be positive and n >= 1")
    labels = np.zeros(n, dtype=int)
    counts: list[int] = [1]
    for i in range(1, n):
        # the first table whose running count passes the cut; past them all, a new one
        chosen = bisect.bisect_right(list(itertools.accumulate(counts)), rng.random() * (i + alpha))
        if chosen == len(counts):
            counts.append(0)
        counts[chosen] += 1
        labels[i] = chosen
    return labels


def canonicalize_labels(labels) -> np.ndarray:
    """Relabel clusters 0,1,2,... in order of first appearance."""
    labels = np.asarray(labels).ravel()
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int32)
    rank[np.argsort(first)] = np.arange(first.size, dtype=np.int32)
    return rank[inverse]


@dataclass
class MixtureConfig(ChainConfig):
    """Settings shared by both mixture samplers."""

    sigma2_beta: float = 100.0
    a_eta: float = 0.1
    b_eta: float = 0.1
    a_alpha: float = 1.0
    b_alpha: float = 4.0
    truncation_m: int = 25
    # Hold the concentration fixed instead of sampling it.
    alpha_fixed: float | None = None

    positive: ClassVar[tuple[str, ...]] = (
        "sigma2_beta", "a_eta", "b_eta", "a_alpha", "b_alpha", "alpha_fixed"
    )

    def validate(self) -> None:
        super().validate()
        if self.truncation_m < 2:
            raise DomainError("truncation_m must be >= 2")


@dataclass(frozen=True)
class MixturePosterior:
    """Retained draws from a mixture fit.

    ``assignments`` holds one canonicalised partition per retained draw;
    all other summaries are label-free, so any relabelling of clusters
    leaves the posterior output unchanged.
    """

    y: np.ndarray
    alpha: np.ndarray
    sigma2_eta: np.ndarray
    n_clusters: np.ndarray
    assignments: np.ndarray
    seed: int

    @property
    def n_retained(self) -> int:
        return self.y.shape[0]


def _draw_atoms(rng, stats, base: BaseMeasure, chol_k, config: MixtureConfig, t: int):
    """Every component's atom, then sigma2_eta over the occupied ones.

    ``stats`` yields each component's ``_ClusterStats`` in component
    order, or None for an empty component, whose atom comes from the base
    measure (``chol_k`` is the Cholesky factor of K).  sigma2_eta is drawn
    from InverseGamma(a_eta + k r / 2, b_eta + sum_c eta_c' K^{-1} eta_c / 2)
    over the k occupied atoms.  Returns (atoms (M, q), k, sigma2_eta).
    """
    prec0 = base.prior_precision()
    atoms = []
    eta_quad = 0.0
    occupied = 0
    for st in stats:
        if st is None:
            atoms.append(base.draw(rng, chol_k))
            continue
        theta = _posterior_draw(rng, *st.posterior(prec0))
        eta = theta[base.p :]
        eta_quad += float(eta @ base.k_inv @ eta)
        occupied += 1
        atoms.append(theta)
    theta = np.array(atoms)
    if not np.all(np.isfinite(theta)):
        raise DivergenceError("non-finite atom draw", iteration=t)
    shape, scale = _inverse_gamma_conditional(
        config.a_eta, config.b_eta, occupied * base.r, eta_quad, t
    )
    return theta, occupied, draw_inverse_gamma(rng, shape, scale)


def fit_msmm_dp(
    z, d, x, basis: MoranBasis, config: MixtureConfig | None = None
) -> MixturePosterior:
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
    z, d, x, psi = _check_data(z, d, x, basis.psi)
    n, p = x.shape
    u = np.hstack([x, psi])

    rng = np.random.default_rng(config.seed)
    assignments = np.zeros(n, dtype=int)
    stats = [_ClusterStats(np.arange(n), z, d, u)]
    alpha = config.alpha_fixed if config.alpha_fixed is not None else 1.0
    sigma2_eta = 1.0

    draws = DrawRecorder(config)
    for t in range(config.iterations):
        base = BaseMeasure.from_basis(basis, p, config.sigma2_beta, sigma2_eta)
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
                _shift_row(blocks[old], su, z_i, d_i - su[:-1] @ u_i)

            k = weights.size - 1  # candidate k is the empty cluster
            logw, su, var = _assignment_logw(u_i, z_i, d_i, weights, blocks)
            pick = int(_normalise(logw).cumsum().searchsorted(rng.random()))
            pick = min(pick, k)
            _shift_row(blocks[pick], su[pick], z_i, -var[pick])
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
        theta, _, sigma2_eta = _draw_atoms(rng, stats, base, None, config, t)
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


def fit_msmm_truncated(
    z, d, x, basis: MoranBasis, config: MixtureConfig | None = None
) -> MixturePosterior:
    """Blocked Gibbs under an M-component stick-breaking truncation.

    Scan per iteration: assignments from the categorical conditional
    pi_m N(z_i; u_i' theta_m, d_i); sticks V_m ~ Beta(1 + n_m,
    alpha + sum_{l>m} n_l) with V_M = 1; atoms from their cluster
    posteriors (empty components refresh from the base measure);
    sigma2_eta over occupied components; alpha ~ Gamma(a_alpha + M - 1,
    b_alpha - sum_{m<M} log(1 - V_m)).
    """
    config = config or MixtureConfig()
    config.validate()
    z, d, x, psi = _check_data(z, d, x, basis.psi)
    n, p = x.shape
    u = np.hstack([x, psi])
    m_comp = config.truncation_m

    rng = np.random.default_rng(config.seed)
    chol_k = np.linalg.cholesky(basis.k)

    theta = np.zeros((m_comp, u.shape[1]))
    alpha = config.alpha_fixed if config.alpha_fixed is not None else 1.0
    sigma2_eta = 1.0
    v = np.clip(rng.beta(1.0, alpha, size=m_comp - 1), _STICK_EPS, 1.0 - _STICK_EPS)
    pi = stick_break(v)
    log_d_term = -0.5 * (_LOG_2PI + np.log(d))

    draws = DrawRecorder(config)
    for t in range(config.iterations):
        with np.errstate(divide="ignore"):
            log_pi = np.log(pi)
        means = u @ theta.T
        logw = (
            log_pi[None, :]
            - 0.5 * (z[:, None] - means) ** 2 / d[:, None]
            + log_d_term[:, None]
        )
        gumbel = rng.gumbel(size=(n, m_comp))
        c = np.argmax(logw + gumbel, axis=1)
        counts = np.bincount(c, minlength=m_comp)

        tail = counts[::-1].cumsum()[::-1]
        v = rng.beta(1.0 + counts[: m_comp - 1], alpha + tail[1:])
        v = np.clip(v, _STICK_EPS, 1.0 - _STICK_EPS)
        pi = stick_break(v)

        base = BaseMeasure.from_basis(basis, p, config.sigma2_beta, sigma2_eta)
        # one component's statistics at a time: holding all M at once keeps
        # M (q, q) arrays alive
        stats = (
            _ClusterStats(idx, z, d, u) if idx.size else None
            for idx in (np.flatnonzero(c == m) for m in range(m_comp))
        )
        theta, k_occ, sigma2_eta = _draw_atoms(rng, stats, base, chol_k, config, t)

        if config.alpha_fixed is None:
            rate = config.b_alpha - float(np.sum(np.log1p(-v)))
            alpha = float(rng.gamma(config.a_alpha + m_comp - 1.0, 1.0 / rate))

        y = np.einsum("ij,ij->i", u, theta[c])
        if not (np.isfinite(alpha) and np.isfinite(sigma2_eta) and np.all(np.isfinite(y))):
            raise DivergenceError("non-finite draw", iteration=t)

        if draws.wants(t):
            draws.record(
                y=y,
                alpha=alpha,
                sigma2_eta=sigma2_eta,
                n_clusters=np.int32(k_occ),
                assignments=canonicalize_labels(c),
            )

    return MixturePosterior(**draws.columns, seed=config.seed)

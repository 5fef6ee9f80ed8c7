"""Mixture extension: entry-level coefficients under a Dirichlet process.

Each observation i carries theta_i = (beta_i, eta_i) in R^{p+r} with

    z_i | theta_i ~ N(u_i' theta_i, d_i),    u_i = [x_i; psi_i]
    theta_i | G ~ G,   G ~ DP(alpha G0),
    G0 = N(0, Sigma0),  Sigma0 = blockdiag(sigma2_beta I_p, sigma2_eta K).

G0 is the msm prior of (beta, eta) (``msm.BaseMeasure``), and a
cluster's atom posterior is msm's coefficient posterior over the
cluster's rows: msm is the one-cluster case.  Both sum that posterior's
data precision per (area, component) with ``msm._component_sums`` and
draw each atom with ``msm._gaussian_draw``.

Ties among the theta_i induce clusters of observations that share one
regression surface and one spatial field.  Both samplers run one blocked
sweep over the stick-breaking form G = sum_m pi_m delta(theta_m):
assignments of all rows at once, sticks, the occupied atoms, sigma2_eta
over them, the empty atoms under that sigma2_eta, and alpha from the
sticks.

* fit_msmm_truncated: the process truncated to M components.
* fit_msmm_dp: the exact process by slice sampling (Walker 2007; Kalli,
  Griffin and Walker 2011).  Each sweep first draws a slice per row,
  which admits finitely many components, and holds just those.

Beside the two samplers and their steps, the module holds
``crp_simulate``, which seats the slice sampler's first partition, and
``canonicalize_labels``, which labels every retained partition.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .basis import MoranBasis
from .errors import DivergenceError, DomainError
from .msm import (
    BaseMeasure,
    ChainConfig,
    DrawRecorder,
    _component_sums,
    _gaussian_draw,
    _Rows,
    draw_inverse_gamma,
)
from .util import _cholesky


def _log_weights(sticks: np.ndarray) -> np.ndarray:
    """log pi of the K + 1 weights of K sticks held as (log V, log(1 - V)) rows:
    log V_k + sum_{b<k} log(1 - V_b), then the mass past them."""
    log_v, log_w = sticks
    log_pi = np.empty(log_w.size + 1)
    log_pi[0] = 0.0
    np.cumsum(log_w, out=log_pi[1:])  # sum_{b<k} log(1 - V_b), k = 0..K
    log_pi[:-1] += log_v
    return log_pi


def _beta_logs(rng, a, b) -> np.ndarray:
    """Sticks V ~ Beta(a, b) for the k entries of a (b broadcast against
    it), as the (2, k) rows (log V, log(1 - V)).

    V = G_a / (G_a + G_b) is formed in logs from independent gammas
    G_s ~ Gamma(s), each drawn as log G_{s+1} - E / s with E ~ Exp(1).
    So log(1 - V) stays exact where 1 - V itself would round to 1 or
    underflow to 0, as it does for the last sticks at a small alpha, and
    the alpha step reads it.  Every stick comes from here.
    """
    shapes = np.empty((2, np.size(a)))
    shapes[0], shapes[1] = a, b
    log_g = np.log(rng.standard_gamma(shapes + 1.0)) - rng.standard_exponential(shapes.shape) / shapes
    return log_g - np.logaddexp(log_g[0], log_g[1])


def crp_simulate(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """One partition of n items by sequential seating (labels 0-based); an
    infinite alpha seats every item alone, and a NaN one is a DomainError."""
    if not alpha > 0 or n < 1:
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
    # the distinct labels in order of first appearance; a label's rank is its place here
    distinct = np.fromiter(dict.fromkeys(labels.tolist()), dtype=labels.dtype)
    order = np.argsort(distinct)
    return order.astype(np.int32)[np.searchsorted(distinct[order], labels)]


@dataclass
class MixtureConfig(ChainConfig):
    """Settings of both mixture samplers; ``truncation_m`` (M) is read by
    ``fit_msmm_truncated`` only."""

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


def _draw_atoms(rng, stats, base: BaseMeasure, chol_k_inv, config: MixtureConfig, t: int):
    """Every component's atom and sigma2_eta, in the partially collapsed order.

    ``stats`` yields each component's (F, g) (``_component_sums``) in
    component order, or None for an empty component.  The occupied atoms
    come from their cluster posteriors under ``base``; then sigma2_eta from
    InverseGamma(a_eta + k r / 2, b_eta + sum_c eta_c' K^{-1} eta_c / 2)
    over the k occupied atoms; then the empty atoms from the base measure
    at that new sigma2_eta, given the Cholesky factor ``chol_k_inv`` of
    K^{-1}.  The empty atoms do not enter the sigma2_eta step, so they
    must follow it (van Dyk and Park 2008).  Returns (atoms (M, q), k,
    sigma2_eta); DefinitenessError when an atom posterior precision has
    no finite Cholesky factor.
    """
    prec0 = base.prior_precision()
    atoms, empty = [], []
    eta_quad = 0.0
    for m, st in enumerate(stats):
        if st is None:
            empty.append(m)
            atoms.append(None)
            continue
        f, g = st
        theta = _gaussian_draw(rng, _cholesky(prec0 + f, "atom posterior precision"), g)
        eta = theta[base.p :]
        eta_quad += float(eta @ base.k_inv @ eta)
        atoms.append(theta)
    occupied = len(atoms) - len(empty)
    sigma2_eta = draw_inverse_gamma(rng, config.a_eta, config.b_eta, occupied * base.r, eta_quad, t)
    fresh = base.at(sigma2_eta)
    for m in empty:
        atoms[m] = fresh.draw(rng, chol_k_inv)
    theta = np.array(atoms)
    if not np.all(np.isfinite(theta)):
        raise DivergenceError("non-finite atom draw", iteration=t)
    return theta, occupied, sigma2_eta


def _prepare(z, d, x, basis: MoranBasis, config: MixtureConfig | None):
    """(config, ``_Rows``, chol K^{-1}) of a fit: the factor of the basis precision
    feeds every prior draw.  DefinitenessError when K^{-1} has no finite one."""
    config = config or MixtureConfig()
    config.validate()
    return config, _Rows(z, d, x, basis), _cholesky(basis.k_inv, "basis precision K^{-1}")


def _area_means(rows: _Rows, theta: np.ndarray) -> np.ndarray:
    """(m, M) psi parts a_k' eta_m of the component means on the area rows."""
    return rows.area_psi @ theta[:, rows.p :].T


def _assign(rng, rows: _Rows, theta: np.ndarray, log_prior) -> np.ndarray:
    """Each row's component from log_prior + log N(z_i; u_i' theta_m, d_i), by
    one Gumbel-max over the (n, M) array; ``log_prior`` is log pi_m under the
    truncation and 0 or -inf (the row's slice admits m or not) when sliced.

    The means are X beta_m' plus the area means repeated over each area's
    L rows.  The Gumbel noise is -log E with E ~ Exp(1), and the terms
    -log(2 pi d_i)/2 are left out: a constant per row moves no argmax.
    """
    logw = rows.x @ theta[:, : rows.p].T
    spatial = _area_means(rows, theta)
    per_area = logw.reshape(spatial.shape[0], rows.cells, -1)
    per_area += spatial[:, None, :]
    logw -= rows.z[:, None]
    np.square(logw, out=logw)
    logw *= -0.5 * rows.w[:, None]
    logw += log_prior
    noise = rng.standard_exponential(logw.shape)
    logw -= np.log(noise, out=noise)
    return np.argmax(logw, axis=1)


def _draw_sticks(rng, counts: np.ndarray, alpha: float) -> np.ndarray:
    """Sticks V_m ~ Beta(1 + n_m, alpha + sum_{l>m} n_l) of the first M - 1 of
    the M components counted in ``counts``, as ``_beta_logs`` rows; the
    last takes the rest."""
    tail = counts[::-1].cumsum()[::-1]
    return _beta_logs(rng, 1.0 + counts[:-1], alpha + tail[1:])


def _draw_alpha(rng, sticks: np.ndarray, alpha: float, config: MixtureConfig) -> float:
    """alpha ~ Gamma(a_alpha + M - 1, b_alpha - sum_m log(1 - V_m)) given the
    M - 1 sticks of ``_draw_sticks``; a pinned ``alpha_fixed`` stays."""
    if config.alpha_fixed is not None:
        return alpha
    log_w = sticks[1]
    return float(rng.gamma(config.a_alpha + log_w.size, 1.0 / (config.b_alpha - log_w.sum())))


def _record(draws: DrawRecorder, t: int, rows: _Rows, theta, c, alpha, sigma2_eta, k_occ) -> None:
    """Check the sweep's alpha and sigma2_eta for divergence (``_draw_atoms``
    checks theta); on a retained sweep, form y, check it and keep the draws."""
    if not (np.isfinite(alpha) and np.isfinite(sigma2_eta)):
        raise DivergenceError("non-finite draw", iteration=t)
    if draws.wants(t):
        p = rows.p
        y = np.einsum("ij,ij->i", rows.x, theta[c, :p]) + _area_means(rows, theta)[rows.area, c]
        if not np.all(np.isfinite(y)):
            raise DivergenceError("non-finite draw", iteration=t)
        draws.record(
            y=y,
            alpha=alpha,
            sigma2_eta=sigma2_eta,
            n_clusters=np.int32(k_occ),
            assignments=canonicalize_labels(c),
        )


def _switch_labels(rng, c: np.ndarray, sticks: np.ndarray, alpha: float):
    """Label-switching moves (after Papaspiliopoulos and Roberts 2008; Hastie,
    Liverani and Richardson 2015), atoms integrated out.

    The other steps barely move the clusters' stick-breaking order, which
    the alpha step reads.  So for j = 0, 1, ... up to the last occupied
    component, components j and j + 1 propose to trade places and weights:
    V_j' = V_{j+1} W_j and V_{j+1}' = V_j / W_j', with W = 1 - V, so
    W_j' = W_{j+1} + V_{j+1} V_j and W_{j+1}' = W_j W_{j+1} / W_j' (sums
    and products, no cancellation; all in logs).  The map is its own
    inverse and keeps the likelihood and the stick prior, so it is
    accepted with its Jacobian W_j / W_j'.  A stick past the last one
    comes from its prior Beta(1, alpha).  ``sticks`` are ``_beta_logs``
    rows.  Returns the relabelled c and the sticks up to the last
    occupied component.
    """
    counts = np.bincount(c, minlength=sticks.shape[1]).tolist()
    log_v, log_w = sticks.tolist()
    slot = list(range(len(counts)))  # slot[j]: the component now at position j
    top = int(c.max())
    j = 0
    while j <= top:
        if j + 1 == len(log_v):
            (v_new,), (w_new,) = _beta_logs(rng, [1.0], alpha).tolist()
            log_v.append(v_new)
            log_w.append(w_new)
            counts.append(0)
            slot.append(len(slot))
        w_swap = float(np.logaddexp(log_w[j + 1], log_v[j + 1] + log_v[j]))  # log W_j'
        if rng.random() < math.exp(log_w[j] - w_swap):
            log_v[j], log_v[j + 1] = log_v[j + 1] + log_w[j], log_v[j] - w_swap
            log_w[j], log_w[j + 1] = w_swap, log_w[j] + log_w[j + 1] - w_swap
            counts[j], counts[j + 1] = counts[j + 1], counts[j]
            slot[j], slot[j + 1] = slot[j + 1], slot[j]
            if j + 1 >= top:  # the last occupied one took part: it is now j + 1 or j
                top = j + 1 if counts[j + 1] else j
        j += 1
    return np.argsort(slot)[c], np.array([log_v[: top + 1], log_w[: top + 1]])


def fit_msmm_dp(
    z, d, x, basis: MoranBasis, config: MixtureConfig | None = None
) -> MixturePosterior:
    """Slice sampler for the mixture model: the exact process, no truncation.

    The state is a labelling c, the sticks V_1..V_K of the components up
    to the last occupied one, their atoms, alpha and sigma2_eta.  A sweep:

    (1) slices s_i ~ U(0, pi_{c_i}); sticks V ~ Beta(1, alpha) and base
        atoms are added until the mass past the last one is below
        min_i s_i, so every component a slice admits is held;
    (2) assignments from 1(pi_m > s_i) N(z_i; u_i' theta_m, d_i);
    (3) sticks V_m ~ Beta(1 + n_m, alpha + sum_{l>m} n_l) up to the last
        occupied component, then ``_switch_labels``;
    (4) atoms of those components and sigma2_eta, as in the truncated
        sampler;
    (5) alpha ~ Gamma(a_alpha + K, b_alpha - sum_m log(1 - V_m)) over the
        K sticks of (3); later sticks are drawn afresh under it.

    The chain starts where a sweep does, from a labelling with sticks and
    atoms drawn given it: a partition from ``crp_simulate``, sticks as in
    (3), atoms from the cluster posteriors, alpha = 1, sigma2_eta = 1.
    ``truncation_m`` is not read.
    """
    config, rows, chol_k_inv = _prepare(z, d, x, basis, config)
    p = rows.p
    rng = np.random.default_rng(config.seed)

    alpha = config.alpha_fixed if config.alpha_fixed is not None else 1.0
    base = BaseMeasure(p, config.sigma2_beta, 1.0, basis.k_inv)
    c = crp_simulate(alpha, rows.n, rng)
    sticks = _draw_sticks(rng, np.bincount(c, minlength=c.max() + 2), alpha)
    prec0 = base.prior_precision()
    theta = np.array(
        [
            _gaussian_draw(rng, _cholesky(prec0 + f, "atom posterior precision"), g)
            for f, g in _component_sums(rows, c, sticks.shape[1])
        ]
    )

    draws = DrawRecorder(config)
    for t in range(config.iterations):
        pi = np.exp(_log_weights(sticks))  # the K weights, then the mass past them
        s = pi[c] * rng.random(rows.n)
        rest, s_min = pi[-1], s.min()
        while rest >= s_min:
            added = _beta_logs(rng, [1.0], alpha)
            rest *= math.exp(added[1, 0])
            sticks = np.concatenate([sticks, added], axis=1)
            theta = np.vstack([theta, base.draw(rng, chol_k_inv)])
        pi = np.exp(_log_weights(sticks))

        admitted = np.where(pi[None, :-1] > s[:, None], 0.0, -np.inf)
        c = _assign(rng, rows, theta, admitted)
        sticks = _draw_sticks(rng, np.bincount(c, minlength=c.max() + 2), alpha)
        c, sticks = _switch_labels(rng, c, sticks, alpha)
        stats = _component_sums(rows, c, sticks.shape[1])
        theta, k_occ, sigma2_eta = _draw_atoms(rng, stats, base, chol_k_inv, config, t)
        base = base.at(sigma2_eta)
        alpha = _draw_alpha(rng, sticks, alpha, config)
        _record(draws, t, rows, theta, c, alpha, sigma2_eta, k_occ)

    return MixturePosterior(**draws.columns, seed=config.seed)


def fit_msmm_truncated(
    z, d, x, basis: MoranBasis, config: MixtureConfig | None = None
) -> MixturePosterior:
    """Blocked Gibbs under an M-component stick-breaking truncation.

    Scan per iteration: assignments from the categorical conditional
    pi_m N(z_i; u_i' theta_m, d_i); sticks V_m ~ Beta(1 + n_m,
    alpha + sum_{l>m} n_l) with V_M = 1; occupied atoms from their
    cluster posteriors; sigma2_eta over them; empty components' atoms
    from the base measure at that sigma2_eta; alpha ~ Gamma(a_alpha +
    M - 1, b_alpha - sum_{m<M} log(1 - V_m)).
    """
    config, rows, chol_k_inv = _prepare(z, d, x, basis, config)
    p, m_comp = rows.p, config.truncation_m
    rng = np.random.default_rng(config.seed)

    theta = np.zeros((m_comp, p + basis.r))
    alpha = config.alpha_fixed if config.alpha_fixed is not None else 1.0
    base = BaseMeasure(p, config.sigma2_beta, 1.0, basis.k_inv)
    sticks = _beta_logs(rng, np.ones(m_comp - 1), alpha)

    draws = DrawRecorder(config)
    for t in range(config.iterations):
        c = _assign(rng, rows, theta, _log_weights(sticks))
        sticks = _draw_sticks(rng, np.bincount(c, minlength=m_comp), alpha)

        stats = _component_sums(rows, c, m_comp)
        theta, k_occ, sigma2_eta = _draw_atoms(rng, stats, base, chol_k_inv, config, t)
        base = base.at(sigma2_eta)
        alpha = _draw_alpha(rng, sticks, alpha, config)
        _record(draws, t, rows, theta, c, alpha, sigma2_eta, k_occ)

    return MixturePosterior(**draws.columns, seed=config.seed)

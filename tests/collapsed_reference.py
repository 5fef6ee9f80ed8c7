"""The collapsed Gibbs sampler for the mixture model, kept as a test reference.

``fit_collapsed`` integrates the atoms out of the assignment step and
moves one row at a time, so it shares no sweep code with the blocked
samplers in ``areamix.mixture``: agreement between it and the slice
sampler checks both.  It weighs each row's candidates with
``mixture._assignment_logw`` over ``mixture._cluster_blocks``, the kernel
``crp_assignment_probs`` runs and the brute-force oracles check, looked
up on the module at call time so tests can watch the calls.
"""

from __future__ import annotations

import math

import numpy as np

from areamix import mixture
from areamix.errors import DivergenceError, DomainError
from areamix.mixture import (
    BaseMeasure,
    MixtureConfig,
    MixturePosterior,
    _ClusterStats,
    _draw_atoms,
    _normalise,
    canonicalize_labels,
)
from areamix.msm import DrawRecorder, _check_data


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
        weights, blocks = mixture._cluster_blocks(stats, base, alpha)
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
            logw, su, var = mixture._assignment_logw(u_i, z_i, d_i, weights, blocks)
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

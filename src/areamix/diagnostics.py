"""Chain diagnostics: batch-means error, window comparison, PSRF, ESS."""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateChainError,
    DomainError,
    InsufficientDataError,
    ShapeError,
)

MIN_CHAIN = 100
# Geweke's windows: the first 10% of a chain against its last 50%
GEWEKE_FIRST = 0.1
GEWEKE_LAST = 0.5


def _as_chain(chain, minimum: int = MIN_CHAIN) -> np.ndarray:
    x = np.asarray(chain, dtype=float).ravel()
    if x.size < minimum:
        raise InsufficientDataError(f"chain of length {x.size} is too short (need {minimum})")
    if not np.all(np.isfinite(x)):
        raise DomainError("chain contains non-finite values")
    return x


def batch_means_se(chain) -> float:
    """Monte Carlo standard error of the chain mean by batch means.

    The batch size is floor(sqrt(length)); any remainder is dropped from
    the front of the chain, and the standard error is the standard
    deviation of the batch means (n-1 denominator) over sqrt(#batches).
    """
    x = _as_chain(chain)
    n = x.size
    b = int(math.isqrt(n))
    nb = n // b
    x = x[n - nb * b :]
    means = x.reshape(nb, b).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(nb))


def geweke(chain) -> float:
    """Z-score comparing the mean of the first 10% of a chain to its last 50%.

    Window means are compared with batch-means standard errors:
    z = (mean_first - mean_last) / sqrt(se_first^2 + se_last^2).
    Each window must hold at least 100 draws.
    """
    x = _as_chain(chain, minimum=2)
    n = x.size
    n_first = int(math.floor(GEWEKE_FIRST * n))
    n_last = int(math.floor(GEWEKE_LAST * n))
    if n_first < MIN_CHAIN or n_last < MIN_CHAIN:
        raise InsufficientDataError(
            f"windows of {n_first} and {n_last} draws are too short (need {MIN_CHAIN})"
        )
    head = x[:n_first]
    tail = x[n - n_last :]
    se_head = batch_means_se(head)
    se_tail = batch_means_se(tail)
    denom = math.sqrt(se_head**2 + se_tail**2)
    if denom == 0.0:
        raise DegenerateChainError("both windows have zero variance")
    return float((head.mean() - tail.mean()) / denom)


def gelman_rubin(chains) -> float:
    """Potential scale reduction factor over two or more equal-length chains.

    With W the mean within-chain variance and B/n the variance of the
    chain means, PSRF = sqrt(((n-1)/n W + B/n) / W).
    """
    arrs = [np.asarray(c, dtype=float).ravel() for c in chains]
    if len(arrs) < 2:
        raise ShapeError("need at least two chains")
    n = arrs[0].size
    if n < 2:
        raise InsufficientDataError("chains must have at least two draws")
    for c in arrs:
        if c.size != n:
            raise ShapeError("all chains must have the same length")
        if not np.all(np.isfinite(c)):
            raise DomainError("chain contains non-finite values")
    stacked = np.stack(arrs)
    within = float(stacked.var(axis=1, ddof=1).mean())
    if within == 0.0:
        raise DegenerateChainError("all chains have zero within-chain variance")
    b_over_n = float(stacked.mean(axis=1).var(ddof=1))
    return float(math.sqrt(((n - 1) / n * within + b_over_n) / within))


def effective_sample_size(chain) -> float:
    """Sample-variance to batch-means-variance ratio, capped at the length.

    ESS = s^2 / mcse^2 where mcse is the batch-means standard error of
    the mean; a chain with no variability reports its full length.
    """
    x = _as_chain(chain)
    n = x.size
    var = float(x.var(ddof=1))
    if var == 0.0:
        return float(n)
    mcse = batch_means_se(x)
    if mcse == 0.0:
        return float(n)
    return float(min(n, var / mcse**2))


def diagnostics_report(param_chains: dict[str, list]) -> dict:
    """Per-parameter diagnostics over one or more chains.

    For each parameter: per-chain Geweke z, batch-means MCSE, and ESS;
    plus the PSRF when at least two chains are present.  Chains that are
    too short or degenerate for a statistic record an explanatory note
    instead of a number, so one stuck parameter cannot sink a report.
    """
    report: dict[str, dict] = {}
    for name in sorted(param_chains):
        chains = [np.asarray(c, dtype=float).ravel() for c in param_chains[name]]
        entry: dict[str, object] = {
            "n_chains": len(chains),
            "chain_length": int(chains[0].size) if chains else 0,
        }
        z_scores: list = []
        mcses: list = []
        esses: list = []
        for c in chains:
            try:
                z_scores.append(float(geweke(c)))
            except (InsufficientDataError, DegenerateChainError) as exc:
                z_scores.append(str(exc))
            try:
                mcses.append(float(batch_means_se(c)))
                esses.append(float(effective_sample_size(c)))
            except InsufficientDataError as exc:
                mcses.append(str(exc))
                esses.append(str(exc))
        entry["geweke_z"] = z_scores
        entry["mcse"] = mcses
        entry["ess"] = esses
        if len(chains) >= 2:
            try:
                entry["psrf"] = float(gelman_rubin(chains))
            except (ShapeError, InsufficientDataError, DegenerateChainError) as exc:
                entry["psrf"] = str(exc)
        report[name] = entry
    return report

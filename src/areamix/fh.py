"""Baseline area-level model with exchangeable random effects.

    z_i = x_i' beta + nu_i + e_i,   e_i ~ N(0, d_i),   nu_i ~ N(0, sigma2)

with beta ~ N(0, sigma2_beta I) and sigma2 ~ InverseGamma(a, b).  Every
full conditional is conjugate, so the fit is a three-block Gibbs scan
(nu, beta, sigma2).  The latent field is y = X beta + nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DivergenceError
from .msm import ChainConfig, DrawRecorder, _check_data, _gaussian_draw, draw_inverse_gamma
from .util import _cholesky


@dataclass
class FhConfig(ChainConfig):
    sigma2_beta: float = 100.0
    a_sigma: float = 0.1
    b_sigma: float = 0.1
    # Hold the effect variance fixed instead of sampling it (conjugacy checks).
    sigma2_fixed: float | None = None

    positive: ClassVar[tuple[str, ...]] = ("sigma2_beta", "a_sigma", "b_sigma", "sigma2_fixed")


@dataclass(frozen=True)
class FhDraws:
    beta: np.ndarray
    nu: np.ndarray
    sigma2: np.ndarray
    y: np.ndarray


def fit_fh(z, d, x, config: FhConfig | None = None) -> FhDraws:
    """Gibbs-sample the exchangeable baseline model.

    nu_i | rest is Gaussian with precision 1/d_i + 1/sigma2 and mean
    pulled toward z_i - x_i' beta by the data precision; beta | rest has
    the usual ridge-regression form against the residual z - nu; and
    sigma2 | rest is InverseGamma(a + n/2, b + sum(nu^2)/2).

    Raises DefinitenessError when beta's posterior precision has no
    finite Cholesky factor, as with repeated or overflowing columns of x.
    """
    config = config or FhConfig()
    config.validate()
    z, d, x = _check_data(z, d, x)
    n, p = x.shape

    rng = np.random.default_rng(config.seed)
    xt_dinv = x.T / d
    prec_beta = xt_dinv @ x + np.eye(p) / config.sigma2_beta
    chol_beta = _cholesky(
        prec_beta, "beta posterior precision", "check the design for repeated or huge columns"
    )

    fixed = config.sigma2_fixed
    beta = np.zeros(p)
    nu = np.zeros(n)
    sigma2 = 1.0 if fixed is None else float(fixed)

    draws = DrawRecorder(config)
    for t in range(config.iterations):
        resid = z - x @ beta
        prec = 1.0 / d + 1.0 / sigma2
        mean_nu = (resid / d) / prec
        nu = mean_nu + rng.standard_normal(n) / np.sqrt(prec)

        beta = _gaussian_draw(rng, chol_beta, xt_dinv @ (z - nu))

        if fixed is None:
            sigma2 = draw_inverse_gamma(rng, config.a_sigma, config.b_sigma, n, float(nu @ nu), t)

        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(nu)) and np.isfinite(sigma2)):
            raise DivergenceError("non-finite draw", iteration=t)

        if draws.wants(t):
            y = x @ beta + nu
            if not np.all(np.isfinite(y)):
                raise DivergenceError("non-finite latent field", iteration=t)
            draws.record(beta=beta, nu=nu, sigma2=sigma2, y=y)

    return FhDraws(**draws.columns)

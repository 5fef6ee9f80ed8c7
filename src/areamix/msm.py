"""Spatial mixed-effects model on the log scale, fit by conjugate Gibbs.

Data model
    z = X beta + Psi eta + noise,  noise ~ N(0, diag(d)) with d known.
Priors
    beta ~ N(0, sigma2_beta I)
    eta | sigma2_eta ~ N(0, sigma2_eta K),  K^{-1} = Psi' Q Psi
    sigma2_eta ~ InverseGamma(a_eta, b_eta)   [shape/scale]

Given sigma2_eta, theta = (beta, eta) has the Gaussian prior
``BaseMeasure`` and, with U = [X, Psi], one Gaussian posterior of
precision P = U' D^{-1} U + Sigma0^{-1}; sigma2_eta given eta is
inverse gamma (``draw_inverse_gamma``, which every sampler calls once a
sweep).  The module forms that coefficient posterior in these parts:

* ``_component_sums`` forms F = U' D^{-1} U and g = U' D^{-1} z of
  every component of a labelling, summed per (area, component) from the
  whitened rows of ``_Rows``.  The mixture samplers (``mixture``) draw
  each component's atom from them, and ``fit_msm`` makes the
  one-component call.
* ``fit_msm`` then uses that only sigma2_eta moves P between sweeps,
  along B = blockdiag(0, K^{-1}) alone: it diagonalises P against B once
  per fit (``_diagonalise``) and draws theta and sigma2_eta in O(p + r)
  a sweep.
* ``_gaussian_draw`` draws from N(P^{-1} g, P^{-1}) given the Cholesky
  factor of P (``util._cholesky``): mixture atoms, prior etas and fh's beta.

``ChainConfig`` and ``DrawRecorder`` are the chain settings and draw
storage that every sampler shares.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg import get_lapack_funcs

from .basis import MoranBasis
from .errors import DefinitenessError, DivergenceError, DomainError, ShapeError
from .util import _cholesky


@dataclass
class ChainConfig:
    """Chain length, retention, and seed: what every sampler's settings share.

    Subclasses name their finite, strictly positive fields in
    ``positive``; a field left at None (an optional pin) is not checked.
    """

    iterations: int = 5000
    burn_in: int = 1000
    thin: int = 1
    seed: int = 0

    positive: ClassVar[tuple[str, ...]] = ()

    def validate(self) -> None:
        if self.iterations < 1 or self.burn_in < 0 or self.burn_in >= self.iterations:
            raise DomainError("need 0 <= burn_in < iterations")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise DomainError("seed must be a 64-bit nonnegative integer")
        for name in self.positive:
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be finite and positive, got {value}")

    def retained(self) -> range:
        """The sweeps whose draws are kept: burn_in onwards, every thin-th."""
        return range(self.burn_in, self.iterations, self.thin)


_MAPPED_COLUMN_BYTES = 4 << 20  # numpy's own size for a "large" array


def _draw_column(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised column of draws.  A column of _MAPPED_COLUMN_BYTES
    or more gets a private memory map, unmapped when the array goes; freed
    into the C heap, a block that large stays resident or not by the heap's
    layout, so a process fitting chain after chain would peak at varying
    memory.  Smaller columns reuse heap memory, cheaper than a fresh map."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes < _MAPPED_COLUMN_BYTES:
        return np.empty(shape, dtype=dtype)
    buffer = mmap.mmap(-1, nbytes, access=mmap.ACCESS_COPY)  # private, faster than shared
    if hasattr(mmap, "MADV_HUGEPAGE"):  # as numpy advises its own large arrays
        buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buffer, dtype=dtype).reshape(shape)


class DrawRecorder:
    """The retained draws of one chain, one row per sweep of ``retained()``.

    Each column is sized on the first ``record`` call from the value it
    is given: numpy values keep their dtype, Python scalars are floats.
    """

    def __init__(self, config: ChainConfig):
        self.keep = config.retained()
        self.columns: dict[str, np.ndarray] = {}
        self._slot = 0

    def wants(self, t: int) -> bool:
        return t in self.keep

    def record(self, **values) -> None:
        if not self.columns:
            for name, value in values.items():
                shape = (len(self.keep), *np.shape(value))
                self.columns[name] = _draw_column(shape, getattr(value, "dtype", float))
        for name, value in values.items():
            self.columns[name][self._slot] = value
        self._slot += 1


@dataclass
class MsmConfig(ChainConfig):
    """Sampler settings; hyperparameter defaults follow the reference fit."""

    sigma2_beta: float = 100.0
    a_eta: float = 0.1
    b_eta: float = 0.1
    # Hold the basis-coefficient variance fixed instead of sampling it.
    # Used by conjugacy checks where the Gaussian posterior is closed-form.
    sigma2_eta_fixed: float | None = None

    positive: ClassVar[tuple[str, ...]] = ("sigma2_beta", "a_eta", "b_eta", "sigma2_eta_fixed")


@dataclass(frozen=True)
class PosteriorDraws:
    """Retained Gibbs output for the single-field model."""

    beta: np.ndarray
    eta: np.ndarray
    sigma2_eta: np.ndarray
    y: np.ndarray


def _check_data(z, d, x):
    """Coerce and check (z, d, x): n values, n positive variances, an (n, p) design."""
    z = np.asarray(z, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    n = z.size
    if d.shape != (n,):
        raise ShapeError("z and d must have the same length")
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeError("design must be (n, p)")
    if not np.all(np.isfinite(z)):
        raise DomainError("z must be finite")
    if not np.all(np.isfinite(d)) or np.any(d <= 0):
        raise DomainError("all variances d must be finite and positive (impute first)")
    return z, d, x


@dataclass(frozen=True)
class BaseMeasure:
    """The prior N(0, Sigma0) of theta = (beta, eta) given sigma2_eta, and
    the mixture's base measure G0.

    Sigma0 = blockdiag(sigma2_beta I_p, sigma2_eta K), held through the
    spatial precision ``k_inv`` = K^{-1} alone.
    """

    p: int
    sigma2_beta: float
    sigma2_eta: float
    k_inv: np.ndarray

    @property
    def r(self) -> int:
        return self.k_inv.shape[0]

    @property
    def dim(self) -> int:
        return self.p + self.r

    def at(self, sigma2_eta: float) -> "BaseMeasure":
        """This measure at another sigma2_eta."""
        return BaseMeasure(self.p, self.sigma2_beta, sigma2_eta, self.k_inv)

    def prior_precision(self) -> np.ndarray:
        q, p = self.dim, self.p
        prec = np.zeros((q, q))
        np.fill_diagonal(prec[:p, :p], 1.0 / self.sigma2_beta)
        np.divide(self.k_inv, self.sigma2_eta, out=prec[p:, p:])
        return prec

    def draw(self, rng: np.random.Generator, chol_k_inv: np.ndarray) -> np.ndarray:
        """One draw from N(0, Sigma0): eta is sqrt(sigma2_eta) times the
        ``_gaussian_draw`` of N(0, K) from the factor ``chol_k_inv`` of K^{-1}."""
        head = math.sqrt(self.sigma2_beta) * rng.standard_normal(self.p)
        eta = _gaussian_draw(rng, chol_k_inv, np.zeros(self.r))
        return np.concatenate([head, math.sqrt(self.sigma2_eta) * eta])


def draw_inverse_gamma(rng: np.random.Generator, a, b, dof=0, quad=0.0, iteration=None) -> float:
    """One InverseGamma(a + dof/2, b + quad/2) variate, as 1 / Gamma(shape, rate=scale):
    the law of an InverseGamma(a, b) variance given ``dof`` Gaussian coordinates
    with precision-weighted sum of squares ``quad``.  A non-finite scale raises
    DivergenceError at ``iteration``."""
    scale = b + quad / 2.0
    if not np.isfinite(scale):
        raise DivergenceError("inverse-gamma scale diverged", iteration=iteration)
    return float(1.0 / rng.gamma(a + dof / 2.0, 1.0 / scale))


class _Rows:
    """The rows of a fit, checked and whitened once, with their areas.

    With w = 1/d: ``x`` (n, p); ``w``; ``xz_w`` = [x w, z w], whose sums
    per (area, component) give s_x and s_z; ``xz_root`` = [x sqrt(w),
    z sqrt(w)], whose products give the xx block of F and X' D^{-1} z;
    ``area`` = i // L, the area of row i; ``area_psi`` = A, the basis's
    area rows (contiguous), and ``cells`` = L.  The rows are area-major,
    so ``area`` is nondecreasing; the basis must cover them (m L = n).
    """

    __slots__ = ("z", "x", "w", "xz_w", "xz_root", "area", "area_psi", "cells")

    def __init__(self, z, d, x, basis: MoranBasis):
        z, d, x = _check_data(z, d, x)
        if basis.n != z.size:
            raise ShapeError("basis must be (n, r)")
        self.z, self.x, self.w = z, x, 1.0 / d
        xz = np.column_stack([x, z])
        self.xz_w = xz * self.w[:, None]
        self.xz_root = xz * np.sqrt(self.w)[:, None]
        self.cells = basis.cells
        self.area = np.arange(z.size) // self.cells
        self.area_psi = np.ascontiguousarray(basis.area_psi)

    @property
    def n(self) -> int:
        return self.z.size

    @property
    def p(self) -> int:
        return self.x.shape[1]


def _component_sums(rows: _Rows, c: np.ndarray, m_comp: int):
    """(F, g) of components 0..m_comp-1 under labels c, or None for an empty
    one, with F = U_c' D_c^{-1} U_c and g = U_c' D_c^{-1} z_c over the
    component's rows, U = [X, Psi].

    Each area's rows share one row a_k of A = ``rows.area_psi``.  So with
    the sums per (area, component) group s_w = sum 1/d, s_x = sum x/d and
    s_z = sum z/d, and G = diag(sqrt(s_w)) A over the component's groups,
    the psi-psi block is G'G, the psi-x block G'(s_x / sqrt(s_w)) and the
    psi part of g G'(s_z / sqrt(s_w)); the xx block and the x part of g
    come from the whitened rows.  No n x r product is formed.  A stable
    sort on c keeps the area-major row order within each component, so
    the rows fall in (component, area) order; for L = 1 every group is
    one row and needs no sum.  Yielded one at a time: holding all of them
    keeps m_comp (q, q) arrays alive.
    """
    p = rows.p
    order = np.argsort(c, kind="stable")
    c_sorted = c[order]
    xz_root = rows.xz_root[order]
    row_bounds = np.concatenate([[0], np.cumsum(np.bincount(c, minlength=m_comp))])
    if rows.cells == 1:
        comp, area, s_w, s_xz = c_sorted, rows.area[order], rows.w[order], rows.xz_w[order]
    else:
        key = c_sorted * (rows.area[-1] + 1) + rows.area[order]
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        comp, area = c_sorted[starts], rows.area[order[starts]]
        s_w = np.add.reduceat(rows.w[order], starts)
        s_xz = np.add.reduceat(rows.xz_w[order], starts, axis=0)
    root = np.sqrt(s_w)
    s_xz /= root[:, None]
    group_bounds = np.concatenate([[0], np.cumsum(np.bincount(comp, minlength=m_comp))])
    for m in range(m_comp):
        lo, hi = row_bounds[m], row_bounds[m + 1]
        if lo == hi:
            yield None
            continue
        g_lo, g_hi = group_bounds[m], group_bounds[m + 1]
        whitened = xz_root[lo:hi]
        spatial = rows.area_psi[area[g_lo:g_hi]]
        spatial *= root[g_lo:g_hi, None]
        top = whitened[:, :p].T @ whitened  # [X'D^{-1}X, X'D^{-1}z]
        cross = spatial.T @ s_xz[g_lo:g_hi]  # [A's_x, A's_z]
        f = np.empty((p + cross.shape[0],) * 2)
        f[:p, :p] = top[:, :p]
        f[p:, :p] = cross[:, :p]
        f[:p, p:] = cross[:, :p].T
        f[p:, p:] = spatial.T @ spatial
        yield f, np.concatenate([top[:, p], cross[:, p]])


_trtrs = get_lapack_funcs("trtrs", dtype=np.float64)


def _gaussian_draw(rng: np.random.Generator, chol: np.ndarray, g: np.ndarray) -> np.ndarray:
    """One draw from N(P^{-1} g, P^{-1}) given the Cholesky factor C of P = C C'.

    The draw is C'^{-1}(C^{-1} g + e), e standard normal: the mean
    C'^{-1} C^{-1} g plus C'^{-1} e in one back-substitution.  Both solves
    call LAPACK trtrs directly, on the Fortran-ordered view C' of numpy's
    C-ordered factor, as scipy's ``solve_triangular`` does for it, minus
    that wrapper's checks; a zero on C's diagonal raises DefinitenessError.
    """
    c_t = chol.T
    half, info = _trtrs(c_t, g, lower=False, trans=1)
    if info == 0:
        half += rng.standard_normal(g.size)
        theta, info = _trtrs(c_t, half, lower=False, trans=0, overwrite_b=True)
    if info != 0:
        raise DefinitenessError(f"Cholesky factor is singular (LAPACK trtrs info {info})")
    return theta


def _diagonalise(f, g, base: BaseMeasure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalise the coefficient posterior against the spatial prior.

    ``base`` is the prior at sigma2_eta = 1, so P_1 = F + Sigma0^{-1} is
    the posterior precision there and P = P_1 + (1/sigma2_eta - 1) B at
    any sigma2_eta, with B = blockdiag(0, K^{-1}).  The pencil (B, P_1) is
    symmetric-definite: with P_1 = C C' and R diag(mu) R' the
    eigendecomposition of C^{-1} B C^{-T}, V = C^{-T} R gives V' P_1 V = I
    and V' B V = diag(mu), mu in [0, 1].  So V' P V = diag(1/s) with
    s = ``_pencil_scales(mu, sigma2_eta)``, and theta | sigma2_eta is
    N(V (s t), V diag(s) V') with t = V' g.

    Returns (mu, V, t).  Raises DefinitenessError when P_1 is not
    positive definite.
    """
    p = base.p
    chol = _cholesky(f + base.prior_precision(), "coefficient posterior precision")
    chol_inv = np.linalg.inv(chol)
    half = chol_inv[:, p:]
    mu, rot = np.linalg.eigh(half @ base.k_inv @ half.T)
    v = chol_inv.T @ rot
    return np.clip(mu, 0.0, 1.0), v, v.T @ g


def _pencil_scales(mu: np.ndarray, sigma2_eta: float) -> np.ndarray:
    """Posterior variances s of V^{-1} theta at sigma2_eta (see ``_diagonalise``)."""
    return 1.0 / (1.0 + (1.0 / sigma2_eta - 1.0) * mu)


def fit_msm(z, d, x, basis: MoranBasis, config: MsmConfig | None = None) -> PosteriorDraws:
    """Gibbs-sample the spatial mixed-effects model.

    Each sweep draws theta = (beta, eta) from its joint conditional given
    sigma2_eta, then sigma2_eta given eta, starting from sigma2_eta = 1.
    Both run in the coordinates w = V^{-1} theta of ``_diagonalise``,
    formed once per fit: w ~ N(s t, diag(s)), and eta' K^{-1} eta =
    sum mu w^2.  Retained iterations are those at or past burn_in,
    stepping by thin; for those, theta = V w and the latent field
    y = X beta + Psi eta are stored, with Psi eta formed on the area
    rows and repeated over each area's L entries.

    Raises DefinitenessError if the posterior precision at sigma2_eta = 1
    is not positive definite, and DivergenceError (with the iteration
    index) if any draw goes non-finite.
    """
    config = config or MsmConfig()
    config.validate()
    rows = _Rows(z, d, x, basis)
    p, r = rows.p, basis.r

    rng = np.random.default_rng(config.seed)
    base = BaseMeasure(p, config.sigma2_beta, 1.0, basis.k_inv)
    f, g = next(_component_sums(rows, np.zeros(rows.n, dtype=np.intp), 1))
    mu, v, t = _diagonalise(f, g, base)
    fixed = config.sigma2_eta_fixed
    sigma2_eta = 1.0 if fixed is None else float(fixed)

    draws = DrawRecorder(config)
    for sweep in range(config.iterations):
        s = _pencil_scales(mu, sigma2_eta)
        w = s * t + np.sqrt(s) * rng.standard_normal(s.size)

        if fixed is None:
            quad = float(mu @ (w * w))
            sigma2_eta = draw_inverse_gamma(rng, config.a_eta, config.b_eta, r, quad, sweep)

        if not (np.all(np.isfinite(w)) and np.isfinite(sigma2_eta)):
            raise DivergenceError("non-finite draw", iteration=sweep)

        if draws.wants(sweep):
            theta = v @ w
            y = rows.x @ theta[:p] + np.repeat(rows.area_psi @ theta[p:], rows.cells)
            if not np.all(np.isfinite(y)):
                raise DivergenceError("non-finite latent field", iteration=sweep)
            draws.record(beta=theta[:p], eta=theta[p:], sigma2_eta=sigma2_eta, y=y)

    return PosteriorDraws(**draws.columns)

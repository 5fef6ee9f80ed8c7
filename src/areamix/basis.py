"""Spatial basis construction from the Moran operator.

The operator projects the adjacency structure onto the orthogonal
complement of the fixed-effect design, and its leading eigenvectors give
a basis for smooth spatial variation that the covariates cannot absorb.
The induced prior precision for basis coefficients is Psi' Q Psi, which
is the Frobenius-optimal restriction of the full graph precision Q.
For a table of L cells per area all of it is computed on the m x m area
adjacency; the basis keeps the m area rows of its n = m L entries.
"""

from __future__ import annotations

import hashlib
import math
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, EmptyBasisError, RankError, ShapeError
from .spatial import _check_adjacency, icar_precision
from .util import _cholesky

EIGENVALUE_TOLERANCE = 1e-10  # relative threshold that calls an eigenvalue positive
# how far an eigenvalue of S'S may sit from 0 or 1 (see moran_operator)
PROJECTOR_TOLERANCE = 1e-10
DEFAULT_FRACTION = 0.5


@dataclass(frozen=True)
class MoranBasis:
    """Selected eigenvectors with the induced coefficient prior.

    area_psi : (m, r) area rows; the basis Psi of the n = m L entries,
        never formed, repeats each L times, area-major.  Its columns are
        orthonormal, each orthogonal to the design
    eigenvalues : the r selected (positive) eigenvalues, descending
    k_inv : (r, r) prior precision Psi' Q Psi, the inverse of the
        prior covariance K up to the scale parameter (K is never formed)
    n_positive : how many positive eigenvalues the operator had in total,
        above EIGENVALUE_TOLERANCE times the largest magnitude
    cells : entries per area L (1 for an entry-level basis)

    Construction raises ShapeError when these shapes disagree and
    DomainError unless cells is an int >= 1.
    """

    area_psi: np.ndarray
    eigenvalues: np.ndarray
    k_inv: np.ndarray
    n_positive: int
    cells: int = 1

    def __post_init__(self):
        shape = np.shape(self.area_psi)
        if len(shape) != 2 or min(shape) < 1:
            raise ShapeError(f"basis area rows must be (m, r) with m, r >= 1, got {shape}")
        r = shape[1]
        for name, want in (("eigenvalues", (r,)), ("k_inv", (r, r))):
            got = np.shape(getattr(self, name))
            if got != want:
                raise ShapeError(f"basis {name} must be {want}, got {got}")
        if not isinstance(self.cells, int) or self.cells < 1:
            raise DomainError(f"basis cells must be an int >= 1, got {self.cells!r}")

    @property
    def n(self) -> int:
        return self.area_psi.shape[0] * self.cells

    @property
    def r(self) -> int:
        return self.area_psi.shape[1]


def moran_operator(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(I - SS') A (I - SS') over the m rows of the adjacency A.

    The design's n rows are L = n / m entries per row of A, area-major;
    S is the per-area sums of an orthonormal basis of col(X) over
    sqrt(L).  An n x n A (L = 1) gives (I - P_X) A (I - P_X).  An m x m
    area adjacency W gives the operator whose eigenpairs (v, lam) are
    (v (x) 1_L / sqrt(L), L lam) for (I - P_X)(W (x) J_L)(I - P_X).
    That needs col(X) to split into area-level and within-area parts
    (S'S a projector); otherwise this raises DomainError.  A is checked
    as every adjacency is (``spatial._check_adjacency``), and X for
    finite entries, before any factorisation.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError("design matrix must be 2-D")
    if not np.all(np.isfinite(x)):
        raise DomainError("design entries must be finite")
    n, p = x.shape
    a = _check_adjacency(a)
    m = a.shape[0]
    if m == 0 or n == 0 or n % m:
        raise ShapeError(f"design has {n} rows, not a positive multiple of the adjacency's {m}")
    if np.linalg.matrix_rank(x) < p:
        raise RankError("design matrix is rank deficient")
    q_x, _ = np.linalg.qr(x)
    cells = n // m
    s = q_x.reshape(m, cells, p).sum(axis=1) / math.sqrt(cells)
    overlap = np.linalg.eigvalsh(s.T @ s)
    if np.any(np.minimum(np.abs(overlap), np.abs(overlap - 1.0)) > PROJECTOR_TOLERANCE):
        raise DomainError(
            f"the design varies within areas beyond cell effects, so the basis does not "
            f"reduce to the {m} x {m} adjacency; pass the entry-level adjacency "
            f"expand_multivariate(w, {cells}) instead"
        )
    # G = A - S(S'A) - (AS)S' + S(S'AS)S' without forming the projector
    sa = s.T @ a
    g = a - s @ sa - sa.T @ s.T + s @ (sa @ s) @ s.T
    return (g + g.T) / 2.0


def check_basis_request(fraction: float | None, r: int | None) -> None:
    """Raise DomainError unless at most one of fraction and r is given,
    fraction in (0, 1] and r >= 1 (the size request ``select_basis`` takes)."""
    if fraction is not None and r is not None:
        raise DomainError("give either fraction or r, not both")
    if fraction is not None and not (0.0 < fraction <= 1.0):
        raise DomainError(f"fraction must lie in (0, 1], got {fraction}")
    if r is not None and r < 1:
        raise DomainError(f"r must be >= 1, got {r}")


def select_basis(
    g: np.ndarray, fraction: float | None = None, r: int | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Keep eigenvectors of the r largest positive eigenvalues of g.

    Parameters
    ----------
    g : symmetric operator (exactly, as ``moran_operator`` returns it).
    fraction : requested share of the positive eigenvalues, in (0, 1];
        the request is floor(fraction * n_positive).  Defaults to 0.5
        when neither fraction nor r is given.
    r : explicit number of basis functions; capped at n_positive.

    Eigenvalues are positive when they exceed EIGENVALUE_TOLERANCE *
    max(|eigenvalues|).

    Returns
    -------
    (psi, eigenvalues, n_positive) with eigenvalues descending.  Each
    column's sign is fixed so its largest-magnitude entry is positive
    (ties broken by the lowest index).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ShapeError("operator must be square")
    if not np.array_equal(g, g.T):
        raise DomainError("operator must be symmetric")
    check_basis_request(fraction, r)
    if fraction is None and r is None:
        fraction = DEFAULT_FRACTION

    w, v = np.linalg.eigh(g)
    max_abs = float(np.max(np.abs(w))) if w.size else 0.0
    if max_abs == 0.0:
        raise EmptyBasisError("operator is zero; no positive eigenvalues")
    positive = w > EIGENVALUE_TOLERANCE * max_abs
    n_positive = int(positive.sum())
    if n_positive == 0:
        raise EmptyBasisError("no positive eigenvalues above tolerance")
    requested = int(math.floor(fraction * n_positive)) if r is None else int(r)
    r_eff = min(requested, n_positive)
    if r_eff < 1:
        raise EmptyBasisError(
            f"request resolves to an empty basis ({n_positive} positive eigenvalues)"
        )
    order = np.argsort(w)[::-1][:r_eff]
    psi = np.take(v, order, axis=1)  # C-ordered, as the cache writes it
    lead = psi[np.argmax(np.abs(psi), axis=0), np.arange(r_eff)]
    psi *= np.where(lead < 0, -1.0, 1.0)
    return psi, w[order], n_positive


def basis_precision(psi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Restrict the graph precision to the basis: k_inv = Psi' Q Psi.

    Returns k_inv, symmetrised.  It must be positive definite, which
    holds whenever the design contains an intercept; one without a finite
    Cholesky factor is reported as a definiteness error (typical causes:
    no intercept column, or a disconnected graph whose component
    indicators leak into the basis).
    """
    psi = np.asarray(psi, dtype=float)
    q = np.asarray(q, dtype=float)
    if psi.ndim != 2:
        raise ShapeError("psi must be 2-D")
    n = psi.shape[0]
    if q.shape != (n, n):
        raise ShapeError(f"precision is {q.shape}, basis has {n} rows")
    k_inv = psi.T @ q @ psi
    k_inv = (k_inv + k_inv.T) / 2.0
    _cholesky(
        k_inv,
        "basis precision Psi' Q Psi",
        "check that the design has an intercept and the graph is connected",
    )
    return k_inv


def build_basis(
    x: np.ndarray, a: np.ndarray, fraction: float | None = None, r: int | None = None
) -> MoranBasis:
    """Full pipeline: operator, eigenvector selection, induced prior.

    ``x`` is the n x p entry-level design and ``a`` an m x m adjacency
    over L = n / m entries per row, area-major: the area adjacency W of
    an L-cell table, or an n x n entry-level adjacency (L = 1).  The
    eigenpairs (V, lam) of ``moran_operator(x, a)`` lift to Psi =
    V (x) 1_L / sqrt(L) with eigenvalues L lam, and the prior precision
    Psi' Q Psi of Q = icar_precision(W (x) J_L) is L V' (D_W - W) V.  The
    basis keeps the area rows V / sqrt(L), so no array with n rows is
    formed for L > 1, and the prior as that precision alone.
    """
    v, eigenvalues, n_positive = select_basis(moran_operator(x, a), fraction=fraction, r=r)
    k_inv = basis_precision(v, icar_precision(a))
    cells = np.shape(x)[0] // np.shape(a)[0]
    return MoranBasis(
        area_psi=v / math.sqrt(cells),
        eigenvalues=cells * eigenvalues,
        k_inv=cells * k_inv,
        n_positive=n_positive,
        cells=cells,
    )


def _array_digest(*arrays: np.ndarray) -> str:
    """sha256 over each array's shape and C-ordered bytes, in turn."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(repr(array.shape).encode())
        h.update(np.ascontiguousarray(array))
    return h.hexdigest()


def basis_cache_key(x: np.ndarray, a: np.ndarray) -> str:
    """Content hash identifying a (design, adjacency) pair."""
    return _array_digest(np.asarray(x, dtype=float), np.asarray(a, dtype=float))


def cache_path(directory: str | Path, key: str) -> Path:
    return Path(directory) / f"moran_{key[:16]}.npz"


# the arrays of a cache entry, in the order its digest covers them
_ENTRY_ARRAYS = ("area_psi", "cells", "eigenvalues", "k_inv", "meta")


def save_basis(basis: MoranBasis, directory: str | Path, key: str) -> Path:
    """Persist a basis keyed by the content hash of its inputs.

    The file keeps the basis's area rows, L and k_inv, the meta pair
    (n_positive, EIGENVALUE_TOLERANCE), and a ``digest`` of those arrays
    that ``load_basis`` checks.  It is written beside its final name and
    moved into place, so an interrupted save never leaves a partial entry
    under that name.
    """
    path = cache_path(directory, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}.part")
    arrays = dict(
        area_psi=basis.area_psi,
        cells=np.array(basis.cells),
        eigenvalues=basis.eigenvalues,
        k_inv=basis.k_inv,
        meta=np.array([float(basis.n_positive), EIGENVALUE_TOLERANCE]),
    )
    digest = _array_digest(*(arrays[name] for name in _ENTRY_ARRAYS))
    try:
        with open(partial, "wb") as fh:
            np.savez(fh, **arrays, digest=np.array(digest))
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return path


def load_basis(directory: str | Path, key: str) -> MoranBasis | None:
    """Load a cached basis as its area rows, or None when the key is absent
    or its file unreadable, in an older format (one without ``area_psi``),
    without a ``digest`` or with one its arrays disagree with (an altered
    entry), or holding arrays whose shapes disagree.  A ``k`` (older
    entries hold K) is not read, and the meta pair's tolerance is not
    checked: it is always EIGENVALUE_TOLERANCE."""
    path = cache_path(directory, key)
    if not path.exists():
        return None
    try:
        with np.load(path) as data:
            arrays = [data[name] for name in _ENTRY_ARRAYS]
            if str(data["digest"]) != _array_digest(*arrays):
                return None
            area_psi, cells, eigenvalues, k_inv, meta = arrays
            return MoranBasis(
                area_psi=area_psi,
                eigenvalues=eigenvalues,
                k_inv=k_inv,
                n_positive=int(meta[0]),
                cells=int(cells),
            )
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        # a truncated or corrupt entry is a miss: the caller rebuilds and overwrites it
        return None

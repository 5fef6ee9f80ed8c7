"""Spatial basis construction from the Moran operator.

The operator projects the adjacency structure onto the orthogonal
complement of the fixed-effect design, and its leading eigenvectors give
a basis for smooth spatial variation that the covariates cannot absorb.
The induced prior precision for basis coefficients is Psi' Q Psi, which
is the Frobenius-optimal restriction of the full graph precision Q.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DefinitenessError,
    DomainError,
    EmptyBasisError,
    RankError,
    ShapeError,
)
from .util import sha256_bytes

EIGENVALUE_TOLERANCE = 1e-10
DEFAULT_FRACTION = 0.5


@dataclass(frozen=True)
class MoranBasis:
    """Selected eigenvectors with the induced coefficient prior.

    psi : (n, r) orthonormal columns, each orthogonal to the design
    eigenvalues : the r selected (positive) eigenvalues, descending
    k_inv : (r, r) prior precision Psi' Q Psi
    k : its inverse, the prior covariance up to the scale parameter
    n_positive : how many positive eigenvalues the operator had in total
    tolerance : relative threshold used to call an eigenvalue positive
    """

    psi: np.ndarray
    eigenvalues: np.ndarray
    k_inv: np.ndarray
    k: np.ndarray
    n_positive: int
    tolerance: float

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @property
    def r(self) -> int:
        return self.psi.shape[1]


def moran_operator(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(I - P_X) A (I - P_X) with P_X the projector onto col(X)."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    if x.ndim != 2:
        raise ShapeError("design matrix must be 2-D")
    n, p = x.shape
    if a.shape != (n, n):
        raise ShapeError(f"adjacency is {a.shape}, design has {n} rows")
    if not np.allclose(a, a.T):
        raise DomainError("adjacency must be symmetric")
    if np.linalg.matrix_rank(x) < p:
        raise RankError("design matrix is rank deficient")
    q_x, _ = np.linalg.qr(x)
    # G = A - Q(Q'A) - (AQ)Q' + Q(Q'AQ)Q' without forming the projector
    qa = q_x.T @ a
    g = a - q_x @ qa - qa.T @ q_x.T + q_x @ (qa @ q_x) @ q_x.T
    return (g + g.T) / 2.0


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
    if fraction is not None and r is not None:
        raise DomainError("give either fraction or r, not both")
    if fraction is None and r is None:
        fraction = DEFAULT_FRACTION
    if fraction is not None and not (0.0 < fraction <= 1.0):
        raise DomainError(f"fraction must lie in (0, 1], got {fraction}")
    if r is not None and r < 1:
        raise DomainError(f"r must be >= 1, got {r}")

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
    eigenvalues = w[order].copy()
    psi = v[:, order].copy()
    for j in range(r_eff):
        col = psi[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            psi[:, j] = -col
    return psi, eigenvalues, n_positive


def basis_precision(psi: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Restrict the graph precision to the basis: k_inv = Psi' Q Psi.

    Returns (k_inv, k).  k_inv must be symmetric positive definite,
    which holds whenever the design contains an intercept; a Cholesky
    failure is reported as a definiteness error (typical causes: no
    intercept column, or a disconnected graph whose component indicators
    leak into the basis).
    """
    psi = np.asarray(psi, dtype=float)
    q = np.asarray(q, dtype=float)
    if psi.ndim != 2:
        raise ShapeError("psi must be 2-D")
    n, r = psi.shape
    if q.shape != (n, n):
        raise ShapeError(f"precision is {q.shape}, basis has {n} rows")
    k_inv = psi.T @ q @ psi
    k_inv = (k_inv + k_inv.T) / 2.0
    try:
        chol = np.linalg.cholesky(k_inv)
    except np.linalg.LinAlgError:
        raise DefinitenessError(
            "basis precision Psi' Q Psi is not positive definite; "
            "check that the design has an intercept and the graph is connected"
        ) from None
    ident = np.eye(r)
    half = np.linalg.solve(chol, ident)
    k = half.T @ half
    k = (k + k.T) / 2.0
    return k_inv, k


def build_basis(
    x: np.ndarray, a: np.ndarray, fraction: float | None = None, r: int | None = None
) -> MoranBasis:
    """Full pipeline: operator, eigenvector selection, induced prior.

    The graph precision Q is formed only after the eigensolve, once the
    operator is freed, so the two dense matrices are never held together.
    """
    from .spatial import icar_precision

    psi, eigenvalues, n_positive = select_basis(moran_operator(x, a), fraction=fraction, r=r)
    k_inv, k = basis_precision(psi, icar_precision(a))
    return MoranBasis(
        psi=psi,
        eigenvalues=eigenvalues,
        k_inv=k_inv,
        k=k,
        n_positive=n_positive,
        tolerance=EIGENVALUE_TOLERANCE,
    )


def basis_cache_key(x: np.ndarray, a: np.ndarray) -> str:
    """Content hash identifying a (design, adjacency) pair."""
    x = np.ascontiguousarray(np.asarray(x, dtype=float))
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    h = io.BytesIO()
    h.write(repr(x.shape).encode())
    h.write(x.tobytes())
    h.write(repr(a.shape).encode())
    h.write(a.tobytes())
    return sha256_bytes(h.getvalue())


def cache_path(directory: str | Path, key: str) -> Path:
    return Path(directory) / f"moran_{key[:16]}.npz"


def save_basis(basis: MoranBasis, directory: str | Path, key: str) -> Path:
    """Persist a basis keyed by the content hash of its inputs."""
    path = cache_path(directory, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(
            fh,
            psi=basis.psi,
            eigenvalues=basis.eigenvalues,
            k_inv=basis.k_inv,
            k=basis.k,
            meta=np.array([float(basis.n_positive), basis.tolerance]),
        )
    return path


def load_basis(directory: str | Path, key: str) -> MoranBasis | None:
    """Load a cached basis, or None when the key is absent."""
    path = cache_path(directory, key)
    if not path.exists():
        return None
    with np.load(path) as data:
        meta = data["meta"]
        return MoranBasis(
            psi=data["psi"],
            eigenvalues=data["eigenvalues"],
            k_inv=data["k_inv"],
            k=data["k"],
            n_positive=int(meta[0]),
            tolerance=float(meta[1]),
        )

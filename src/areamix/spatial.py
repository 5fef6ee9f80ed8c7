"""Adjacency structure: edge lists, multivariate expansion, ICAR precision."""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.sparse import csgraph, csr_array

from .errors import DomainError, SchemaError, ShapeError, UnknownAreaError


def read_edge_list(path: str | Path) -> list[tuple[str, str]]:
    """Read neighbour pairs, one ``a,b`` pair per line.

    Blank lines and lines starting with ``#`` are ignored.
    """
    edges: list[tuple[str, str]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise SchemaError(f"{path}:{lineno}: expected 'area_a,area_b', got {raw!r}")
            edges.append((parts[0], parts[1]))
    return edges


def build_adjacency(areas: Sequence[str], edges: Sequence[tuple[str, str]]) -> np.ndarray:
    """Symmetric 0/1 adjacency over ``areas`` (in the given order)."""
    m = len(areas)
    if m < 2:
        raise DomainError("need at least two areas")
    index = {a: i for i, a in enumerate(areas)}
    if len(index) != m:
        raise DomainError("area identifiers must be unique")
    rows, cols = [], []
    for a, b in edges:
        if a not in index:
            raise UnknownAreaError(f"edge references unknown area {a!r}")
        if b not in index:
            raise UnknownAreaError(f"edge references unknown area {b!r}")
        if a == b:
            raise DomainError(f"self-loop on area {a!r}")
        rows.append(index[a])
        cols.append(index[b])
    w = np.zeros((m, m))
    w[rows, cols] = 1.0
    w[cols, rows] = 1.0
    # a disconnected graph is usable (each component smooths on its own)
    # but often signals missing edges, so it is worth flagging here; the
    # components come from the edges, each read in both directions
    edge_graph = csr_array((np.ones(len(rows)), (rows, cols)), shape=(m, m))
    n_components = csgraph.connected_components(edge_graph, directed=False)[0]
    if n_components > 1:
        warnings.warn(
            f"adjacency graph has {n_components} connected components",
            stacklevel=2,
        )
    return w


def _check_adjacency(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"adjacency must be square, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("adjacency entries must be finite")
    if not np.array_equal(a, a.T):
        raise DomainError("adjacency must be symmetric")
    if np.any(a < 0):
        raise DomainError("adjacency entries must be nonnegative")
    if np.any(np.diag(a) != 0):
        raise DomainError("adjacency must have a zero diagonal")
    return a


def expand_multivariate(w: np.ndarray, n_cells: int) -> np.ndarray:
    """Lift an m x m area adjacency to the mL x mL entry level.

    Every pair of cells in neighbouring areas is linked: the Kronecker
    product of W with the L x L all-ones block.  Row order matches the
    area-major layout used throughout.
    """
    w = _check_adjacency(w)
    if n_cells < 1:
        raise DomainError("n_cells must be >= 1")
    return np.kron(w, np.ones((n_cells, n_cells)))


def icar_precision(a: np.ndarray) -> np.ndarray:
    """Graph Laplacian Q = D - A for a symmetric nonnegative adjacency.

    Q is positive semidefinite, annihilates the constant vector, and its
    null space dimension equals the number of connected components.
    """
    a = _check_adjacency(a)
    return np.diag(a.sum(axis=1)) - a


def connected_components(a: np.ndarray) -> np.ndarray:
    """Component label (0-based, int32) for each node of an adjacency matrix."""
    # a sparse input skips csgraph's dense-input conversion, which costs more
    return csgraph.connected_components(csr_array(_check_adjacency(a)), directed=False)[1]

"""Small shared helpers: seed derivation, hashing, CSV formatting, Rand index."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from .errors import ShapeError


def derive_seed(*parts: int) -> int:
    """Deterministically derive a 64-bit child seed from integer components.

    Built on numpy's SeedSequence so that (master, index) pairs yield
    well-spread, reproducible streams regardless of execution order.  The
    component count is mixed in first because SeedSequence ignores
    trailing zero entropy words, which would otherwise make (m, r) and
    (m, r, 0) collide.
    """
    ss = np.random.SeedSequence([len(parts)] + [int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def format_value(value) -> str:
    """Render a cell for CSV output: shortest round-trip floats, blank for NaN, inf as inf."""
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return ""
        if abs(v) < 1e16 and v == int(v):
            return str(int(v)) + ".0"
        return repr(v)
    return str(value)


def rand_index(labels_a, labels_b) -> float:
    """Rand index between two partitions given as label vectors.

    Label values are irrelevant; only the induced partitions matter.
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise ShapeError("partitions must label the same observations")
    n = a.size
    if n < 2:
        raise ShapeError("need at least two observations to compare partitions")
    _, a = np.unique(a, return_inverse=True)
    _, b = np.unique(b, return_inverse=True)
    # contingency counts via flat bincount
    na = a.max() + 1
    nb = b.max() + 1
    cont = np.bincount(a * nb + b, minlength=na * nb).astype(float)
    sum_ij = np.sum(cont * (cont - 1.0)) / 2.0
    rows = np.bincount(a).astype(float)
    cols = np.bincount(b).astype(float)
    sum_a = np.sum(rows * (rows - 1.0)) / 2.0
    sum_b = np.sum(cols * (cols - 1.0)) / 2.0
    total = n * (n - 1.0) / 2.0
    return float((total + 2.0 * sum_ij - sum_a - sum_b) / total)

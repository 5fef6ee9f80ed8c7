"""Small shared helpers: seeds, hashing, Cholesky, text input, CSV formatting, Rand index."""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import DefinitenessError, SchemaError, ShapeError


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


_K_HINT = "check that the basis precision K^{-1} is positive definite"


def _cholesky(matrix: np.ndarray, what: str, hint: str = _K_HINT) -> np.ndarray:
    """The Cholesky factor of ``matrix``; DefinitenessError when it has no
    finite one.  A non-finite entry of ``matrix`` leaves NaN or inf on the
    factor's diagonal, and a finite diagonal entry is at most the square
    root of the largest float, so a finite trace means a finite factor."""
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        chol = None
    if chol is None or not math.isfinite(chol.trace()):
        raise DefinitenessError(f"{what} is not positive definite or not finite; {hint}")
    return chol


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """Open a UTF-8 text input for reading, as the csv module wants it
    (``newline=""``); a byte sequence that is not UTF-8 raises
    SchemaError naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None


def format_value(value) -> str:
    """Render a cell for CSV output: shortest round-trip floats, blank for NaN, inf as inf."""
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "" if math.isnan(v) else repr(v + 0.0)  # + 0.0 writes -0.0 as 0.0
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

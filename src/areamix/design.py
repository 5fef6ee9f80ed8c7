"""Fixed-effect design: intercept, log county population, cell dummies."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DomainError, DuplicateKeyError, SchemaError, UnknownAreaError
from .util import open_text


def read_population_csv(path: str | Path) -> dict[str, float]:
    """Read a two-column (area_id, population) file.

    A header row is skipped when its second field is not numeric; ``#``
    comment lines and blank lines are ignored.
    """
    out: dict[str, float] = {}
    first_data_row = True
    with open_text(path) as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if raw[0].lstrip().startswith("#"):
                continue
            if len(raw) != 2:
                raise SchemaError(f"{path}:{lineno}: expected two columns, got {len(raw)}")
            area = raw[0].strip()
            value = raw[1].strip()
            is_first = first_data_row
            first_data_row = False
            try:
                pop = float(value)
            except ValueError:
                if is_first:
                    continue  # header row
                raise SchemaError(f"{path}:{lineno}: non-numeric population {value!r}") from None
            if not np.isfinite(pop) or pop <= 0:
                raise DomainError(f"{path}:{lineno}: population must be positive")
            if area in out:
                raise DuplicateKeyError(f"{path}: duplicate area {area!r}")
            out[area] = pop
    if not out:
        raise SchemaError(f"{path}: no population rows")
    return out


def build_design(table, population: Mapping[str, float]) -> tuple[np.ndarray, list[str]]:
    """Design matrix for an area-major table: n x (2 + L - 1).

    Columns: intercept, log population of the entry's area, and an
    indicator for each cell 2..L (cell 1 is the baseline).  The log is
    applied here, so ``population`` holds raw positive counts.

    Returns the matrix together with its column names.
    """
    areas = table.areas
    n_cells = table.n_cells
    log_pop = np.empty(len(areas))
    for i, area in enumerate(areas):
        if area not in population:
            raise UnknownAreaError(f"no population value for area {area!r}")
        value = float(population[area])
        if not np.isfinite(value) or value <= 0:
            raise DomainError(f"population for area {area!r} must be positive")
        log_pop[i] = np.log(value)

    n = len(areas) * n_cells
    p = 2 + (n_cells - 1)
    x = np.zeros((n, p))
    x[:, 0] = 1.0
    x[:, 1] = np.repeat(log_pop, n_cells)
    cells = np.tile(np.arange(1, n_cells + 1), len(areas))
    for s in range(2, n_cells + 1):
        x[:, 2 + (s - 2)] = (cells == s).astype(float)
    names = ["intercept", "log_population"] + [f"cell_{s}" for s in range(2, n_cells + 1)]
    return x, names

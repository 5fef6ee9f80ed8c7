"""Synthetic truth constructors for studies, demos, and smoke fixtures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tabulation import LogTable, TabulationTable


def grid_graph(n_rows: int, n_cols: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Rook-adjacency grid of areas with stable county-style identifiers.

    Areas are numbered row-major; the identifier of area j is the
    two-digit state code 06 followed by a three-digit county code, so it
    concatenates the same way real tabulation rows do.
    """
    areas = [f"06{j:03d}" for j in range(n_rows * n_cols)]
    edges: list[tuple[str, str]] = []
    for rr in range(n_rows):
        for cc in range(n_cols):
            j = rr * n_cols + cc
            if cc + 1 < n_cols:
                edges.append((areas[j], areas[j + 1]))
            if rr + 1 < n_rows:
                edges.append((areas[j], areas[j + n_cols]))
    return areas, edges


@dataclass(frozen=True)
class SyntheticStudy:
    """A two-regime truth on a grid, ready for perturb-and-refit studies.

    Cells split into two groups; each group shares one smooth spatial
    field, and the fields differ in both shape (east-west against
    north-south gradients) and scale.  ``groups`` records the generating
    split per (area, cell) entry.
    """

    areas: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    n_cells: int
    truth: LogTable
    population: dict[str, float]
    groups: np.ndarray


def two_field_study(
    n_rows: int = 6,
    n_cols: int = 6,
    n_cells: int = 4,
    seed: int = 0,
) -> SyntheticStudy:
    """Grid truth with two spatial regimes of distinct shape and scale.

    Cells 1..L/2 follow a high-level field rising west to east; the
    remaining cells follow a low-level field rising north to south with
    a smaller amplitude.  Sampling variances are drawn uniformly from
    [0.2, 0.5].  Everything is deterministic given the seed.
    """
    if n_cells < 2:
        raise DomainError("need at least two cells to form two groups")
    areas, edges = grid_graph(n_rows, n_cols)
    m = len(areas)
    n = m * n_cells
    rng = np.random.default_rng(seed)

    rows = np.repeat(np.arange(n_rows), n_cols)
    cols = np.tile(np.arange(n_cols), n_rows)
    row_frac = rows / max(n_rows - 1, 1)
    col_frac = cols / max(n_cols - 1, 1)

    # The gradients must be steep enough that no single spatial field can
    # absorb both regimes, and the fields must never cross: wherever their
    # values meet, entry-level membership is statistically invisible.
    field_a = 7.0 + 3.0 * (2.0 * col_frac - 1.0)
    field_b = 1.2 + 1.0 * (2.0 * row_frac - 1.0)

    cell_ids = np.tile(np.arange(1, n_cells + 1), m)
    area_ids = np.repeat(np.arange(m), n_cells)
    groups = (cell_ids > n_cells // 2).astype(int)
    offsets = 0.25 * np.cos(np.arange(n_cells))  # mild per-cell level shifts
    z = np.where(groups == 0, field_a[area_ids], field_b[area_ids]) + offsets[cell_ids - 1]
    d = rng.uniform(0.2, 0.5, size=n)

    population = {
        a: float(np.round(2000.0 * np.exp(1.5 * col_frac[j] + 0.5 * row_frac[j])))
        for j, a in enumerate(areas)
    }
    log_pop = np.log([population[a] for a in areas])
    # tie the high field loosely to log population so the covariate helps
    z = z + np.where(groups == 0, 0.25 * (log_pop[area_ids] - log_pop.mean()), 0.0)

    truth = LogTable(
        areas=tuple(areas),
        n_cells=n_cells,
        z=z,
        d=d,
        estimates=np.expm1(z),
        std_errors=np.sqrt(d) * (np.expm1(z) + 1.0),
        sample_sizes=None,
    )
    return SyntheticStudy(
        areas=tuple(areas),
        edges=tuple(edges),
        n_cells=n_cells,
        truth=truth,
        population=population,
        groups=groups,
    )


def study_table(study: SyntheticStudy, seed: int = 12345) -> TabulationTable:
    """A noisy count-scale tabulation consistent with a synthetic truth.

    Useful for exercising the ingest path end to end; a few entries are
    zeroed so the variance-imputation path gets traffic.
    """
    rng = np.random.default_rng(seed)
    z_noisy = study.truth.z + rng.normal(0.0, np.sqrt(study.truth.d))
    counts = np.round(np.expm1(np.maximum(z_noisy, 0.0)), 1)
    ses = np.round(np.sqrt(study.truth.d) * (counts + 1.0), 2)
    zero_idx = rng.choice(counts.size, size=max(1, counts.size // 30), replace=False)
    counts = counts.copy()
    counts[zero_idx] = 0.0
    ses[zero_idx] = 0.0
    return TabulationTable(
        areas=study.areas,
        n_cells=study.n_cells,
        estimates=counts,
        std_errors=ses,
        sample_sizes=None,
    )

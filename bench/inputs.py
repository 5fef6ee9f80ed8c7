"""Deterministic benchmark inputs, written as the files the program ingests.

``write_inputs`` turns ``synthetic.two_field_study`` and
``synthetic.study_table`` into ``tabulation.csv``, ``adjacency.txt`` and
``population.csv``.  The noisy table zeroes about one entry in thirty
(count and standard error both 0), so every ingest exercises the
variance repair in ``gvf_impute``.  The same seed gives the same bytes.
"""

from __future__ import annotations

import csv
from pathlib import Path

from areamix.synthetic import SyntheticStudy, study_table, two_field_study
from areamix.util import derive_seed, format_value

N_CELLS = 4
TABLE_SEED_TAG = 1
STATE_DIGITS = 2  # grid_graph ids are a two-digit state code plus a county code


def write_inputs(directory: Path, side: int, seed: int) -> SyntheticStudy:
    """Write the three input files for a side x side grid; return the truth."""
    study = two_field_study(side, side, N_CELLS, seed=seed)
    table = study_table(study, seed=derive_seed(seed, TABLE_SEED_TAG))
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "tabulation.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["state", "county", "order", "count", "std_err"])
        for flat, (area, cell) in enumerate(table.keys()):
            writer.writerow(
                [
                    area[:STATE_DIGITS],
                    area[STATE_DIGITS:],
                    cell,
                    format_value(float(table.estimates[flat])),
                    format_value(float(table.std_errors[flat])),
                ]
            )
    with open(directory / "adjacency.txt", "w") as fh:
        fh.write(f"# {side}x{side} rook grid\n")
        for a, b in study.edges:
            fh.write(f"{a},{b}\n")
    with open(directory / "population.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["area", "population"])
        for area in study.areas:
            writer.writerow([area, format_value(study.population[area])])
    return study

"""tests/data/fixture_grid: an 8 x 8 rook grid of 3-cell areas whose basis
has r > 1, so the artifact hashes of ``artifact_hashes.py`` see the basis's
column order, layout and signs (fixture10's basis has one column)."""

import csv
import json
from pathlib import Path

from areamix.cli import main
from areamix.synthetic import study_table, two_field_study
from areamix.util import format_value

from conftest import DATA_DIR, write_csv

FIXTURE = DATA_DIR / "fixture_grid"
FILES = ("tabulation.csv", "adjacency.txt", "population.csv")


def write_fixture_grid(directory: Path) -> None:
    """The fixture's three files: ``two_field_study(8, 8, 3, seed=4)``
    through ``study_table``, in fixture10's file layout (no sample sizes)."""
    study = two_field_study(8, 8, 3, seed=4)
    table = study_table(study)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "tabulation.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["state", "county", "order", "count", "std_err"])
        for flat, (area, cell) in enumerate(table.keys()):
            writer.writerow(
                [area[:2], area[2:], cell, format_value(float(table.estimates[flat])),
                 format_value(float(table.std_errors[flat]))]
            )
    with open(directory / "adjacency.txt", "w") as fh:
        fh.write("# 8x8 rook grid\n")
        fh.write("".join(f"{a},{b}\n" for a, b in study.edges))
    with open(directory / "population.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["area", "population"])
        for area in study.areas:
            writer.writerow([area, format_value(study.population[area])])


def test_files_follow_the_recipe(tmp_path):
    write_fixture_grid(tmp_path)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (FIXTURE / name).read_bytes(), name


def test_basis_has_more_than_one_column(tmp_path):
    roles = ("tabulation", "adjacency", "population")
    text = "".join(f"{role} = {FIXTURE / name}\n" for role, name in zip(roles, FILES))
    out = tmp_path / "out"
    assert main(["basis", str(write_csv(tmp_path / "run.cfg", text)), "--out", str(out)]) == 0
    report = json.loads((out / "basis_report.json").read_text())
    assert report["n"] == 192 and report["r"] > 1

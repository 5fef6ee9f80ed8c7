"""Drive the command line end to end without leaving Python.

The same entry point the ``areamix`` console script uses is importable,
so this demo fabricates a small input bundle (tabulation, adjacency,
population, config), runs ``fit``, inspects the artifacts, and then
replays ``diagnose`` on the draw dump to show it reproduces the fit's
diagnostics byte for byte.
"""

import csv
import json
import tempfile
from pathlib import Path

from areamix.cli import main
from areamix.synthetic import study_table, two_field_study

study = two_field_study(4, 4, 2, seed=21)
table = study_table(study, seed=22)

with tempfile.TemporaryDirectory(prefix="areamix_demo_") as tmp:
    work = Path(tmp)
    with open(work / "tabulation.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["state", "county", "order", "count", "std_err"])
        for j, area in enumerate(table.areas):
            for cell in range(1, table.n_cells + 1):
                flat = j * table.n_cells + (cell - 1)
                writer.writerow(
                    [area[:2], area[2:], cell, table.estimates[flat], table.std_errors[flat]]
                )
    with open(work / "adjacency.txt", "w") as fh:
        fh.write("".join(f"{u},{v}\n" for u, v in study.edges))
    with open(work / "population.csv", "w") as fh:
        fh.write("area,population\n")
        fh.write("".join(f"{a},{int(p)}\n" for a, p in study.population.items()))

    fit_dir = work / "fit"
    (work / "run.cfg").write_text(
        "# mixture fit, two short chains\n"
        f"tabulation = {work / 'tabulation.csv'}\n"
        f"adjacency = {work / 'adjacency.txt'}\n"
        f"population = {work / 'population.csv'}\n"
        f"out = {fit_dir}\n"
        "model = msmm\n"
        "iterations = 2500\n"
        "burn_in = 500\n"
        "chains = 2\n"
        "seed = 5\n"
    )

    print("running: areamix fit run.cfg")
    code = main(["fit", str(work / "run.cfg")])
    print(f"exit code {code}\n")

    print("predictions.csv, first four rows:")
    lines = (fit_dir / "predictions.csv").read_text().splitlines()
    for line in lines[:5]:
        print(f"  {line}")
    print(f"  ... {len(lines) - 1} prediction rows total\n")

    manifest = json.loads((fit_dir / "manifest.json").read_text())
    print("manifest excerpt:")
    print(f"  command: {manifest['command']}")
    print(f"  seed:    {manifest['seed']}")
    print(f"  outputs: {manifest['outputs']}")
    for name, digest in manifest["inputs"].items():
        print(f"  input {Path(name).name}: sha256 {digest[:16]}...")
    print()

    # the draw dump is a complete record: diagnose must rebuild the same report
    diag_dir = work / "diag"
    (work / "diag.cfg").write_text(f"draws = {fit_dir / 'draws.csv'}\nout = {diag_dir}\n")
    print("running: areamix diagnose diag.cfg")
    code = main(["diagnose", str(work / "diag.cfg")])
    print(f"exit code {code}")
    original = (fit_dir / "diagnostics.json").read_bytes()
    replayed = (diag_dir / "diagnostics.json").read_bytes()
    print(f"diagnostics.json identical to the fit's copy: {original == replayed}\n")

    # the report exists to surface the slow mixers; here that is the
    # discrete cluster count, while every continuous parameter sits at 1.00
    report = json.loads(replayed)
    print("parameter        psrf   min ess")
    for name in sorted(report, key=lambda k: -report[k]["psrf"]):
        entry = report[name]
        print(f"{name:15s} {entry['psrf']:6.3f}   {min(entry['ess']):7.0f}")

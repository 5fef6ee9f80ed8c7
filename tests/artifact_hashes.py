"""Print the sha256 of every ``areamix fit`` and ``areamix basis`` artifact.

Runs, on each fixture under tests/data, ``areamix fit`` for msm, msmm
(truncated and dp) and fh (600 iterations, burn-in 200, 2 chains, seed 5,
draws written), then ``areamix basis``, each into a fresh temporary
directory, and prints one line per artifact:

    <fixture> <run> <artifact> <sha256>

``manifest.json`` is left out: it records the output path.  Two runs of
this script on one tree must print the same lines, and a change that
keeps an artifact's bits keeps its line.  Run from the repository root:

    PYTHONPATH=src python tests/artifact_hashes.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from areamix.cli import main

DATA_DIR = Path(__file__).parent / "data"
FIXTURES = ("fixture10", "fixture_grid")
RUNS = {
    "msm": {"model": "msm"},
    "msmm_truncated": {"model": "msmm", "algorithm": "truncated"},
    "msmm_dp": {"model": "msmm", "algorithm": "dp"},
    "fh": {"model": "fh"},
}
SETTINGS = {"iterations": 600, "burn_in": 200, "chains": 2, "seed": 5, "write_draws": "true"}


def run_hashes(fixture: str, command: str, keys: dict, work: Path) -> list[tuple[str, str]]:
    """(artifact, sha256) of one command's outputs, manifest.json aside."""
    inputs = DATA_DIR / fixture
    values = {
        "tabulation": inputs / "tabulation.csv",
        "adjacency": inputs / "adjacency.txt",
        "population": inputs / "population.csv",
        **SETTINGS,
        **keys,
    }
    config = work / "run.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):  # its "wrote <path>" lines
        code = main([command, str(config), "--out", str(out)])
    if code != 0:
        sys.exit(f"areamix {command} on {fixture} exited {code}")
    return [
        (path.name, hashlib.sha256(path.read_bytes()).hexdigest())
        for path in sorted(out.iterdir())
        if path.name != "manifest.json"
    ]


def main_hashes() -> None:
    for fixture in FIXTURES:
        runs = [("fit", name, keys) for name, keys in RUNS.items()] + [("basis", "basis", {})]
        for command, name, keys in runs:
            with tempfile.TemporaryDirectory() as tmp:
                for artifact, digest in run_hashes(fixture, command, keys, Path(tmp)):
                    print(f"{fixture} {name} {artifact} {digest}", flush=True)


if __name__ == "__main__":
    main_hashes()

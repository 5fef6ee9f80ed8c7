from pathlib import Path

import numpy as np
import pytest

from areamix import build_adjacency, build_basis, build_design, expand_multivariate
from areamix.synthetic import two_field_study

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def fixture10() -> Path:
    return DATA_DIR / "fixture10"


@pytest.fixture(scope="session")
def small_study():
    # 3x3 grid, 2 cells per area: n = 18, small enough for tight loops
    return two_field_study(3, 3, 2, seed=0)


@pytest.fixture(scope="session")
def small_inputs(small_study):
    """(study, x, a, basis) for the 18-entry synthetic grid."""
    study = small_study
    x, _ = build_design(study.truth, study.population)
    w = build_adjacency(study.areas, study.edges)
    a = expand_multivariate(w, study.n_cells)
    basis = build_basis(x, a)
    return study, x, a, basis


def entry_psi(basis) -> np.ndarray:
    """The (n, r) entry-level Psi of U = [X, Psi]: each area row of the basis
    repeated over the area's L cells."""
    return np.repeat(basis.area_psi, basis.cells, axis=0)


def random_connected_adjacency(m: int, rng: np.random.Generator) -> np.ndarray:
    # random spanning tree, then a few extra edges so cycles appear
    a = np.zeros((m, m))
    for j in range(1, m):
        i = int(rng.integers(0, j))
        a[i, j] = a[j, i] = 1.0
    for _ in range(int(rng.integers(2, m))):
        i, j = (int(v) for v in rng.integers(0, m, size=2))
        if i != j:
            a[i, j] = a[j, i] = 1.0
    return a


def write_csv(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


@pytest.fixture
def basic_table_csv(tmp_path) -> Path:
    text = (
        "state,county,order,count,std_err,sample_size\n"
        "19,041,1,325,49.2,250\n"
        "19,041,2,0,0.9,250\n"
        "19,013,1,1200,110.0,900\n"
        "19,013,2,87,20.5,900\n"
    )
    return write_csv(tmp_path / "tab.csv", text)

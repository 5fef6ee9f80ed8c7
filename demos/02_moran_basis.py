"""Build the confounding-free spatial basis for a county grid.

The raw adjacency cannot enter the model next to the fixed effects: its
smooth eigenvectors overlap the design and would fight the regression
coefficients for the same signal.  Sandwiching the adjacency between
projections onto the design's orthogonal complement fixes that, and the
positive-eigenvalue directions of the result form the basis.
"""

import tempfile
from types import SimpleNamespace

import numpy as np

from areamix import (
    build_adjacency,
    build_basis,
    build_design,
    expand_multivariate,
    icar_precision,
)
from areamix.basis import basis_cache_key, load_basis, moran_operator, save_basis
from areamix.synthetic import grid_graph

areas, edges = grid_graph(5, 5)
rng = np.random.default_rng(7)
population = {area: float(rng.integers(800, 60000)) for area in areas}

n_cells = 2
x, names = build_design(SimpleNamespace(areas=tuple(areas), n_cells=n_cells), population)
w = build_adjacency(areas, edges)
a = expand_multivariate(w, n_cells)
print(f"{len(areas)} areas x {n_cells} cells -> {a.shape[0]} entries")
print("design columns:", names)

g = moran_operator(x, a)
eigenvalues = np.linalg.eigvalsh(g)[::-1]
n_positive = int((eigenvalues > 1e-10 * np.abs(eigenvalues).max()).sum())
print(f"operator spectrum: {n_positive} positive of {g.shape[0]}")
print("leading eigenvalues:", np.round(eigenvalues[:6], 3))

# a basis keeps its area rows; Psi over the n entries repeats each one over
# the area's L cells (L = 1 here, with the entry-level adjacency)
basis = build_basis(x, a, fraction=0.5)
psi = np.repeat(basis.area_psi, basis.cells, axis=0)
print(f"selected r = {basis.r} (half of the positive spectrum)")
print(f"max |psi' x|      = {np.max(np.abs(psi.T @ x)):.2e}")
print(f"max |psi'psi - I| = {np.max(np.abs(psi.T @ psi - np.eye(basis.r))):.2e}")

# the 25 x 25 area adjacency gives the same basis without the 50 x 50 one:
# L = n / m = 2 cells per area is read from the shapes
area = build_basis(x, w, fraction=0.5)
area_psi = np.repeat(area.area_psi, area.cells, axis=0)
gap = np.max(np.abs(area_psi @ area_psi.T - psi @ psi.T))
print(f"area-level path: r = {area.r}, max |projector difference| = {gap:.1e}")

# the basis inherits its prior precision from the ICAR structure
q = icar_precision(a)
k_inv_eigs = np.linalg.eigvalsh(basis.k_inv)
print(f"K^-1 eigenvalue range: [{k_inv_eigs.min():.3f}, {k_inv_eigs.max():.3f}]")

# eigendecompositions of large operators are worth caching; the key is a
# digest of the exact design and adjacency bytes
with tempfile.TemporaryDirectory(prefix="areamix_basis_") as cache_dir:
    key = basis_cache_key(x, a)
    path = save_basis(basis, cache_dir, key)
    print(f"cached as {path.name}")
    reloaded = load_basis(cache_dir, key)
    print("cache round trip exact:", np.array_equal(reloaded.area_psi, basis.area_psi))

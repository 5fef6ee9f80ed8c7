import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from areamix import (
    DefinitenessError,
    DomainError,
    EmptyBasisError,
    RankError,
    ShapeError,
    basis_precision,
    build_adjacency,
    build_basis,
    build_design,
    expand_multivariate,
    icar_precision,
    moran_operator,
    select_basis,
)
from areamix import basis as basis_module
from areamix.basis import (
    basis_cache_key,
    cache_path,
    load_basis,
    save_basis,
)
from areamix.synthetic import grid_graph, two_field_study

from conftest import entry_psi, random_connected_adjacency


def projector_oracle(x, a):
    """Same operator via the explicit projector P = X (X'X)^{-1} X'."""
    p = x @ np.linalg.solve(x.T @ x, x.T)
    m = np.eye(x.shape[0]) - p
    return m @ a @ m


class TestMoranOperator:
    def test_matches_projector_route(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            n = 12 + trial
            x = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
            w = (rng.random((n, n)) < 0.3).astype(float)
            w = np.triu(w, 1)
            a = w + w.T
            got = moran_operator(x, a)
            assert np.allclose(got, projector_oracle(x, a), atol=1e-10)

    def test_annihilates_design(self):
        rng = np.random.default_rng(2)
        n = 15
        x = np.column_stack([np.ones(n), rng.normal(size=n)])
        w = (rng.random((n, n)) < 0.4).astype(float)
        a = np.triu(w, 1) + np.triu(w, 1).T
        g = moran_operator(x, a)
        assert np.allclose(g @ x, 0.0, atol=1e-10)
        assert np.allclose(g, g.T)

    def test_rank_deficient_design(self):
        n = 8
        x = np.column_stack([np.ones(n), np.ones(n)])
        a = np.zeros((n, n))
        with pytest.raises(RankError):
            moran_operator(x, a)

    def test_asymmetric_adjacency(self):
        x = np.ones((3, 1))
        bad = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DomainError):
            moran_operator(x, bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_design(self, value):
        # a NaN entry stopped the SVD converging (LinAlgError); an inf read as a RankError
        a = random_connected_adjacency(9, np.random.default_rng(5))
        x = np.column_stack([np.ones(9), np.arange(9.0)])
        x[4, 1] = value
        for build in (moran_operator, build_basis):
            with pytest.raises(DomainError, match="design entries must be finite"):
                build(x, a)

    @pytest.mark.parametrize(
        "entry, value, message",
        [((1, 1), 1.0, "zero diagonal"), ((0, 2), -1.0, "nonnegative")],
    )
    def test_rejects_what_the_precision_would(self, monkeypatch, entry, value, message):
        # build_basis rejects the adjacency before it reaches the eigensolve
        bad = random_connected_adjacency(9, np.random.default_rng(5))
        bad[entry] = bad[entry[::-1]] = value
        x = np.ones((18, 1))
        with pytest.raises(DomainError, match=message):
            moran_operator(x, bad)

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("the eigensolve ran on a bad adjacency")

        monkeypatch.setattr(basis_module, "select_basis", no_eigensolve)
        with pytest.raises(DomainError, match=message):
            build_basis(x, bad)


class TestSelectBasis:
    def test_no_positive_eigenvalues(self):
        # eigenvalues are 0 and -1
        g = np.array([[-0.5, 0.5], [0.5, -0.5]])
        with pytest.raises(EmptyBasisError):
            select_basis(g)

    def test_fraction_floor(self):
        g = np.diag([3.0, 1.0, -2.0])
        psi, eigenvalues, n_positive = select_basis(g, fraction=0.5)
        assert n_positive == 2
        assert eigenvalues.shape == (1,)  # floor(0.5 * 2) = 1
        assert eigenvalues[0] == pytest.approx(3.0)
        assert np.allclose(np.abs(psi[:, 0]), [1.0, 0.0, 0.0])

    def test_explicit_r_capped(self):
        g = np.diag([3.0, 1.0, -2.0])
        psi, eigenvalues, n_positive = select_basis(g, r=10)
        assert psi.shape == (3, 2)
        assert np.allclose(eigenvalues, [3.0, 1.0])

    def test_eigenvalues_descending(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(9, 9))
        g = m + m.T
        psi, eigenvalues, _ = select_basis(g, fraction=1.0)
        assert np.all(np.diff(eigenvalues) <= 0)
        assert np.allclose(psi.T @ psi, np.eye(psi.shape[1]), atol=1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(8, 8))
        g = m + m.T
        psi, _, _ = select_basis(g, fraction=1.0)
        for j in range(psi.shape[1]):
            col = psi[:, j]
            assert col[np.argmax(np.abs(col))] > 0
        assert psi.flags.c_contiguous  # the order the basis cache writes
        # a tie in magnitude goes to the lowest index: the one positive
        # eigenvector is (1, -1) / sqrt(2) up to sign
        psi, _, _ = select_basis(np.array([[0.0, -1.0], [-1.0, 0.0]]), fraction=1.0)
        assert psi[0, 0] > 0 > psi[1, 0]

    def test_fraction_and_r_both_given(self):
        with pytest.raises(DomainError):
            select_basis(np.eye(3), fraction=0.5, r=1)

    def test_fraction_bounds(self):
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(DomainError):
                select_basis(np.eye(3), fraction=bad)

    def test_r_must_be_positive(self):
        with pytest.raises(DomainError):
            select_basis(np.eye(3), r=0)

    def test_zero_operator(self):
        with pytest.raises(EmptyBasisError):
            select_basis(np.zeros((4, 4)))

    def test_nonsquare(self):
        with pytest.raises(ShapeError):
            select_basis(np.zeros((3, 4)))

    def test_asymmetric(self):
        g = np.diag([3.0, 1.0, -2.0])
        g[0, 1] = 1e-12
        with pytest.raises(DomainError, match="symmetric"):
            select_basis(g)

    def test_fraction_rounding_to_zero(self):
        g = np.diag([2.0, -1.0, -1.0])
        with pytest.raises(EmptyBasisError):
            select_basis(g, fraction=0.4)  # floor(0.4 * 1) = 0


class TestBasisPrecision:
    def test_symmetric_positive_definite(self, small_inputs):
        _, _, a, basis = small_inputs
        psi = entry_psi(basis)
        want = psi.T @ icar_precision(a) @ psi
        assert np.array_equal(basis.k_inv, basis.k_inv.T)
        assert np.allclose(basis.k_inv, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        assert np.all(np.linalg.eigvalsh(basis.k_inv) > 0)

    def test_constant_column_fails(self):
        # a basis containing the constant vector is annihilated by Q
        areas, edges = grid_graph(2, 3)
        w = build_adjacency(areas, edges)
        q = icar_precision(w)
        psi = np.full((6, 1), 1.0 / np.sqrt(6.0))
        with pytest.raises(DefinitenessError):
            basis_precision(psi, q)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            basis_precision(np.zeros(4), np.eye(4))
        with pytest.raises(ShapeError):
            basis_precision(np.zeros((4, 2)), np.eye(3))


class TestMoranBasisChecks:
    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("area_psi", lambda r: np.zeros(r), ShapeError),
            ("area_psi", lambda r: np.zeros((4, 0)), ShapeError),
            ("eigenvalues", lambda r: np.ones(r + 1), ShapeError),
            ("k_inv", lambda r: np.eye(r)[:, :-1], ShapeError),
            ("cells", lambda r: 0, DomainError),
            ("cells", lambda r: 2.0, DomainError),
        ],
        ids=["area_psi_1d", "area_psi_empty", "eigenvalues", "k_inv", "cells_0", "cells_float"],
    )
    def test_disagreeing_fields_are_rejected(self, small_inputs, field, value, error):
        basis = small_inputs[3]
        with pytest.raises(error):
            replace(basis, **{field: value(basis.r)})


class TestBuildBasis:
    def test_contract_on_synthetic_grid(self, small_inputs):
        _, x, a, basis = small_inputs
        r = basis.r
        assert 1 <= r <= basis.n_positive
        psi = entry_psi(basis)
        assert psi.shape == (x.shape[0], r)
        assert np.max(np.abs(psi.T @ x)) < 1e-8
        assert np.allclose(psi.T @ psi, np.eye(r), atol=1e-8)
        assert np.all(np.diff(basis.eigenvalues) <= 0)

    def test_fraction_default_is_half(self, small_inputs):
        _, x, a, basis = small_inputs
        explicit = build_basis(x, a, fraction=0.5)
        assert explicit.r == basis.r
        assert np.array_equal(entry_psi(explicit), entry_psi(basis))

    def test_explicit_r(self, small_inputs):
        _, x, a, _ = small_inputs
        basis = build_basis(x, a, r=2)
        assert basis.r == 2


def area_design(m: int, n_cells: int, rng: np.random.Generator) -> np.ndarray:
    """Intercept, a random area covariate and cell dummies, area-major."""
    n = m * n_cells
    cells = np.tile(np.arange(n_cells), m)
    dummies = [(cells == s).astype(float) for s in range(1, n_cells)]
    return np.column_stack([np.ones(n), np.repeat(rng.normal(size=m), n_cells), *dummies])


class TestAreaLevelBasis:
    """An m x m area adjacency against its n x n expansion, the oracle.

    Columns are never compared: within a tied eigenspace they are
    arbitrary.  Fraction 0.5 is checked only where the eigen-gap at its
    cut is clear; fraction 1 keeps every positive eigenvalue.
    """

    def test_operator_lifts_to_entry_level(self):
        rng = np.random.default_rng(71)
        for n_cells in (1, 2, 3, 4):
            w = random_connected_adjacency(9, rng)
            x = area_design(9, n_cells, rng)
            lifted = np.kron(moran_operator(x, w), np.ones((n_cells, n_cells)))
            dense = moran_operator(x, expand_multivariate(w, n_cells))
            assert np.allclose(lifted, dense, rtol=0.0, atol=1e-12)

    def test_matches_dense_path(self):
        rng = np.random.default_rng(72)
        checked = {1.0: 0, 0.5: 0}
        for trial in range(24):
            n_cells = 1 + trial % 4
            m = int(rng.integers(6, 20))
            w = random_connected_adjacency(m, rng)
            x = area_design(m, n_cells, rng)
            a = expand_multivariate(w, n_cells)
            spectrum = build_basis(x, a, fraction=1.0).eigenvalues
            cut = len(spectrum) // 2
            clear = cut >= 1 and spectrum[cut - 1] - spectrum[cut] > 1e-6 * spectrum[0]
            for fraction in (1.0, 0.5) if clear else (1.0,):
                area = build_basis(x, w, fraction=fraction)
                dense = build_basis(x, a, fraction=fraction)
                assert (area.n_positive, area.r) == (dense.n_positive, dense.r)
                area_psi, dense_psi = entry_psi(area), entry_psi(dense)
                assert area_psi.shape == dense_psi.shape
                assert np.allclose(area.eigenvalues, dense.eigenvalues, rtol=1e-12, atol=0.0)
                assert np.allclose(
                    area_psi @ area_psi.T, dense_psi @ dense_psi.T, rtol=0.0, atol=1e-8
                )
                smooth = dense_psi @ np.linalg.inv(dense.k_inv) @ dense_psi.T
                assert np.allclose(
                    area_psi @ np.linalg.inv(area.k_inv) @ area_psi.T,
                    smooth,
                    rtol=0.0,
                    atol=1e-8 * np.max(np.abs(smooth)),
                )
                checked[fraction] += 1
        assert checked[1.0] == 24 and checked[0.5] >= 12

    def test_entry_varying_covariate_needs_entry_adjacency(self):
        rng = np.random.default_rng(73)
        for n_cells in (2, 3, 4):
            w = random_connected_adjacency(8, rng)
            x = np.column_stack([area_design(8, n_cells, rng), rng.normal(size=8 * n_cells)])
            with pytest.raises(DomainError, match="entry-level adjacency"):
                build_basis(x, w)
            dense = build_basis(x, expand_multivariate(w, n_cells))
            assert np.max(np.abs(entry_psi(dense).T @ x)) < 1e-8

    def test_rows_must_be_a_multiple_of_areas(self):
        rng = np.random.default_rng(74)
        w = random_connected_adjacency(6, rng)
        for n in (3, 13, 20):
            x = np.column_stack([np.ones(n), rng.normal(size=n)])
            with pytest.raises(ShapeError, match="multiple"):
                build_basis(x, w)
        with pytest.raises(ShapeError):
            moran_operator(np.ones((12, 1)), np.zeros((6, 4)))

    def test_national_layout_forms_no_entry_matrix(self, tmp_path):
        # side 30, ten cells: one n x n float64 array would be 648 MB; the
        # basis, built or loaded, holds its m area rows and no n-row array
        study = two_field_study(30, 30, 10, seed=0)
        x, _ = build_design(study.truth, study.population)
        w = build_adjacency(study.areas, study.edges)
        n = x.shape[0]
        tracemalloc.start()
        try:
            basis = build_basis(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (basis.n, basis.area_psi.shape) == (n, (n // 10, basis.r))
        assert all(np.shape(getattr(basis, f.name))[:1] != (n,) for f in fields(basis))
        assert peak < n * n * 8 / 10
        save_basis(basis, tmp_path, "b" * 64)
        tracemalloc.start()
        try:
            loaded = load_basis(tmp_path, "b" * 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.area_psi, basis.area_psi)
        assert peak < n * basis.r * 8 / 4


class TestFrobeniusTarget:
    def test_k_inv_minimises_distance(self, small_inputs):
        # || Psi' Q Psi - K ||_F over K is exactly minimised at K = k_inv
        _, _, a, basis = small_inputs
        q = icar_precision(a)
        psi = entry_psi(basis)
        target = psi.T @ q @ psi
        base = np.linalg.norm(target - basis.k_inv, ord="fro")
        rng = np.random.default_rng(17)
        for _ in range(25):
            e = rng.normal(size=basis.k_inv.shape)
            e = (e + e.T) / 2.0
            e *= 0.01 / np.linalg.norm(e, ord="fro")
            perturbed = np.linalg.norm(target - (basis.k_inv + e), ord="fro")
            assert perturbed > base


class TestCache:
    def test_round_trip(self, small_inputs, tmp_path):
        _, x, a, basis = small_inputs
        key = basis_cache_key(x, a)
        save_basis(basis, tmp_path, key)
        loaded = load_basis(tmp_path, key)
        assert loaded is not None
        assert np.array_equal(entry_psi(loaded), entry_psi(basis))
        assert np.array_equal(loaded.k_inv, basis.k_inv)
        assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
        assert loaded.n_positive == basis.n_positive
        assert loaded.tolerance == basis.tolerance
        assert loaded.cells == basis.cells == 1

    @pytest.mark.parametrize("n_cells", [1, 4])
    def test_round_trip_stores_area_rows(self, tmp_path, n_cells):
        rng = np.random.default_rng(40 + n_cells)
        w = random_connected_adjacency(10, rng)
        x = area_design(10, n_cells, rng)
        basis = build_basis(x, w)
        assert basis.cells == n_cells
        path = save_basis(basis, tmp_path, "a" * 64)
        with np.load(path) as data:
            assert data["area_psi"].shape == (10, basis.r)
            assert "psi" not in data and "k" not in data
        loaded = load_basis(tmp_path, "a" * 64)
        assert loaded.cells == n_cells
        assert np.array_equal(entry_psi(loaded), entry_psi(basis))
        assert np.array_equal(loaded.k_inv, basis.k_inv)
        assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)

    def test_old_format_entry_is_a_miss(self, small_inputs, tmp_path):
        # the layout before area rows: the full (n, r) psi and no cells
        _, x, a, basis = small_inputs
        key = basis_cache_key(x, a)
        with open(cache_path(tmp_path, key), "wb") as fh:
            np.savez(
                fh, psi=entry_psi(basis), eigenvalues=basis.eigenvalues, k_inv=basis.k_inv,
                k=np.linalg.inv(basis.k_inv), meta=np.array([float(basis.n_positive), basis.tolerance]),
            )
        assert load_basis(tmp_path, key) is None

    def test_missing_key_returns_none(self, tmp_path):
        assert load_basis(tmp_path, "0" * 64) is None

    def test_key_tracks_inputs(self, small_inputs):
        _, x, a, _ = small_inputs
        key = basis_cache_key(x, a)
        x2 = x.copy()
        x2[0, 0] += 1.0
        assert basis_cache_key(x2, a) != key
        assert basis_cache_key(x, a) == key

    def test_unreadable_entry_is_a_miss(self, small_inputs, tmp_path):
        _, x, a, basis = small_inputs
        key = basis_cache_key(x, a)
        path = save_basis(basis, tmp_path, key)
        whole = path.read_bytes()
        for damaged in (whole[:300], whole[: len(whole) - 300], b"not an archive"):
            path.write_bytes(damaged)
            assert load_basis(tmp_path, key) is None
        assert save_basis(basis, tmp_path, key).read_bytes() == whole
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_save_is_deterministic(self, small_inputs, tmp_path):
        _, x, a, basis = small_inputs
        key = basis_cache_key(x, a)
        p1 = save_basis(basis, tmp_path / "one", key)
        p2 = save_basis(basis, tmp_path / "two", key)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.name == cache_path(tmp_path, key).name

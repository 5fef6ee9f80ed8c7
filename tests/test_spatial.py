import warnings

import numpy as np
import pytest

from areamix import (
    DomainError,
    SchemaError,
    ShapeError,
    UnknownAreaError,
    build_adjacency,
    build_basis,
    connected_components,
    expand_multivariate,
    icar_precision,
    moran_operator,
    read_edge_list,
)
from areamix.synthetic import grid_graph

from conftest import write_csv


class TestReadEdgeList:
    def test_comments_and_blanks(self, tmp_path):
        path = write_csv(
            tmp_path / "e.txt", "# neighbours\n\n19041,19013\n19013,19017\n"
        )
        assert read_edge_list(path) == [("19041", "19013"), ("19013", "19017")]

    def test_malformed_line(self, tmp_path):
        path = write_csv(tmp_path / "e.txt", "19041,19013,19017\n")
        with pytest.raises(SchemaError):
            read_edge_list(path)

    def test_single_token_line(self, tmp_path):
        path = write_csv(tmp_path / "e.txt", "19041\n")
        with pytest.raises(SchemaError):
            read_edge_list(path)


class TestBuildAdjacency:
    def test_symmetric_binary(self):
        areas = ("a", "b", "c")
        w = build_adjacency(areas, [("a", "b"), ("b", "c")])
        assert np.array_equal(w, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_duplicate_edges_collapse(self):
        w = build_adjacency(("a", "b"), [("a", "b"), ("b", "a")])
        # repeated and reversed edges still give a 0/1 matrix
        assert np.array_equal(w, [[0, 1], [1, 0]])

    def test_unknown_area(self):
        with pytest.raises(UnknownAreaError):
            build_adjacency(("a", "b"), [("a", "z")])

    def test_self_loop(self):
        with pytest.raises(DomainError):
            build_adjacency(("a", "b"), [("a", "a")])

    def test_needs_two_areas(self):
        with pytest.raises(DomainError):
            build_adjacency(("a",), [])

    def test_duplicate_area_ids(self):
        with pytest.raises(DomainError):
            build_adjacency(("a", "a"), [])

    def test_disconnected_graph_warns_but_builds(self):
        with pytest.warns(UserWarning, match="2 connected components"):
            w = build_adjacency(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        assert w.sum() == 4

    def test_connected_graph_is_silent(self):
        areas, edges = grid_graph(2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_adjacency(areas, edges)


class TestExpandMultivariate:
    def test_two_area_two_cell_block(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = expand_multivariate(w, 2)
        expected = np.array(
            [
                [0, 0, 1, 1],
                [0, 0, 1, 1],
                [1, 1, 0, 0],
                [1, 1, 0, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(a, expected)

    def test_single_cell_is_identity_expansion(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(expand_multivariate(w, 1), w)

    def test_invalid_cells(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            expand_multivariate(w, 0)

    def test_asymmetric_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DomainError):
            expand_multivariate(bad, 2)

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            expand_multivariate(np.zeros((2, 3)), 2)


class TestIcarPrecision:
    def test_path_of_three(self):
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        q = icar_precision(a)
        assert np.array_equal(q, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_rows_sum_to_zero(self):
        areas, edges = grid_graph(4, 5)
        w = build_adjacency(areas, edges)
        a = expand_multivariate(w, 3)
        q = icar_precision(a)
        assert np.allclose(q @ np.ones(q.shape[0]), 0.0, atol=1e-12)
        assert np.array_equal(q, q.T)

    def test_positive_semidefinite_with_component_nullity(self):
        # two disconnected pairs: nullity 2
        areas = ("a", "b", "c", "d")
        with pytest.warns(UserWarning):
            w = build_adjacency(areas, [("a", "b"), ("c", "d")])
        q = icar_precision(w)
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() > -1e-12
        assert int(np.sum(np.abs(eigs) < 1e-10)) == 2
        labels = connected_components(w)
        assert len(set(labels.tolist())) == 2


class TestNonFiniteAdjacency:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x, a: moran_operator(x, a),
            lambda x, a: build_basis(x, a),
            lambda x, a: icar_precision(a),
        ],
        ids=["moran_operator", "build_basis", "icar_precision"],
    )
    def test_rejected_before_any_arithmetic(self, value, call):
        areas, edges = grid_graph(3, 3)
        a = build_adjacency(areas, edges)
        a[0, 1] = a[1, 0] = value  # symmetric, so only finiteness can object
        x = np.column_stack([np.ones(9), np.arange(9.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="adjacency entries must be finite"):
                call(x, a)


def depth_first_components(a: np.ndarray) -> np.ndarray:
    """Component labels numbered in order of each component's lowest node."""
    n = a.shape[0]
    labels = np.full(n, -1)
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            for nbr in np.flatnonzero(a[stack.pop()] > 0):
                if labels[nbr] < 0:
                    labels[nbr] = current
                    stack.append(int(nbr))
        current += 1
    return labels


class TestConnectedComponents:
    def test_matches_depth_first_search(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.02, 0.3), k=1)
            a = (upper | upper.T).astype(float)
            labels = connected_components(a)
            assert labels.dtype == np.int32
            assert np.array_equal(labels, depth_first_components(a))

    def test_grid_is_connected(self):
        areas, edges = grid_graph(3, 3)
        w = build_adjacency(areas, edges)
        assert len(set(connected_components(w).tolist())) == 1

    def test_labels_cover_members(self):
        areas = ("a", "b", "c", "d", "e")
        with pytest.warns(UserWarning):
            w = build_adjacency(areas, [("a", "b"), ("c", "d")])
        labels = connected_components(w)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[4] not in (labels[0], labels[2])

import numpy as np
import pytest

from areamix import DomainError, build_adjacency, gvf_impute, log_transform
from areamix.synthetic import grid_graph, study_table, two_field_study


class TestGridGraph:
    def test_edge_count(self):
        areas, edges = grid_graph(3, 4)
        assert len(areas) == 12
        # rook grid: r(c-1) horizontal + c(r-1) vertical
        assert len(edges) == 3 * 3 + 4 * 2

    def test_identifier_format(self):
        areas, _ = grid_graph(2, 2)
        assert areas == ["06000", "06001", "06002", "06003"]

    def test_edges_reference_known_areas(self):
        areas, edges = grid_graph(4, 4)
        w = build_adjacency(areas, edges)  # raises if malformed
        assert w.sum() == 2 * len(edges)


class TestTwoFieldStudy:
    def test_shapes_and_determinism(self):
        a = two_field_study(3, 3, 2, seed=5)
        b = two_field_study(3, 3, 2, seed=5)
        assert a.truth.n_rows == 18
        assert np.array_equal(a.truth.z, b.truth.z)
        assert np.array_equal(a.truth.d, b.truth.d)
        assert a.population == b.population

    def test_variances_defined_and_bounded(self):
        study = two_field_study(4, 4, 4, seed=1)
        assert np.all(np.isfinite(study.truth.d))
        assert np.all((study.truth.d >= 0.2) & (study.truth.d <= 0.5))

    def test_groups_split_cells(self):
        study = two_field_study(3, 3, 4, seed=0)
        per_area = study.groups[: study.n_cells]
        assert np.array_equal(per_area, [0, 0, 1, 1])
        assert np.array_equal(study.groups, np.tile(per_area, 9))

    def test_group_levels_differ(self):
        study = two_field_study(6, 6, 4, seed=0)
        z = study.truth.z
        assert z[study.groups == 0].mean() > z[study.groups == 1].mean() + 2.0

    def test_populations_positive(self):
        study = two_field_study(3, 4, 2, seed=2)
        assert all(v > 0 for v in study.population.values())
        assert set(study.population) == set(study.areas)

    def test_needs_two_cells(self):
        with pytest.raises(DomainError):
            two_field_study(3, 3, 1)


class TestStudyTable:
    def test_pipeline_round_trip(self):
        study = two_field_study(4, 4, 3, seed=3)
        table = study_table(study, seed=9)
        assert table.n_rows == study.truth.n_rows
        assert np.any(table.estimates == 0.0)  # imputation path gets traffic
        log_table = log_transform(table)
        assert np.any(~np.isfinite(log_table.d))
        filled = gvf_impute(log_table)
        assert np.all(np.isfinite(filled.d))
        assert np.all(filled.d > 0)

    def test_deterministic(self):
        study = two_field_study(3, 3, 2, seed=0)
        t1 = study_table(study, seed=4)
        t2 = study_table(study, seed=4)
        assert np.array_equal(t1.estimates, t2.estimates)
        assert np.array_equal(t1.std_errors, t2.std_errors)

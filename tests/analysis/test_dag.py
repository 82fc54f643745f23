"""Dependency-DAG tests — cross-checked against the level computation."""

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.dag import critical_path, dependency_dag, dependency_edge_count
from repro.analysis.levels import compute_levels
from repro.datasets.synthetic import chain, diagonal

from tests.conftest import random_unit_lower


class TestDag:
    def test_fig1_nodes_and_edges(self, fig1):
        g = dependency_dag(fig1)
        assert g.number_of_nodes() == 8
        # strict-lower elements: (2,1),(3,1),(3,2),(4,0),(4,1),(5,2),(6,3),(7,5)
        assert g.number_of_edges() == 8
        assert g.has_edge(1, 2)
        assert g.has_edge(2, 5)
        assert not g.has_edge(2, 1)

    def test_is_acyclic(self):
        L = random_unit_lower(50, 0.1, seed=0)
        assert nx.is_directed_acyclic_graph(dependency_dag(L))

    def test_edge_count_matches(self, fig1):
        assert dependency_edge_count(fig1) == 8

    def test_diagonal_has_no_edges(self):
        assert dependency_edge_count(diagonal(10)) == 0

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 40),
        density=st.floats(0.0, 0.4),
        seed=st.integers(0, 9_999),
    )
    def test_networkx_longest_path_equals_levels(self, n, density, seed):
        """nx.dag_longest_path_length must equal n_levels - 1."""
        L = random_unit_lower(n, density, seed=seed)
        g = dependency_dag(L)
        expected = compute_levels(L).n_levels - 1
        assert nx.dag_longest_path_length(g) == expected


class TestCriticalPath:
    def test_chain_critical_path_is_whole_chain(self):
        path = critical_path(chain(20))
        assert path == list(range(20))

    def test_diagonal_critical_path_single_node(self):
        assert len(critical_path(diagonal(10))) == 1

    def test_path_is_valid_dependency_chain(self, fig1):
        path = critical_path(fig1)
        assert len(path) == compute_levels(fig1).n_levels
        g = dependency_dag(fig1)
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)

    def test_empty_matrix(self):
        from repro.sparse.csr import CSRMatrix

        m = CSRMatrix(0, 0, np.array([0]), np.array([]), np.array([]))
        assert critical_path(m) == []

"""Dependency DAG construction (Section 2.1, Figure 1(b)).

The solution dependencies of ``Lx = b`` form a directed acyclic graph with
one node per component and an edge ``j -> i`` for every strictly-lower
element ``L[i, j]``.  The DAG view is mostly useful for inspection,
visualization and property testing (levels computed on the DAG with
networkx must equal the CSR sweep of :mod:`repro.analysis.levels`); the
solvers themselves never materialize it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["dependency_dag", "dependency_edge_count", "critical_path"]


def dependency_dag(L: CSRMatrix) -> "nx.DiGraph":
    """Build the component dependency DAG as a networkx digraph.

    Edge ``j -> i`` means component ``x_i`` consumes ``x_j``.  Diagonal
    elements produce no edge.
    """
    import networkx as nx  # 285 modules: kept off the serve tier's import path

    g = nx.DiGraph()
    g.add_nodes_from(range(L.n_rows))
    rows = np.repeat(np.arange(L.n_rows, dtype=np.int64), L.row_lengths())
    strict = L.col_idx < rows
    g.add_edges_from(zip(L.col_idx[strict].tolist(), rows[strict].tolist()))
    return g


def dependency_edge_count(L: CSRMatrix) -> int:
    """Number of dependency edges (strictly-lower stored elements)."""
    rows = np.repeat(np.arange(L.n_rows, dtype=np.int64), L.row_lengths())
    return int(np.count_nonzero(L.col_idx < rows))


def critical_path(L: CSRMatrix) -> list[int]:
    """One longest dependency chain (component indices, source first).

    Its length minus one equals the number of inter-level steps any
    parallel schedule must serialize — the fundamental lower bound on
    SpTRSV parallel time.
    """
    n = L.n_rows
    if n == 0:
        return []
    best_len = np.zeros(n, dtype=np.int64)
    best_pred = np.full(n, -1, dtype=np.int64)
    row_ptr, col_idx = L.row_ptr, L.col_idx
    for i in range(n):
        cols = col_idx[row_ptr[i]: row_ptr[i + 1]]
        deps = cols[cols < i]
        if deps.size:
            k = deps[np.argmax(best_len[deps])]
            best_len[i] = best_len[k] + 1
            best_pred[i] = k
    end = int(np.argmax(best_len))
    path = [end]
    while best_pred[path[-1]] >= 0:
        path.append(int(best_pred[path[-1]]))
    path.reverse()
    return path

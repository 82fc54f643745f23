"""Row/column reorderings for triangular systems.

The related-work section of the paper surveys reordering-based
optimizations (data reordering, locality/concurrency balancing).  Two
classic inspector-executor transforms are provided:

* :func:`reorder_by_levels` — permute rows (and columns, symmetrically)
  so each level-set becomes contiguous.  The permuted matrix is still
  lower triangular, its level structure is preserved level-for-level,
  and level-set executors get perfectly coalesced row blocks.
* :func:`reorder_reverse_cuthill_mckee` — bandwidth-reducing RCM on the
  symmetrized pattern, then re-triangularized; deepens locality for
  banded-ish systems.

Both return the permuted matrix plus the permutation so solutions can
be mapped back with :func:`apply_inverse_permutation`.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.levels import LevelSchedule, compute_levels
from repro.errors import NotTriangularError
from repro.sparse.coo import COOMatrix
from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.csr import CSRMatrix

__all__ = [
    "reorder_by_levels",
    "reorder_reverse_cuthill_mckee",
    "permute_symmetric",
    "apply_inverse_permutation",
]


def permute_symmetric(L: CSRMatrix, perm: np.ndarray) -> CSRMatrix:
    """Symmetric permutation ``B[p[i], p[j]] = A[i, j]``.

    ``perm[i]`` is the *new* index of old row ``i``.
    """
    if not L.is_square:
        raise NotTriangularError(f"need a square matrix, got {L.shape}")
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(L.n_rows)):
        raise ValueError("perm must be a permutation of 0..n-1")
    coo = csr_to_coo(L)
    return coo_to_csr(
        COOMatrix(L.n_rows, L.n_cols, perm[coo.rows], perm[coo.cols],
                  coo.values)
    )


def apply_inverse_permutation(x_perm: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Map a solution of the permuted system back to original ordering.

    If ``L' = P L P^T`` and ``L' y = P b``, then ``x = P^T y``, i.e.
    ``x[i] = y[perm[i]]``.
    """
    perm = np.asarray(perm, dtype=np.int64)
    return np.asarray(x_perm)[perm]


def reorder_by_levels(
    L: CSRMatrix, *, schedule: LevelSchedule | None = None
) -> tuple[CSRMatrix, np.ndarray]:
    """Permute rows so level-sets are contiguous (levels ascending).

    Returns ``(L_perm, perm)`` with ``perm[i]`` the new index of old row
    ``i``.  Dependencies always point from higher to lower levels, so
    the permuted matrix stays lower triangular.
    """
    schedule = schedule or compute_levels(L)
    # schedule.order lists old rows in (level, row) order: old order[k]
    # moves to new position k
    perm = np.empty(L.n_rows, dtype=np.int64)
    perm[schedule.order] = np.arange(L.n_rows, dtype=np.int64)
    return permute_symmetric(L, perm), perm


def reorder_reverse_cuthill_mckee(L: CSRMatrix) -> tuple[CSRMatrix, np.ndarray]:
    """RCM on the symmetrized pattern, re-triangularized.

    RCM produces an ordering that reduces bandwidth; since an arbitrary
    permutation of a triangular matrix need not stay triangular, entries
    landing above the diagonal are mirrored back below it (the pattern
    is treated symmetrically, which is how RCM is defined anyway).
    Returns ``(L_rcm, perm)``.
    """
    import networkx as nx  # 285 modules: kept off the serve tier's import path

    if not L.is_square:
        raise NotTriangularError(f"need a square matrix, got {L.shape}")
    n = L.n_rows
    g = nx.Graph()
    g.add_nodes_from(range(n))
    coo = csr_to_coo(L)
    strict = coo.cols < coo.rows
    g.add_edges_from(zip(coo.rows[strict].tolist(), coo.cols[strict].tolist()))
    order = list(nx.utils.reverse_cuthill_mckee_ordering(g))
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n, dtype=np.int64)

    new_rows = perm[coo.rows]
    new_cols = perm[coo.cols]
    # mirror any entry that ended up strictly above the diagonal
    flip = new_cols > new_rows
    new_rows[flip], new_cols[flip] = new_cols[flip].copy(), new_rows[flip].copy()
    return (
        coo_to_csr(COOMatrix(n, n, new_rows, new_cols, coo.values)),
        perm,
    )

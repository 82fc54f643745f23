"""Level-set computation tests (Section 2.1/2.2 semantics)."""

import hashlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dag import dependency_dag
from repro.analysis.levels import compute_levels
from repro.datasets import generate
from repro.datasets.synthetic import banded, chain, diagonal
from repro.errors import NotTriangularError
from repro.sparse.convert import dense_to_csr
from repro.sparse.csr import CSRMatrix

from tests.conftest import build_csr, random_unit_lower


class TestFig1:
    """The paper's Figure 1 example has exactly four level-sets."""

    def test_levels_of_rows(self, fig1):
        sched = compute_levels(fig1)
        assert sched.level_of_row.tolist() == [0, 0, 1, 2, 1, 2, 3, 3]

    def test_four_level_sets(self, fig1):
        sched = compute_levels(fig1)
        assert sched.n_levels == 4
        assert sched.level_sizes().tolist() == [2, 2, 2, 2]

    def test_rows_in_level(self, fig1):
        sched = compute_levels(fig1)
        assert sched.rows_in_level(0).tolist() == [0, 1]
        assert sched.rows_in_level(1).tolist() == [2, 4]
        assert sched.rows_in_level(2).tolist() == [3, 5]
        assert sched.rows_in_level(3).tolist() == [6, 7]

    def test_avg_rows_per_level(self, fig1):
        assert compute_levels(fig1).avg_rows_per_level() == 2.0

    def test_max_level_width(self, fig1):
        assert compute_levels(fig1).max_level_width() == 2


class TestStructures:
    def test_diagonal_one_level(self):
        sched = compute_levels(diagonal(50))
        assert sched.n_levels == 1
        assert sched.max_level_width() == 50

    def test_chain_n_levels(self):
        sched = compute_levels(chain(64))
        assert sched.n_levels == 64
        assert np.array_equal(sched.level_of_row, np.arange(64))

    def test_banded_full_depth(self):
        # offset-1 band is always kept, so depth equals n
        sched = compute_levels(banded(40, bandwidth=4, fill=0.5))
        assert sched.n_levels == 40

    def test_level_of_dependency_strictly_smaller(self):
        L = random_unit_lower(80, 0.1, seed=4)
        sched = compute_levels(L)
        rows = np.repeat(np.arange(80), L.row_lengths())
        strict = L.col_idx < rows
        assert np.all(
            sched.level_of_row[L.col_idx[strict]]
            < sched.level_of_row[rows[strict]]
        )

    def test_order_is_permutation_stable_within_level(self):
        L = random_unit_lower(60, 0.08, seed=1)
        sched = compute_levels(L)
        assert sorted(sched.order.tolist()) == list(range(60))
        for k in range(sched.n_levels):
            rows = sched.rows_in_level(k)
            assert np.all(np.diff(rows) > 0)  # ascending row order

    def test_level_ptr_consistent(self):
        L = random_unit_lower(60, 0.08, seed=2)
        sched = compute_levels(L)
        assert sched.level_ptr[0] == 0
        assert sched.level_ptr[-1] == 60
        assert np.array_equal(
            np.diff(sched.level_ptr),
            np.bincount(sched.level_of_row, minlength=sched.n_levels),
        )

    def test_rows_in_level_out_of_range(self, fig1):
        with pytest.raises(IndexError):
            compute_levels(fig1).rows_in_level(4)

    def test_upper_triangular_rejected(self):
        m = build_csr({(0, 0): 1.0, (0, 1): 2.0, (1, 1): 1.0}, 2)
        with pytest.raises(NotTriangularError):
            compute_levels(m)

    def test_non_square_rejected(self):
        m = dense_to_csr(np.tril(np.ones((2, 3))))
        with pytest.raises(NotTriangularError):
            compute_levels(m)


def _longest_path_levels(L) -> list[int]:
    """Reference levels: longest path into each node of the dependency
    DAG, taken in networkx's topological order rather than row order."""
    g = dependency_dag(L)
    level = [0] * L.n_rows
    for v in nx.topological_sort(g):
        preds = [level[u] for u in g.predecessors(v)]
        level[v] = 1 + max(preds) if preds else 0
    return level


def _shuffled_rows(L, seed: int) -> CSRMatrix:
    """``L`` with the stored entries of every row in a random order
    (bypasses the sorted-column validation on purpose)."""
    rng = np.random.default_rng(seed)
    cols = L.col_idx.copy()
    vals = L.values.copy()
    for i in range(L.n_rows):
        lo, hi = int(L.row_ptr[i]), int(L.row_ptr[i + 1])
        perm = lo + rng.permutation(hi - lo)
        cols[lo:hi] = L.col_idx[perm]
        vals[lo:hi] = L.values[perm]
    return CSRMatrix(
        L.n_rows, L.n_cols, L.row_ptr.copy(), cols, vals, _validated=True
    )


@st.composite
def lower_matrices(draw):
    """Random lower matrices, chains, bands and diagonal-only matrices,
    some with rows of no dependencies in the middle (zeroed-out rows)."""
    kind = draw(st.sampled_from(["random", "chain", "band", "diagonal"]))
    n = draw(st.integers(1, 70))
    seed = draw(st.integers(0, 99_999))
    if kind == "random":
        L = random_unit_lower(n, draw(st.floats(0.0, 0.5)), seed=seed)
    elif kind == "chain":
        L = chain(n, seed, width=draw(st.integers(1, 4)))
    elif kind == "band":
        L = banded(
            n, seed, bandwidth=draw(st.integers(1, 8)),
            fill=draw(st.floats(0.1, 1.0)),
        )
    else:
        L = diagonal(n, seed)
    isolated = draw(st.sets(st.integers(0, n - 1), max_size=n // 3 + 1))
    if isolated:
        # drop every off-diagonal entry of the chosen rows
        rows = np.repeat(np.arange(n), L.row_lengths())
        keep = ~(np.isin(rows, sorted(isolated)) & (L.col_idx < rows))
        L = build_csr(
            {
                (int(r), int(c)): float(v)
                for r, c, v in zip(rows[keep], L.col_idx[keep], L.values[keep])
            },
            n,
        )
    return L


class TestLongestPathOracle:
    """``compute_levels`` agrees row by row with an independent
    longest-path pass over the dependency DAG."""

    @settings(max_examples=60, deadline=None)
    @given(L=lower_matrices(), shuffle=st.booleans(), seed=st.integers(0, 999))
    def test_levels_match_longest_paths(self, L, shuffle, seed):
        if shuffle:
            L = _shuffled_rows(L, seed)
        sched = compute_levels(L)
        assert sched.level_of_row.dtype == np.int64
        assert sched.level_of_row.tolist() == _longest_path_levels(L)
        assert np.array_equal(
            sched.order, np.argsort(sched.level_of_row, kind="stable")
        )
        assert np.array_equal(
            np.diff(sched.level_ptr), np.bincount(sched.level_of_row)
        )

    def test_unsorted_columns_give_the_sorted_answer(self):
        L = random_unit_lower(90, 0.2, seed=11)
        a, b = compute_levels(L), compute_levels(_shuffled_rows(L, 5))
        for field in ("level_of_row", "level_ptr", "order"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_empty_matrix(self):
        empty = CSRMatrix(0, 0, np.zeros(1), np.zeros(0), np.zeros(0))
        sched = compute_levels(empty)
        assert sched.n_levels == 0
        assert sched.level_ptr.tolist() == [0]
        assert sched.order.dtype == np.int64 and sched.order.size == 0

    def test_deep_chain(self):
        sched = compute_levels(chain(5000))
        assert sched.n_levels == 5000
        assert np.array_equal(sched.level_of_row, np.arange(5000))


#: blake2b-128 of ``level_of_row``, ``level_ptr`` and ``order`` (int64
#: bytes, in that order) for the perfbench workload matrices, recorded
#: with the two-strategy implementation this sweep replaced (fixed-point
#: relaxation up to 96 levels, a per-row loop beyond).
_SCHEDULE_DIGESTS = {
    ("circuit", 2000, (), 0): "a213682546e581b2d76b50c2dec20bf7",
    ("circuit", 2000, (), 1): "54e94ae29ce6cfa2be8268fc70b4f41d",
    ("circuit", 2000, (), 2): "ed725a3638b8be8f25f63127e421eff6",
    ("graph", 2000, (), 0): "f8d1bcac8dc790f9acf7793511b3204a",
    ("graph", 2000, (), 1): "4d99a12caa3dfd5d4e8a3b5016871659",
    ("graph", 2000, (), 2): "1912cc91125257708949baf3c74408f7",
    ("lp", 2000, (), 0): "aabb166a437632d12b53f12cc9038ab8",
    ("lp", 2000, (), 1): "cec7c488a6fc00e6135d65580180ca0f",
    ("lp", 2000, (), 2): "8a9ac36aa478b472a9d558db3b30cec3",
    ("chain", 4000, (), 0): "d95e8e2246645691eecf41bf1f892161",
    ("chain", 4000, (), 1): "d95e8e2246645691eecf41bf1f892161",
    ("chain", 4000, (), 2): "d95e8e2246645691eecf41bf1f892161",
    ("fem", 20000, (("bandwidth", 4),), 0): "41daec2eef62bff9a7a4fabe7129bb44",
    ("fem", 20000, (("bandwidth", 4),), 1): "41daec2eef62bff9a7a4fabe7129bb44",
    ("fem", 20000, (("bandwidth", 4),), 2): "41daec2eef62bff9a7a4fabe7129bb44",
    ("circuit", 20000, (), 0): "c43d29bd556dfab39aa56b68b3693093",
    ("circuit", 20000, (), 1): "acaf45f00fcd0ce14c4d3b27d5e55d60",
    ("circuit", 20000, (), 2): "4e941b994f63ca8a9274a5cd8cbacfdb",
    ("lp", 20000, (), 0): "a02af2de929897d53ad6c6b46ce22805",
    ("lp", 20000, (), 1): "00c1f1125d57dcb072067a2666081e05",
    ("lp", 20000, (), 2): "e216f0eb27adc25ef294f771c2b71c7d",
}


class TestWorkloadSchedules:
    """The perfbench workload matrices keep their exact schedules."""

    @pytest.mark.parametrize(
        "domain,n_rows,params,seed", sorted(_SCHEDULE_DIGESTS)
    )
    def test_schedule_bytes_unchanged(self, domain, n_rows, params, seed):
        sched = compute_levels(generate(domain, n_rows, seed=seed, **dict(params)))
        h = hashlib.blake2b(digest_size=16)
        for arr in (sched.level_of_row, sched.level_ptr, sched.order):
            assert arr.dtype == np.int64
            h.update(arr.tobytes())
        assert h.hexdigest() == _SCHEDULE_DIGESTS[domain, n_rows, params, seed]


class TestMergeLevels:
    """Invariants of the level-merged schedule (input of the merged plan variant)."""

    def _merged(self, L, **kw):
        from repro.analysis.levels import compute_levels, merge_levels

        base = compute_levels(L)
        return base, merge_levels(L, base, **kw)

    def test_row_order_and_counts_preserved(self):
        L = chain(150)
        base, merged = self._merged(L)
        assert merged.n_rows == base.n_rows
        assert np.array_equal(merged.order, base.order)
        assert merged.n_levels <= base.n_levels
        assert merged.level_sizes().sum() == L.n_rows

    def test_level_ptr_monotone_and_covers(self):
        L = random_unit_lower(120, 0.1, seed=7)
        _, merged = self._merged(L)
        ptr = merged.level_ptr
        assert ptr[0] == 0 and ptr[-1] == L.n_rows
        assert np.all(np.diff(ptr) > 0)

    def test_redundant_nnz_accounting(self):
        L = chain(100)
        _, merged = self._merged(L)
        assert merged.direct_nnz == L.nnz
        assert merged.expanded_nnz >= merged.direct_nnz
        assert merged.redundant_nnz == (
            merged.expanded_nnz - merged.direct_nnz
        )

    def test_chain_collapses_under_group_cap(self):
        # a pure chain is all width-1 levels: with the work budget out
        # of the way, groups close exactly at max_group
        base, merged = self._merged(
            chain(128), max_group=16, budget=1e9
        )
        assert base.n_levels == 128
        assert merged.n_levels == 8
        assert merged.compression() == pytest.approx(16.0)

    def test_wide_levels_never_merge(self):
        L = diagonal(64)  # one level of width 64
        base, merged = self._merged(L, max_width=8)
        assert base.n_levels == merged.n_levels == 1
        assert merged.redundant_nnz == 0

    def test_budget_one_forbids_expansion(self):
        # budget=1.0 allows merging only when substitution adds no work
        L = random_unit_lower(150, 0.15, seed=3)
        _, merged = self._merged(L, budget=1.0)
        assert merged.expanded_nnz <= merged.direct_nnz * 1.0 + 1e-9

    def test_invalid_knobs_raise(self):
        from repro.analysis.levels import merge_levels

        L = chain(10)
        with pytest.raises(ValueError):
            merge_levels(L, budget=0.5)
        with pytest.raises(ValueError):
            merge_levels(L, max_width=0)
        with pytest.raises(ValueError):
            merge_levels(L, max_group=0)

"""Level-set computation for lower triangular matrices.

A *level* (Section 2.1) is the solution depth of a component in the
dependency DAG: ``level(i) = 1 + max(level(j))`` over all ``j`` with
``L[i, j] != 0, j < i``, and ``level(i) = 0`` for rows with no
off-diagonal entry.  Components that share a level form a *level-set* and
can be solved in parallel.

The computation here is the preprocessing step the level-set SpTRSV
algorithm (Algorithm 2) needs — the paper charges its cost in Table 1.  We
implement it as a single forward sweep over the CSR arrays, which is
O(nnz) like the production implementations in [1, 35].

:func:`merge_levels` adds the schedule-side optimization for the *deep*
regime: adjacent skinny levels are coalesced into groups by substituting
the few cross-level dependencies inside a group with the dependent rows'
own linear expansions (Böhnlein et al., arXiv:2503.05408).  Each merged
group then has no internal ordering constraint, so an executor would pay
one synchronization per *group* instead of per level, at the price of a
bounded amount of redundant arithmetic.  It is a structural analysis
(``analyze --levels`` previews it); the host fast lane serves deep
matrices with a barrier-free sequential sweep instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NotTriangularError
from repro.sparse.csr import CSRMatrix

__all__ = [
    "LevelSchedule",
    "MergedSchedule",
    "compute_levels",
    "merge_levels",
]


@dataclass(frozen=True)
class LevelSchedule:
    """The output of level-set preprocessing (Section 2.2).

    Attributes
    ----------
    level_of_row:
        ``level_of_row[i]`` is the level of component ``x_i``.
    level_ptr:
        CSR-style pointer into :attr:`order`; level ``k`` occupies
        ``order[level_ptr[k]:level_ptr[k+1]]``.  This is the paper's
        ``layer_num`` array.
    order:
        Row indices rearranged so rows of one level are contiguous,
        preserving ascending row order inside a level (the paper's
        ``order`` array).
    """

    level_of_row: np.ndarray
    level_ptr: np.ndarray
    order: np.ndarray

    @property
    def n_levels(self) -> int:
        """Number of levels (the paper's ``layer``)."""
        return len(self.level_ptr) - 1

    @property
    def n_rows(self) -> int:
        return len(self.level_of_row)

    def level_sizes(self) -> np.ndarray:
        """Number of components in each level-set."""
        return np.diff(self.level_ptr)

    def rows_in_level(self, k: int) -> np.ndarray:
        """Row indices of level ``k`` in ascending order."""
        if not 0 <= k < self.n_levels:
            raise IndexError(f"level {k} out of range for {self.n_levels} levels")
        return self.order[self.level_ptr[k]: self.level_ptr[k + 1]]

    def avg_rows_per_level(self) -> float:
        """The paper's ``n_level`` statistic (Section 3.2)."""
        if self.n_levels == 0:
            return 0.0
        return self.n_rows / self.n_levels

    def max_level_width(self) -> int:
        """Size of the widest level-set (peak available parallelism)."""
        if self.n_levels == 0:
            return 0
        return int(self.level_sizes().max())


#: Iterations of the vectorized relaxation before falling back to the
#: serial sweep (deep-level matrices converge slowly under relaxation).
_RELAXATION_LIMIT = 96


def compute_levels(L: CSRMatrix) -> LevelSchedule:
    """Compute the level schedule of a lower triangular CSR matrix.

    Two strategies share the exact same semantics:

    * a vectorized fixed-point relaxation (one O(nnz) ``reduceat`` pass
      per level) — fast for the wide, shallow matrices the paper targets;
    * a serial forward sweep — taken over when the level count exceeds
      :data:`_RELAXATION_LIMIT` (deep FEM/chain structures), where
      relaxation would need one pass per level.
    """
    n = L.n_rows
    if not L.is_square:
        raise NotTriangularError(f"matrix must be square, got {L.shape}")
    rows = np.repeat(np.arange(n, dtype=np.int64), L.row_lengths())
    if np.any(L.col_idx > rows):
        bad = int(np.nonzero(L.col_idx > rows)[0][0])
        raise NotTriangularError(
            f"upper-triangular element stored at position {bad} "
            f"(row {int(rows[bad])}, col {int(L.col_idx[bad])})"
        )

    level = _levels_by_relaxation(n, rows, L.col_idx)
    if level is None:
        level = _levels_serial(L)

    n_levels = int(level.max()) + 1 if n else 0
    level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.add.at(level_ptr, level + 1, 1)
    np.cumsum(level_ptr, out=level_ptr)
    # stable sort keeps ascending row order inside each level
    order = np.argsort(level, kind="stable").astype(np.int64)
    return LevelSchedule(level_of_row=level, level_ptr=level_ptr, order=order)


def _levels_by_relaxation(
    n: int, rows: np.ndarray, col_idx: np.ndarray
) -> np.ndarray | None:
    """Fixed-point relaxation of ``level[i] = 1 + max(level[deps])``.

    Returns ``None`` when convergence exceeds :data:`_RELAXATION_LIMIT`
    iterations (the caller falls back to the serial sweep).
    """
    strict = col_idx < rows
    src = col_idx[strict]
    dst_counts = np.zeros(n + 1, dtype=np.int64)
    np.add.at(dst_counts, rows[strict] + 1, 1)
    ptr = np.cumsum(dst_counts)
    if len(src) == 0:
        return np.zeros(n, dtype=np.int64)
    nonempty = ptr[:-1] != ptr[1:]
    starts = ptr[:-1][nonempty]  # strictly increasing, tiles src exactly

    level = np.zeros(n, dtype=np.int64)
    seg_max = np.zeros(n, dtype=np.int64)
    for _ in range(_RELAXATION_LIMIT):
        cand = level[src] + 1
        seg_max[nonempty] = np.maximum.reduceat(cand, starts)
        new_level = np.maximum(level, seg_max)
        if np.array_equal(new_level, level):
            return level
        level = new_level
    return None


def _levels_serial(L: CSRMatrix) -> np.ndarray:
    """Serial forward sweep (dependencies precede their consumers)."""
    n = L.n_rows
    level = np.zeros(n, dtype=np.int64)
    row_ptr = L.row_ptr
    col_idx = L.col_idx
    for i in range(n):
        lo, hi = int(row_ptr[i]), int(row_ptr[i + 1])
        cols = col_idx[lo:hi]
        deps = cols[cols < i]
        if deps.size:
            level[i] = level[deps].max() + 1
    return level


#: Levels wider than this never join a merged group — wide levels already
#: amortize per-level overhead over many rows, and their expansions would
#: blow the redundant-work budget anyway.
DEFAULT_MERGE_MAX_WIDTH = 32

#: A group's expanded coefficient count may not exceed ``budget`` times
#: its direct count.  On a pure chain this caps groups at ``2 * budget``
#: levels (the expansion of the t-th chained row carries t + 1 terms).
DEFAULT_MERGE_BUDGET = 4.0

#: Hard cap on levels per group regardless of budget headroom, keeping
#: the inspector's substitution pass (and its working sets) bounded.
DEFAULT_MERGE_MAX_GROUP = 32


@dataclass(frozen=True)
class MergedSchedule:
    """A level schedule with adjacent skinny levels coalesced into groups.

    Rows inside one group are made mutually independent by *substitution*:
    when row ``i`` depends on row ``j`` of an earlier level in the same
    group, ``x_j`` is replaced by its own linear expansion over inputs
    computed before the group (earlier ``x`` entries and right-hand-side
    values).  The group then executes as a single step.  The duplicated
    coefficients are the redundant work the paper's flop-vs-sync tradeoff
    buys synchronization freedom with.

    This object is purely *structural* — it records which base levels fuse
    and how many coefficients the substituted form carries; nothing
    materializes the numeric expansion.

    Attributes
    ----------
    base:
        The unmerged :class:`LevelSchedule` this grouping refines.
    group_ptr:
        CSR-style pointer into base levels; merged level ``g`` spans base
        levels ``group_ptr[g]:group_ptr[g+1]``.
    level_ptr:
        CSR-style pointer into :attr:`LevelSchedule.order`; merged level
        ``g`` owns rows ``base.order[level_ptr[g]:level_ptr[g+1]]``.
        Always equals ``base.level_ptr[group_ptr]``.
    direct_nnz:
        Coefficients of the unsubstituted scaled form — one per stored
        matrix element (every off-diagonal dependency plus one ``b``
        coefficient per row), i.e. ``nnz(L)``.
    expanded_nnz:
        Coefficients after substitution; ``expanded_nnz - direct_nnz`` is
        the redundant work the merge buys its step reduction with.
    """

    base: LevelSchedule
    group_ptr: np.ndarray
    level_ptr: np.ndarray
    direct_nnz: int
    expanded_nnz: int

    @property
    def n_levels(self) -> int:
        """Number of merged levels (execution steps)."""
        return len(self.group_ptr) - 1

    @property
    def n_rows(self) -> int:
        return self.base.n_rows

    @property
    def order(self) -> np.ndarray:
        """Row order is inherited unchanged from the base schedule."""
        return self.base.order

    @property
    def redundant_nnz(self) -> int:
        """Duplicated coefficients introduced by substitution."""
        return self.expanded_nnz - self.direct_nnz

    def level_sizes(self) -> np.ndarray:
        """Number of rows in each merged level."""
        return np.diff(self.level_ptr)

    def group_sizes(self) -> np.ndarray:
        """Number of base levels fused into each merged level."""
        return np.diff(self.group_ptr)

    def compression(self) -> float:
        """Base levels per merged level (synchronization reduction)."""
        if self.n_levels == 0:
            return 1.0
        return self.base.n_levels / self.n_levels


def merge_levels(
    L: CSRMatrix,
    schedule: LevelSchedule | None = None,
    *,
    max_width: int = DEFAULT_MERGE_MAX_WIDTH,
    budget: float = DEFAULT_MERGE_BUDGET,
    max_group: int = DEFAULT_MERGE_MAX_GROUP,
) -> MergedSchedule:
    """Greedily coalesce adjacent skinny levels under a redundant-work budget.

    Levels are scanned in order and appended to the current group while
    all of the following hold; otherwise the group closes and the level
    starts a new one:

    * the level's width is at most ``max_width`` (wide levels always form
      singleton groups and incur no redundant work);
    * the group holds fewer than ``max_group`` levels;
    * after substituting this level's intra-group dependencies, the
      group's expanded coefficient count stays within ``budget`` times its
      direct count.

    The substitution is simulated structurally: each in-group row carries
    the *set* of pre-group inputs its value is a linear combination of
    (earlier ``x`` entries, encoded as their row index, and ``b`` entries,
    encoded as ``n + row``).  Merging a level unions the input sets of its
    in-group dependencies — exactly the support the numeric expansion
    would have.
    """
    if max_width < 1:
        raise ValueError(f"max_width must be >= 1, got {max_width}")
    if max_group < 1:
        raise ValueError(f"max_group must be >= 1, got {max_group}")
    if budget < 1.0:
        raise ValueError(f"budget must be >= 1.0, got {budget}")
    if schedule is None:
        schedule = compute_levels(L)

    n = L.n_rows
    row_ptr = L.row_ptr
    col_idx = L.col_idx
    level_ptr = schedule.level_ptr
    order = schedule.order
    row_lengths = np.diff(row_ptr)

    group_starts: list[int] = [0]
    expanded_total = 0

    # state of the (open) current group
    group_levels = 0  # levels accumulated so far
    group_direct = 0  # direct coefficients of those levels
    group_expanded = 0  # coefficients after substitution
    inputs: dict[int, frozenset[int]] = {}  # row -> support of its expansion

    def close_group(next_level: int) -> None:
        nonlocal group_levels, group_direct, group_expanded, expanded_total
        if group_levels:
            group_starts.append(next_level)
            expanded_total += group_expanded
        group_levels = group_direct = group_expanded = 0
        inputs.clear()

    for lvl in range(schedule.n_levels):
        r0, r1 = int(level_ptr[lvl]), int(level_ptr[lvl + 1])
        rows = order[r0:r1]
        width = r1 - r0
        # direct scaled form: every off-diagonal dependency plus one b term
        direct = int(row_lengths[rows].sum())

        if width > max_width:
            # wide level: singleton group, no substitution, no redundancy
            close_group(lvl)
            group_levels, group_direct, group_expanded = 1, direct, direct
            close_group(lvl + 1)
            continue

        # build this level's input sets, substituting in-group deps
        level_sets: dict[int, frozenset[int]] = {}
        expanded = 0
        for i in rows.tolist():
            support = {n + i}
            for j in col_idx[row_ptr[i]: row_ptr[i + 1] - 1].tolist():
                sub = inputs.get(j)
                if sub is None:
                    support.add(j)
                else:
                    support |= sub
            fs = frozenset(support)
            level_sets[i] = fs
            expanded += len(fs)

        if group_levels and (
            group_levels >= max_group
            or group_expanded + expanded > budget * (group_direct + direct)
        ):
            close_group(lvl)
            # re-derive the sets without in-group substitution: the group
            # just closed, so every dependency is now external
            level_sets = {}
            expanded = 0
            for i in rows.tolist():
                fs = frozenset(
                    col_idx[row_ptr[i]: row_ptr[i + 1] - 1].tolist()
                ) | {n + i}
                level_sets[i] = fs
                expanded += len(fs)

        group_levels += 1
        group_direct += direct
        group_expanded += expanded
        inputs.update(level_sets)
    close_group(schedule.n_levels)

    group_ptr = np.asarray(group_starts, dtype=np.int64)
    return MergedSchedule(
        base=schedule,
        group_ptr=group_ptr,
        level_ptr=level_ptr[group_ptr].copy(),
        direct_nnz=int(L.nnz),
        expanded_nnz=expanded_total,
    )

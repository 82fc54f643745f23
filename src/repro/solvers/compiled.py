"""The fast lane: one fused, synchronization-free plan type.

Every wall-clock solve in the serve tier runs a :class:`CompiledPlan`.
Deep skinny level structures — the paper's high-granularity regime —
would pay interpreter overhead once per level, thousands of times per
solve, so the plan attacks that overhead on two independent axes,
following the two halves of the fix in the literature:

* **Kernel side** (Li, arXiv:1710.04985): the whole level loop is fused
  into *one* call.  Every plan row is first rewritten as a pure linear
  functional with the diagonal division folded into the coefficients
  (off-diagonal dependency ``j`` contributes ``-L[i,j]/L[i,i]`` on
  ``x_j``), so a solve is a start state plus one multiply-add sweep::

      x_i = start_i + sum_e vals[e] * W[idx[e]]

  Because plan order is topological, a single flat loop over plan rows
  is correct without any level barrier; when numba is installed that
  loop JIT-compiles to one GIL-releasing native call
  (``@njit(nogil=True)``).  Without numba a pure-numpy executor (one
  gather + one ``np.add.reduceat`` + one scatter per *executed level*)
  keeps the lane present and correct.

* **Schedule side** (Böhnlein et al., arXiv:2503.05408): the builder
  accepts ``schedule="merged"`` and materializes the numeric
  substitution recorded by :func:`repro.analysis.levels.merge_levels` —
  adjacent skinny levels coalesce into one executed step, with the few
  cross-level dependencies replaced by the dependent rows' own
  expansions.  A bounded amount of redundant arithmetic buys an order
  of magnitude fewer interpreter iterations, which is exactly what the
  numpy executor needs on a 10k-level chain.  ``schedule="level"``
  keeps one step per level.

Each variant stores one form of its coefficients.  The level variant
stores dependencies only plus ``inv_diag``: a solve starts from
``X = B * inv_diag`` and gathers from ``X`` alone, so wide shallow
levels never gather right-hand-side terms.  The merged variant cannot
do that — an expanded row reads other rows' ``b`` — so it stores the
stacked form over a workspace ``W = [X; B]`` of shape ``(2n, k)``, with
``b_i`` an explicit input (``idx >= n``, coefficient ``1/L[i,i]``) and
a zero start.

:func:`pick_schedule` chooses the variant per matrix from its features
(the Eq. 1 rule :func:`prefers_compiled`); callers in the serve tier
never set it.  ``HAVE_NUMBA`` reports whether the JIT backend is
importable; nothing in this module requires it.  The profiled path
(ambient :class:`~repro.obs.hostprof.HostProfiler`) always runs the
per-level numpy executor so each step's wall time can be attributed to
gather/reduce/scatter.  Its answers are bit-identical to an unprofiled
*numpy* solve; with numba installed, unprofiled solves run the fused
kernel, which sums in a different order, so profiled and unprofiled
answers may then differ in the last bits.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.analysis.granularity import HIGH_GRANULARITY_THRESHOLD
from repro.analysis.levels import (
    DEFAULT_MERGE_BUDGET,
    DEFAULT_MERGE_MAX_GROUP,
    DEFAULT_MERGE_MAX_WIDTH,
    LevelSchedule,
    MergedSchedule,
    compute_levels,
    merge_levels,
)
from repro.errors import SolverError
from repro.gpu.device import DeviceSpec
from repro.obs.hostprof import HostLaunchProfile, active_host_profiler
from repro.solvers.base import PreprocessInfo, SolveResult, SpTRSVSolver
from repro.sparse.csr import CSRMatrix
from repro.sparse.triangular import check_solvable

__all__ = [
    "COMPILED_SCHEDULES",
    "DEEP_LEVEL_COUNT",
    "HAVE_NUMBA",
    "CompiledPlan",
    "CompiledFusedSolver",
    "build_compiled_plan",
    "pick_schedule",
    "prefers_compiled",
]

#: The plan's schedule variants.
COMPILED_SCHEDULES = ("level", "merged")

#: Level-count floor of the merge rule: below this, per-level overhead
#: is already negligible and merging buys nothing worth its build cost.
DEEP_LEVEL_COUNT = 64

try:  # pragma: no cover - exercised via the with-numba CI leg
    import numba as _numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the container default
    _numba = None
    HAVE_NUMBA = False

_kernel = None
_kernel_lock = threading.Lock()


def _fused_kernel():
    """The lazily JIT-compiled flat-loop executor, or ``None``.

    One loop serves both variants: each plan row adds its coefficient
    sum onto its start value already in the workspace ``W``.  Compiled
    once per process, under a lock (the first call from the
    serve tier's worker threads must not race numba's own compilation
    machinery).  Returns ``None`` when numba is not installed.
    """
    global _kernel
    if not HAVE_NUMBA:
        return None
    if _kernel is None:
        with _kernel_lock:
            if _kernel is None:
                from numba import njit

                @njit(cache=False, nogil=True)
                def kernel(rows, row_ptr, idx, vals, W):  # pragma: no cover
                    k = W.shape[1]
                    acc = np.empty(k, dtype=np.float64)
                    for p in range(rows.shape[0]):
                        for c in range(k):
                            acc[c] = 0.0
                        for e in range(row_ptr[p], row_ptr[p + 1]):
                            w = vals[e]
                            src = idx[e]
                            for c in range(k):
                                acc[c] += w * W[src, c]
                        r = rows[p]
                        for c in range(k):
                            W[r, c] += acc[c]

                _kernel = kernel
    return _kernel


def prefers_compiled(features) -> bool:
    """The merge rule: deep *and* skinny.

    True when the level structure is deep (``n_levels`` at or beyond
    :data:`DEEP_LEVEL_COUNT`) and the Eq. 1 granularity indicator is at
    or below the paper's 0.7 threshold — the regime where per-level
    dispatch overhead dominates and level widths are too small to
    amortize it.  Wide-shallow matrices keep the level schedule, whose
    big per-level numpy operations are already near-optimal there.
    """
    return (
        features.n_levels >= DEEP_LEVEL_COUNT
        and features.granularity <= HIGH_GRANULARITY_THRESHOLD
    )


def pick_schedule(features) -> str:
    """The schedule variant the rule picks for one matrix: ``"merged"``
    when :func:`prefers_compiled` holds, else ``"level"``.  The serve
    tier lets a cached efficacy hint override it
    (:meth:`repro.serve.registry.MatrixRegistry.schedule_for`)."""
    return "merged" if prefers_compiled(features) else "level"


@dataclass(frozen=True)
class CompiledPlan:
    """The fast lane's inspector output: scaled functional form.

    Attributes
    ----------
    schedule:
        The schedule variant, ``"level"`` (one executed step per base
        level) or ``"merged"`` (skinny levels coalesced by
        :func:`~repro.analysis.levels.merge_levels`).
    rows:
        Plan-row → original-row map (the base schedule's order).
    row_ptr:
        Coefficient spans: plan row ``p`` owns
        ``idx[row_ptr[p]:row_ptr[p+1]]`` / ``vals[...]``.
    idx, vals:
        Workspace inputs and pre-scaled coefficients.  ``idx[e] < n``
        addresses an already-solved ``x`` entry.  In the merged variant
        ``idx[e] >= n`` addresses ``b[idx[e] - n]`` in the stacked
        ``(2n, k)`` workspace, and every span is non-empty.  In the
        level variant every input is an ``x`` entry; a row's span is
        empty exactly when it has no dependencies (all such rows sit in
        level 0).
    level_ptr:
        Plan-row spans per *executed* level (merged groups count as one
        level); the numpy executor iterates these, the numba kernel
        ignores them entirely.
    base_levels:
        Levels of the unmerged schedule.
    redundant_nnz:
        Coefficients duplicated by level merging (0 for ``"level"``).
    inv_diag:
        ``1 / L[i, i]`` by original row — the level variant's start
        scale (``X = B * inv_diag``); ``None`` in the merged variant.

    Only O(n) executor bookkeeping is derived here, so a plan rebuilt
    from shared-memory views (:class:`~repro.serve.arena.PlanArena`)
    executes on those views without copying any coefficient.
    """

    schedule: str
    rows: np.ndarray
    row_ptr: np.ndarray
    idx: np.ndarray
    vals: np.ndarray
    level_ptr: np.ndarray
    base_levels: int
    redundant_nnz: int = 0
    inv_diag: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.schedule not in COMPILED_SCHEDULES:
            raise ValueError(
                f"schedule must be one of {COMPILED_SCHEDULES}, "
                f"got {self.schedule!r}"
            )
        if (self.inv_diag is None) != (self.schedule == "merged"):
            raise ValueError(
                "the level variant carries inv_diag, the merged one does not"
            )
        ptr = self.row_ptr
        widths = np.diff(self.level_ptr)
        if self.inv_diag is not None:
            # a level mixing rows with and without dependencies would
            # hand reduceat an empty segment
            has_deps = np.zeros(len(self.rows) + 1, dtype=np.int64)
            np.cumsum(np.diff(ptr) > 0, out=has_deps[1:])
            n_with = np.diff(has_deps[self.level_ptr])
            if np.any((n_with != 0) & (n_with != widths)):
                raise SolverError(
                    "level schedule mixes rows with and without "
                    "dependencies in one level"
                )
        # per-level executor steps: reduceat segment starts for level k
        # are ptr[r0:r1] - e0, views of one globally rebased array
        lp = self.level_ptr.tolist()
        e_at = ptr[self.level_ptr]
        rel = ptr[:-1] - np.repeat(e_at[:-1], widths)
        ea = e_at.tolist()
        steps = tuple(
            (lp[k], lp[k + 1], ea[k], ea[k + 1], rel[lp[k]: lp[k + 1]])
            for k in range(len(lp) - 1)
            if ea[k + 1] > ea[k]
        )
        object.__setattr__(self, "_rel", rel)
        object.__setattr__(self, "_steps", steps)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_levels(self) -> int:
        """Executed steps (merged groups count once)."""
        return len(self.level_ptr) - 1

    @property
    def coeff_nnz(self) -> int:
        """Coefficients per solve (``nnz(L)`` plus any redundant work;
        the level variant's diagonal lives in ``inv_diag``)."""
        if self.inv_diag is None:
            return len(self.idx)
        return len(self.idx) + self.n_rows

    @property
    def backend(self) -> str:
        """Which executor an unprofiled solve will use."""
        return "numba" if HAVE_NUMBA else "numpy"

    @property
    def nbytes(self) -> int:
        """Resident bytes of the plan-owned arrays (registry budget)."""
        total = sum(
            a.nbytes
            for a in (self.rows, self.row_ptr, self.idx, self.vals,
                      self.level_ptr, self._rel)
        )
        if self.inv_diag is not None:
            total += self.inv_diag.nbytes
        return total

    # ------------------------------------------------------------------
    # executors
    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, *, force_fallback: bool = False) -> np.ndarray:
        """Fused solve, single RHS."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 1 or b.shape[0] != self.n_rows:
            raise SolverError(
                f"b has shape {b.shape}, expected ({self.n_rows},)"
            )
        return self.solve_many(
            b.reshape(-1, 1), force_fallback=force_fallback
        )[:, 0]

    def solve_many(
        self, B: np.ndarray, *, force_fallback: bool = False
    ) -> np.ndarray:
        """Fused solve of ``L X = B`` for all columns.

        Accepts 1-D ``b`` (promoted to one column), float32, and
        non-contiguous / Fortran-ordered inputs, mirroring
        :func:`repro.solvers.multirhs.capellini_sptrsm`; always returns
        a fresh C-ordered ``(n, k)`` float64 array.

        ``force_fallback=True`` runs the pure-numpy executor even when
        numba is installed — the numba-absent code path, testable on
        any machine.
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.ndim != 2 or B.shape[0] != self.n_rows:
            raise SolverError(
                f"B must have shape ({self.n_rows}, k), got {B.shape}"
            )
        if B.shape[1] == 0:
            raise SolverError("B must have at least one right-hand side")
        profiler = active_host_profiler()
        if profiler is not None:
            return self._execute_profiled(B, profiler)
        kernel = None if force_fallback else _fused_kernel()
        if kernel is not None:
            n, k = B.shape
            if self.inv_diag is not None:
                W = np.multiply(B, self.inv_diag[:, None], order="C")
            else:
                W = np.zeros((2 * n, k), dtype=np.float64)
                W[n:] = B
            kernel(self.rows, self.row_ptr, self.idx, self.vals, W)
            return W if self.inv_diag is not None else W[:n].copy()
        X, src, vals = self._start(B)
        rows, idx = self.rows, self.idx
        if src is X:
            for r0, r1, e0, e1, starts in self._steps:
                X[rows[r0:r1]] += np.add.reduceat(
                    vals[e0:e1] * X[idx[e0:e1]], starts, axis=0
                )
        else:
            for r0, r1, e0, e1, starts in self._steps:
                X[rows[r0:r1]] = np.add.reduceat(
                    vals[e0:e1] * src[idx[e0:e1]], starts, axis=0
                )
            X = X.copy()
        return X.reshape(self.n_rows, -1)

    def _start(self, B: np.ndarray) -> tuple:
        """``(X, src, vals)`` for the numpy executor.

        The level variant starts from ``X = B * inv_diag`` and gathers
        from ``X`` itself (``src is X``); the merged variant gathers from
        the stacked ``[X; B]`` workspace, whose copy of ``B`` also
        normalizes layout and dtype.  A single right-hand side runs on
        vectors: numpy's fancy indexing over ``(n, 1)`` rows costs about
        twice as much as over an ``(n,)`` vector.
        """
        n, k = B.shape
        vals = self.vals
        if k == 1:
            B = B[:, 0]
        else:
            vals = vals[:, None]
        if self.inv_diag is not None:
            inv = self.inv_diag if k == 1 else self.inv_diag[:, None]
            X = np.multiply(B, inv, order="C")
            return X, X, vals
        W = np.empty((2 * n,) + B.shape[1:], dtype=np.float64)
        W[n:] = B
        return W[:n], W, vals

    def _execute_profiled(self, B: np.ndarray, profiler) -> np.ndarray:
        """The numpy executor with per-level wall-clock attribution.

        Same coefficient lists, same row order, same numpy operations as
        the unprofiled numpy executor — bit-identical output; the clock
        is only read *around* the numpy segments.  The numba kernel is
        never used here: one fused native call has no level boundaries
        to attribute.  In the level variant the first sample is level 0
        plus every row's own ``b`` term (the ``X = B * inv_diag`` pass).
        """
        clock = time.perf_counter
        rows, idx = self.rows, self.idx
        raw: list[tuple] = []
        t_launch = clock()
        X, src, vals = self._start(B)
        own_b = src is X
        if own_b and self.n_levels:
            raw.append((
                int(self.level_ptr[1]), self.n_rows,
                0.0, 0.0, clock() - t_launch,
            ))
        for r0, r1, e0, e1, starts in self._steps:
            level_rows = rows[r0:r1]
            t0 = clock()
            contrib = vals[e0:e1] * src[idx[e0:e1]]
            t1 = clock()
            sums = np.add.reduceat(contrib, starts, axis=0)
            t2 = clock()
            if own_b:
                X[level_rows] += sums
            else:
                X[level_rows] = sums
            t3 = clock()
            raw.append((r1 - r0, e1 - e0, t1 - t0, t2 - t1, t3 - t2))
        wall_s = clock() - t_launch
        profiler.record(
            HostLaunchProfile(
                n_rows=self.n_rows,
                n_rhs=B.shape[1],
                n_levels=self.n_levels,
                nnz=self.coeff_nnz,
                wall_s=wall_s,
                raw=tuple(raw),
            )
        )
        return (X if own_b else X.copy()).reshape(self.n_rows, -1)


def build_compiled_plan(
    L: CSRMatrix,
    *,
    schedule: str = "merged",
    base: LevelSchedule | None = None,
    max_width: int = DEFAULT_MERGE_MAX_WIDTH,
    budget: float = DEFAULT_MERGE_BUDGET,
    max_group: int = DEFAULT_MERGE_MAX_GROUP,
) -> CompiledPlan:
    """Inspector for the fast lane.

    Rewrites every row into the scaled functional form (coefficients
    pre-divided by the diagonal).  The level variant keeps dependencies
    plus ``inv_diag``; ``schedule="merged"`` builds the stacked form,
    with the right-hand side an explicit input, and materializes the
    numeric substitution of :func:`~repro.analysis.levels.merge_levels`
    so each merged group executes as one step.  ``base`` may be supplied when
    the caller already level-scheduled the matrix (the registry reuses
    its cached schedule artifact).
    """
    if schedule not in COMPILED_SCHEDULES:
        raise ValueError(
            f"schedule must be one of {COMPILED_SCHEDULES}, got {schedule!r}"
        )
    check_solvable(L)
    if base is None:
        base = compute_levels(L)
    n = L.n_rows
    order = base.order

    # scaled dependency lists, fully vectorized: plan row p holds its
    # off-diagonal dependencies, pre-divided by the diagonal
    off_lo = L.row_ptr[:-1]
    diag_pos = L.row_ptr[1:] - 1
    dep_counts = (diag_pos - off_lo).astype(np.int64)[order]
    inv_diag = 1.0 / L.values[diag_pos]
    inv_d = inv_diag[order]

    dep_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(dep_counts, out=dep_ptr[1:])
    total_dep = int(dep_ptr[-1])
    src = np.repeat(off_lo[order] - dep_ptr[:-1], dep_counts) + np.arange(
        total_dep, dtype=np.int64
    )
    idx = L.col_idx[src].astype(np.int64)
    vals = -L.values[src] * np.repeat(inv_d, dep_counts)

    if schedule == "level":
        return CompiledPlan(
            schedule="level",
            rows=order.copy(),
            row_ptr=dep_ptr,
            idx=idx,
            vals=vals,
            level_ptr=base.level_ptr.copy(),
            base_levels=base.n_levels,
            inv_diag=inv_diag,
        )

    # stacked form: each row's b coefficient trails its dependencies
    row_ptr = dep_ptr + np.arange(n + 1, dtype=np.int64)
    dep = np.ones(total_dep + n, dtype=bool)
    dep[row_ptr[1:] - 1] = False
    s_idx = np.empty(total_dep + n, dtype=np.int64)
    s_vals = np.empty(total_dep + n, dtype=np.float64)
    s_idx[dep], s_vals[dep] = idx, vals
    s_idx[~dep], s_vals[~dep] = n + order, inv_d
    merged = merge_levels(
        L, base, max_width=max_width, budget=budget, max_group=max_group
    )
    if merged.n_levels < base.n_levels:
        s_idx, s_vals, row_ptr = _expand_groups(
            base, merged, s_idx, s_vals, row_ptr
        )
        assert len(s_idx) == merged.expanded_nnz
    return CompiledPlan(
        schedule="merged",
        rows=order.copy(),
        row_ptr=row_ptr,
        idx=s_idx,
        vals=s_vals,
        level_ptr=merged.level_ptr.copy(),
        base_levels=base.n_levels,
        redundant_nnz=merged.redundant_nnz,
    )


def _expand_groups(
    base: LevelSchedule,
    merged: MergedSchedule,
    idx: np.ndarray,
    vals: np.ndarray,
    row_ptr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numeric substitution pass over the merged groups.

    Replays the grouping recorded in ``merged``: inside each multi-level
    group, a dependency on an in-group row is replaced by that row's own
    (already expanded) coefficient list, scaled by the dependency's
    coefficient.  Inputs are emitted in sorted order, so the expansion
    is deterministic and its support matches the structural counts of
    :func:`~repro.analysis.levels.merge_levels` exactly.  Singleton
    groups — including every wide level — are copied through untouched.
    """
    n = base.n_rows
    order = base.order
    group_ptr = merged.group_ptr
    base_lp = base.level_ptr

    counts = np.empty(n, dtype=np.int64)
    idx_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    for g in range(merged.n_levels):
        l0, l1 = int(group_ptr[g]), int(group_ptr[g + 1])
        p0, p1 = int(base_lp[l0]), int(base_lp[l1])
        if l1 - l0 == 1:
            e0, e1 = int(row_ptr[p0]), int(row_ptr[p1])
            idx_parts.append(idx[e0:e1])
            vals_parts.append(vals[e0:e1])
            counts[p0:p1] = np.diff(row_ptr[p0: p1 + 1])
            continue
        # plan order within the group is already topological: any
        # in-group dependency sits at an earlier base level, hence at an
        # earlier plan row, hence already in `exp`
        exp: dict[int, dict[int, float]] = {}
        for p in range(p0, p1):
            terms: dict[int, float] = {}
            for e in range(int(row_ptr[p]), int(row_ptr[p + 1])):
                q = int(idx[e])
                w = float(vals[e])
                sub = exp.get(q)
                if sub is None:
                    terms[q] = terms.get(q, 0.0) + w
                else:
                    for q2, w2 in sub.items():
                        terms[q2] = terms.get(q2, 0.0) + w * w2
            exp[int(order[p])] = terms
            inputs = sorted(terms)
            counts[p] = len(inputs)
            idx_parts.append(np.asarray(inputs, dtype=np.int64))
            vals_parts.append(
                np.asarray([terms[q] for q in inputs], dtype=np.float64)
            )

    new_row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=new_row_ptr[1:])
    if not idx_parts:
        return idx[:0], vals[:0], new_row_ptr
    return (
        np.concatenate(idx_parts),
        np.concatenate(vals_parts),
        new_row_ptr,
    )


class CompiledFusedSolver(SpTRSVSolver):
    """The fast-lane plan behind the standard solver interface.

    Plans are cached per (matrix *content* fingerprint, schedule
    variant) behind a small LRU, so repeated solves against one factor
    — or an equal-content copy of it — skip the inspector.  Identity
    keys would be wrong here: CPython reuses ``id()`` values after
    garbage collection, which could serve a plan built for another
    matrix.  The two schedule variants of one matrix are distinct
    artifacts with different coefficient arrays.
    """

    name = "CompiledFused"
    storage_format = "CSR"
    preprocessing_overhead = "high"
    requires_synchronization = False
    processing_granularity = "vector"

    def __init__(
        self,
        *,
        schedule: str = "merged",
        plan_cache_size: int = 8,
    ) -> None:
        if schedule not in COMPILED_SCHEDULES:
            raise ValueError(
                f"schedule must be one of {COMPILED_SCHEDULES}, "
                f"got {schedule!r}"
            )
        if plan_cache_size <= 0:
            raise ValueError("plan_cache_size must be positive")
        self.schedule = schedule
        self.plan_cache_size = plan_cache_size
        self._plan_cache: "OrderedDict[tuple, CompiledPlan]" = OrderedDict()

    def plan_for(self, L: CSRMatrix) -> CompiledPlan:
        """The (cached) compiled plan for ``L``, keyed by content."""
        key = (L.content_fingerprint(), self.schedule)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = build_compiled_plan(L, schedule=self.schedule)
            self._plan_cache[key] = plan
            while len(self._plan_cache) > self.plan_cache_size:
                self._plan_cache.popitem(last=False)
        else:
            self._plan_cache.move_to_end(key)
        return plan

    def _solve(
        self, L: CSRMatrix, b: np.ndarray, device: DeviceSpec
    ) -> SolveResult:
        t0 = time.perf_counter()
        plan = self.plan_for(L)
        prep = time.perf_counter() - t0
        t1 = time.perf_counter()
        x = plan.solve(b)
        dt = time.perf_counter() - t1
        return SolveResult(
            x=x,
            solver_name=self.name,
            exec_ms=dt * 1e3,
            preprocess=PreprocessInfo(
                description="inspector: scaled functional rewrite + level "
                "merging (cached across solves of the same matrix)",
                host_seconds=prep,
            ),
            extra={
                "n_levels": plan.n_levels,
                "base_levels": plan.base_levels,
                "schedule": plan.schedule,
                "backend": plan.backend,
                "redundant_nnz": plan.redundant_nnz,
            },
        )

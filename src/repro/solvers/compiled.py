"""The fast lane: one plan type, two kernels.

Every wall-clock solve in the serve tier runs a :class:`CompiledPlan`,
in one of two schedule variants that :func:`pick_schedule` (the Eq. 1
sequential rule) chooses per matrix from its features; callers in the
serve tier never set it.

Both variants hold the same scaled functional form of ``L``: every row
keeps its off-diagonal dependencies with the diagonal division folded
into the coefficients (dependency ``j`` contributes ``-L[i,j]/L[i,i]``
on ``x_j``), so a solve starts from ``X = B * inv_diag``.  They differ
only in the row order and in how the rows run.

* ``"level"`` — rows in level order, run by a numpy executor: one
  gather, one ``np.add.reduceat`` and one scatter per level.  Wide,
  shallow levels amortize that per-level dispatch over many rows, so
  shallow matrices keep this kernel.

* ``"sequential"`` — rows in natural order, run by one native SciPy
  ``csr_matvec`` (``csr_matvecs`` for a block) whose input and output
  are both ``X``.  It visits rows in increasing order and each row reads
  only ``x_j`` with ``j < i``, already final, so the one call is a
  complete forward substitution: each row is solved as soon as its own
  dependencies are, with no level barrier and no per-level interpreter
  dispatch.  That is the host form of the paper's argument that at
  fine granularity synchronization decides SpTRSV speed, and the fused
  sequential sweep Li (arXiv:1710.04985) prefers for small triangular
  solves.  Deep, skinny matrices, which would pay per-level dispatch
  thousands of times per solve, take it.

An ambient :class:`~repro.obs.hostprof.HostProfiler` gets one launch
profile per solve.  The level variant attributes each level's time to
gather/reduce/scatter; the sequential variant is one native call with
no boundaries to attribute, so it records one step whose time counts
as ``reduce``.  Either way the profiled solve runs the same operations
as an unprofiled one and its answer is bit-identical.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from repro.analysis.granularity import HIGH_GRANULARITY_THRESHOLD
from repro.analysis.levels import LevelSchedule, compute_levels
from repro.errors import SolverError
from repro.gpu.device import DeviceSpec
from repro.obs.hostprof import HostLaunchProfile, active_host_profiler
from repro.solvers.base import PreprocessInfo, SolveResult, SpTRSVSolver
from repro.sparse.csr import CSRMatrix
from repro.sparse.triangular import check_solvable

__all__ = [
    "COMPILED_SCHEDULES",
    "DEEP_LEVEL_COUNT",
    "CompiledPlan",
    "CompiledFusedSolver",
    "build_compiled_plan",
    "pick_schedule",
]

#: The plan's schedule variants.
COMPILED_SCHEDULES = ("level", "sequential")

#: Level-count floor of the sequential rule: below this, per-level
#: overhead is already negligible and the level kernel keeps the matrix.
DEEP_LEVEL_COUNT = 64

#: The level-only array fields of a sequential plan: empty and
#: read-only.
_NO_ARRAY = np.empty(0)
_NO_ARRAY.flags.writeable = False


def pick_schedule(features) -> str:
    """The sequential rule: ``"sequential"`` for deep *and* skinny
    matrices, ``"level"`` for the rest.

    Deep means ``n_levels`` at or beyond :data:`DEEP_LEVEL_COUNT`;
    skinny means the Eq. 1 granularity indicator is at or below the
    paper's 0.7 threshold.  That is the regime where per-level dispatch
    overhead dominates and level widths are too small to amortize it.
    Wide-shallow matrices keep the level schedule, whose big per-level
    numpy operations are already near-optimal there.  The serve tier's
    registry applies the rule once per matrix
    (:meth:`repro.serve.registry.MatrixRegistry.plan`).
    """
    deep_and_skinny = (
        features.n_levels >= DEEP_LEVEL_COUNT
        and features.granularity <= HIGH_GRANULARITY_THRESHOLD
    )
    return "sequential" if deep_and_skinny else "level"


@dataclass(frozen=True)
class CompiledPlan:
    """The fast lane's inspector output: plain numpy arrays, the scaled
    functional form of ``L`` in the variant's row order.

    Attributes
    ----------
    schedule:
        The schedule variant, ``"level"`` (one executed step per level)
        or ``"sequential"`` (one ``csr_matvec`` sweep).
    base_levels:
        Levels of the matrix's level schedule.
    inv_diag:
        ``1 / L[i, i]`` by original row: the start scale
        ``X = B * inv_diag`` of both variants.
    row_ptr, idx, vals:
        The scaled rows, in both variants: plan row ``p`` owns
        ``idx[row_ptr[p]:row_ptr[p+1]]`` / ``vals[...]``, its
        off-diagonal ``x`` inputs (every one below the row's own
        original index) and their coefficients ``-L[i, j] / L[i, i]``.
        The span is empty exactly when the row has no dependencies.
        ``row_ptr`` and ``idx`` share one integer dtype, as
        ``csr_matvec`` requires.  Sequential plan row ``p`` is original
        row ``p``.
    rows, level_ptr:
        The level variant's order, empty in the sequential one.
        ``rows`` maps plan rows to original rows (level order; rows
        without dependencies all sit in level 0) and ``level_ptr``
        holds the plan-row spans per level.
    """

    schedule: str
    base_levels: int
    inv_diag: np.ndarray
    row_ptr: np.ndarray
    idx: np.ndarray
    vals: np.ndarray
    rows: np.ndarray = field(default_factory=_NO_ARRAY.view)
    level_ptr: np.ndarray = field(default_factory=_NO_ARRAY.view)

    # derived array, set by __post_init__ for the level variant
    _rel = _NO_ARRAY

    def __post_init__(self) -> None:
        if self.schedule not in COMPILED_SCHEDULES:
            raise ValueError(
                f"schedule must be one of {COMPILED_SCHEDULES}, "
                f"got {self.schedule!r}"
            )
        if self.schedule == "sequential":
            return
        ptr = self.row_ptr
        widths = np.diff(self.level_ptr)
        # a level mixing rows with and without dependencies would hand
        # reduceat an empty segment
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
        return len(self.inv_diag)

    @property
    def n_levels(self) -> int:
        """Executed steps: one per level, or the one sequential sweep."""
        if self.schedule == "sequential":
            return 1
        return len(self.level_ptr) - 1

    @property
    def coeff_nnz(self) -> int:
        """Coefficients per solve: ``nnz(L)``, the off-diagonal ones in
        ``vals`` and the diagonal in ``inv_diag``."""
        return len(self.idx) + self.n_rows

    @property
    def redundant_nnz(self) -> int:
        """Coefficients duplicated by the schedule: 0, since neither
        variant does redundant work."""
        return 0

    @property
    def nbytes(self) -> int:
        """Resident bytes of the plan-owned arrays (registry budget)."""
        return sum(
            a.nbytes
            for a in (self.inv_diag, self.rows, self.row_ptr, self.idx,
                      self.vals, self.level_ptr, self._rel)
        )

    # ------------------------------------------------------------------
    # executors
    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for a single right-hand side."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 1 or b.shape[0] != self.n_rows:
            raise SolverError(
                f"b has shape {b.shape}, expected ({self.n_rows},)"
            )
        return self.solve_many(b.reshape(-1, 1))[:, 0]

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """Solve ``L X = B`` for all columns.

        Accepts 1-D ``b`` (promoted to one column), float32, and
        non-contiguous / Fortran-ordered inputs, mirroring
        :func:`repro.solvers.multirhs.capellini_sptrsm`; always returns
        a fresh C-ordered ``(n, k)`` float64 array.
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
        if self.schedule == "sequential":
            return self._sweep(B)
        X = self._start(B)
        if X.ndim == 2:
            self._row_steps(X)
        else:
            rows, idx, vals = self.rows, self.idx, self.vals
            for r0, r1, e0, e1, starts in self._steps:
                X[rows[r0:r1]] += np.add.reduceat(
                    vals[e0:e1] * X[idx[e0:e1]], starts, axis=0
                )
        return X.reshape(self.n_rows, -1)

    def _sweep(self, B: np.ndarray) -> np.ndarray:
        """The sequential variant: ``X = B * inv_diag``, fresh and
        C-ordered, then one native sweep with ``X`` as both input and
        output.

        ``csr_matvec`` runs ``sum = y[i]; sum += vals[e] * x[idx[e]];
        y[i] = sum`` for rows in increasing order (``csr_matvecs`` the
        same per column of the flat ``(n, k)`` block).  Every ``idx`` of
        row ``i`` is below ``i``, so with ``y`` aliased to ``x`` each row
        reads only finished entries and the call is a complete forward
        substitution.
        """
        n, k = B.shape
        X = np.multiply(B, self.inv_diag[:, None], order="C")
        x = X.reshape(-1)
        if k == 1:
            csr_matvec(n, n, self.row_ptr, self.idx, self.vals, x, x)
        else:
            csr_matvecs(n, n, k, self.row_ptr, self.idx, self.vals, x, x)
        return X

    def _start(self, B: np.ndarray) -> np.ndarray:
        """The level variant's C-ordered workspace ``X = B * inv_diag``.

        A single right-hand side runs on vectors: numpy's 2-D fancy
        gathers (``X[idx]`` on ``(n, k)`` rows) cost 4-8x a vector
        gather, and even the row-block steps of :meth:`_row_steps` are
        slower than plain vector indexing at ``k == 1``.
        """
        if B.shape[1] == 1:
            return np.multiply(B[:, 0], self.inv_diag, order="C")
        return np.multiply(B, self.inv_diag[:, None], order="C")

    def _row_steps(self, X: np.ndarray, raw: list | None = None) -> None:
        """The ``k >= 2`` step loop, shared by profiled and unprofiled
        solves; with ``raw`` given, each step's gather (the in-place
        scale included), reduce and scatter times are appended to it.

        Every operation moves whole ``k``-wide rows as single items:
        ``ndarray.take(..., axis=0)`` gathers them (2-D fancy indexing
        walks every element through the index machinery instead; the
        method skips ``np.take``'s Python-level dispatch, a microsecond
        per call on small steps), the scale and the ``reduceat`` keep
        the row layout, and the scatter writes one opaque ``8k``-byte
        item per row through a ``np.void`` view of the C-ordered
        workspace after adding the rows' current values
        (``X = B * inv_diag``).  Each column sees the same operations,
        in the same order, as a ``k == 1`` solve of it.
        """
        clock = time.perf_counter
        timed = raw is not None
        rows, idx = self.rows, self.idx
        vals = self.vals[:, None]
        row = np.dtype((np.void, X.itemsize * X.shape[1]))
        x_rows = X.view(row)[:, 0]
        for r0, r1, e0, e1, starts in self._steps:
            level_rows = rows[r0:r1]
            if timed:
                t0 = clock()
            g = X.take(idx[e0:e1], axis=0)
            np.multiply(g, vals[e0:e1], out=g)
            if timed:
                t1 = clock()
            sums = np.add.reduceat(g, starts, axis=0)
            if timed:
                t2 = clock()
            sums += X.take(level_rows, axis=0)
            x_rows[level_rows] = sums.view(row)[:, 0]
            if timed:
                raw.append((r1 - r0, e1 - e0, t1 - t0, t2 - t1, clock() - t2))

    def _execute_profiled(self, B: np.ndarray, profiler) -> np.ndarray:
        """The executor with wall-clock attribution.

        Same operations, in the same order, as the unprofiled solve —
        bit-identical output; the clock is only read *around* them
        (``k >= 2`` on the level variant runs the very same loop,
        :meth:`_row_steps`).  In the level variant the first sample is
        level 0 plus every row's own ``b`` term (the ``X = B *
        inv_diag`` pass); the sequential variant records its one sweep
        as one sample.
        """
        clock = time.perf_counter
        raw: list[tuple] = []
        t_launch = clock()
        if self.schedule == "sequential":
            X = self._sweep(B)
            raw.append((self.n_rows, self.coeff_nnz, 0.0,
                        clock() - t_launch, 0.0))
        else:
            rows, idx, vals = self.rows, self.idx, self.vals
            X = self._start(B)
            if self.n_levels:
                raw.append((
                    int(self.level_ptr[1]), self.n_rows,
                    0.0, 0.0, clock() - t_launch,
                ))
            if X.ndim == 2:
                self._row_steps(X, raw)
            else:
                for r0, r1, e0, e1, starts in self._steps:
                    level_rows = rows[r0:r1]
                    t0 = clock()
                    contrib = vals[e0:e1] * X[idx[e0:e1]]
                    t1 = clock()
                    sums = np.add.reduceat(contrib, starts, axis=0)
                    t2 = clock()
                    X[level_rows] += sums
                    t3 = clock()
                    raw.append(
                        (r1 - r0, e1 - e0, t1 - t0, t2 - t1, t3 - t2)
                    )
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
        return X.reshape(self.n_rows, -1)


def build_compiled_plan(
    L: CSRMatrix,
    *,
    schedule: str = "sequential",
    base: LevelSchedule | None = None,
) -> CompiledPlan:
    """Inspector for the fast lane.

    Rewrites every row into the scaled functional form (coefficients
    pre-divided by the diagonal) plus ``inv_diag``: in level order for
    the level variant, in natural order for the sequential one.
    ``base`` may be supplied when the caller already level-scheduled
    the matrix (the registry reuses its cached schedule artifact).
    """
    if schedule not in COMPILED_SCHEDULES:
        raise ValueError(
            f"schedule must be one of {COMPILED_SCHEDULES}, got {schedule!r}"
        )
    check_solvable(L)
    if base is None:
        base = compute_levels(L)
    n = L.n_rows
    diag_pos = L.row_ptr[1:] - 1
    inv_diag = 1.0 / L.values[diag_pos]
    if schedule == "level":
        order = base.order
        level_fields = {
            "rows": order.copy(), "level_ptr": base.level_ptr.copy()
        }
    else:
        order = np.arange(n)
        level_fields = {}

    # scaled dependency lists, fully vectorized: plan row p holds its
    # off-diagonal dependencies, pre-divided by the diagonal
    off_lo = L.row_ptr[:-1]
    dep_counts = (diag_pos - off_lo).astype(np.int64)[order]

    dep_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(dep_counts, out=dep_ptr[1:])
    total_dep = int(dep_ptr[-1])
    src = np.repeat(off_lo[order] - dep_ptr[:-1], dep_counts) + np.arange(
        total_dep, dtype=np.int64
    )
    return CompiledPlan(
        schedule=schedule,
        base_levels=base.n_levels,
        inv_diag=inv_diag,
        row_ptr=dep_ptr,
        idx=L.col_idx[src].astype(np.int64),
        vals=-L.values[src] * np.repeat(inv_diag[order], dep_counts),
        **level_fields,
    )


class CompiledFusedSolver(SpTRSVSolver):
    """The fast-lane plan behind the standard solver interface.

    Plans are cached per (matrix *content* fingerprint, schedule
    variant) behind a small LRU, so repeated solves against one factor
    — or an equal-content copy of it — skip the inspector.  Identity
    keys would be wrong here: CPython reuses ``id()`` values after
    garbage collection, which could serve a plan built for another
    matrix.  The two schedule variants of one matrix are distinct
    artifacts.
    """

    name = "CompiledFused"
    storage_format = "CSR"
    preprocessing_overhead = "high"
    requires_synchronization = False
    processing_granularity = "vector"

    def __init__(
        self,
        *,
        schedule: str = "sequential",
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
                description="inspector: scaled functional rewrite of L "
                "in level order (level) or natural order (sequential), "
                "cached across solves of the same matrix",
                host_seconds=prep,
            ),
            extra={
                "n_levels": plan.n_levels,
                "base_levels": plan.base_levels,
                "schedule": plan.schedule,
                "redundant_nnz": plan.redundant_nnz,
            },
        )

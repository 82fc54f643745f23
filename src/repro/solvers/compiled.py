"""The fast lane: one plan type, two kernels.

Every wall-clock solve in the serve tier runs a :class:`CompiledPlan`,
in one of two schedule variants that :func:`pick_schedule` chooses per
matrix from its features (the Eq. 1 rule :func:`prefers_compiled`);
callers in the serve tier never set it.

* ``"level"`` — the level-scheduled numpy executor.  Every plan row is
  rewritten as a pure linear functional with the diagonal division
  folded into the coefficients (off-diagonal dependency ``j``
  contributes ``-L[i,j]/L[i,i]`` on ``x_j``), so a solve starts from
  ``X = B * inv_diag`` and runs one gather, one ``np.add.reduceat`` and
  one scatter per level.  Wide, shallow levels amortize that per-level
  dispatch over many rows, so shallow matrices keep this kernel.

* ``"sequential"`` — one SciPy SuperLU ``gstrs`` sweep over a
  natural-order factor of ``L`` (``splu`` with ``permc_spec="NATURAL"``
  and no pivoting threshold).  On a lower-triangular matrix that factor
  is ``L`` itself, rescaled by its diagonal, with no fill.  The solve
  has no level barriers and no per-level interpreter dispatch: the host
  form of the paper's argument that at fine granularity synchronization
  decides SpTRSV speed, and the fused sequential sweep Li
  (arXiv:1710.04985) prefers for small triangular solves.  Deep, skinny
  matrices, which would pay per-level dispatch thousands of times per
  solve, take it.  The builder checks the factor's shape — natural row
  and column order, zero fill — and raises :class:`SolverError` when
  either fails, so the serve tier's fallback ladder quarantines the
  host step instead of serving a permuted solve.

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
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import splu

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
    "prefers_compiled",
]

#: The plan's schedule variants.
COMPILED_SCHEDULES = ("level", "sequential")

#: Level-count floor of the sequential rule: below this, per-level
#: overhead is already negligible and the level kernel keeps the matrix.
DEEP_LEVEL_COUNT = 64


def prefers_compiled(features) -> bool:
    """The sequential rule: deep *and* skinny.

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
    """The schedule variant the rule picks for one matrix:
    ``"sequential"`` when :func:`prefers_compiled` holds, else
    ``"level"``.  The serve tier's registry applies it once per matrix
    (:meth:`repro.serve.registry.MatrixRegistry.plan`)."""
    return "sequential" if prefers_compiled(features) else "level"


@dataclass(frozen=True)
class CompiledPlan:
    """The fast lane's inspector output.

    Attributes
    ----------
    schedule:
        The schedule variant, ``"level"`` (one executed step per level)
        or ``"sequential"`` (one SuperLU sweep).
    base_levels:
        Levels of the matrix's level schedule.
    rows, row_ptr, idx, vals, level_ptr, inv_diag:
        The level variant's scaled functional form (``None`` in the
        sequential variant).  ``rows`` maps plan rows to original rows
        (level order); plan row ``p`` owns ``idx[row_ptr[p]:
        row_ptr[p+1]]`` / ``vals[...]``, its already-solved ``x``
        inputs and pre-scaled coefficients, and the span is empty
        exactly when the row has no dependencies (all such rows sit in
        level 0).  ``level_ptr`` holds the plan-row spans per level and
        ``inv_diag`` is ``1 / L[i, i]`` by original row, the start
        scale (``X = B * inv_diag``).
    factor:
        The sequential variant's natural-order SuperLU factor of ``L``
        (``None`` in the level variant).
    """

    schedule: str
    base_levels: int
    rows: Optional[np.ndarray] = None
    row_ptr: Optional[np.ndarray] = None
    idx: Optional[np.ndarray] = None
    vals: Optional[np.ndarray] = None
    level_ptr: Optional[np.ndarray] = None
    inv_diag: Optional[np.ndarray] = None
    factor: Optional[object] = None

    def __post_init__(self) -> None:
        if self.schedule not in COMPILED_SCHEDULES:
            raise ValueError(
                f"schedule must be one of {COMPILED_SCHEDULES}, "
                f"got {self.schedule!r}"
            )
        if (self.factor is None) != (self.schedule == "level"):
            raise ValueError(
                "the sequential variant carries a factor, the level one "
                "does not"
            )
        if self.factor is not None:
            # scipy builds L and U afresh on each access: read them once
            L, U = self.factor.L, self.factor.U
            object.__setattr__(
                self, "_coeff_nnz", L.nnz + U.nnz - self.factor.shape[0]
            )
            object.__setattr__(self, "_nbytes", sum(
                a.nbytes for m in (L, U)
                for a in (m.data, m.indices, m.indptr)
            ))
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
        if self.factor is not None:
            return self.factor.shape[0]
        return len(self.rows)

    @property
    def n_levels(self) -> int:
        """Executed steps: one per level, or the one sequential sweep."""
        if self.factor is not None:
            return 1
        return len(self.level_ptr) - 1

    @property
    def coeff_nnz(self) -> int:
        """Coefficients per solve: ``nnz(L)`` in both variants (the
        level variant's diagonal lives in ``inv_diag``, the sequential
        factor's in ``U``)."""
        if self.factor is not None:
            return self._coeff_nnz
        return len(self.idx) + self.n_rows

    @property
    def redundant_nnz(self) -> int:
        """Coefficients duplicated by the schedule: 0, since neither
        variant does redundant work."""
        return 0

    @property
    def nbytes(self) -> int:
        """Resident bytes of the plan-owned arrays (registry budget):
        the factor's ``L`` and ``U`` in the sequential variant."""
        if self.factor is not None:
            return self._nbytes
        return sum(
            a.nbytes
            for a in (self.rows, self.row_ptr, self.idx, self.vals,
                      self.level_ptr, self._rel, self.inv_diag)
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
        if self.factor is not None:
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
        """The sequential variant: one SuperLU solve of the block.

        A single right-hand side goes in as a vector; SuperLU returns a
        block in Fortran order, which is copied to C order.
        """
        if B.shape[1] == 1:
            return self.factor.solve(B[:, 0]).reshape(-1, 1)
        return np.ascontiguousarray(self.factor.solve(B))

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
        if self.factor is not None:
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

    The level variant rewrites every row into the scaled functional
    form (coefficients pre-divided by the diagonal) plus ``inv_diag``;
    the sequential variant factors ``L`` with SuperLU in natural order
    and raises :class:`SolverError` if the factor is permuted or has
    fill.  ``base`` may be supplied when the caller already
    level-scheduled the matrix (the registry reuses its cached schedule
    artifact).
    """
    if schedule not in COMPILED_SCHEDULES:
        raise ValueError(
            f"schedule must be one of {COMPILED_SCHEDULES}, got {schedule!r}"
        )
    check_solvable(L)
    if base is None:
        base = compute_levels(L)
    if schedule == "sequential":
        return _sequential_plan(L, base)
    n = L.n_rows
    order = base.order

    # scaled dependency lists, fully vectorized: plan row p holds its
    # off-diagonal dependencies, pre-divided by the diagonal
    off_lo = L.row_ptr[:-1]
    diag_pos = L.row_ptr[1:] - 1
    dep_counts = (diag_pos - off_lo).astype(np.int64)[order]
    inv_diag = 1.0 / L.values[diag_pos]

    dep_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(dep_counts, out=dep_ptr[1:])
    total_dep = int(dep_ptr[-1])
    src = np.repeat(off_lo[order] - dep_ptr[:-1], dep_counts) + np.arange(
        total_dep, dtype=np.int64
    )
    return CompiledPlan(
        schedule="level",
        base_levels=base.n_levels,
        rows=order.copy(),
        row_ptr=dep_ptr,
        idx=L.col_idx[src].astype(np.int64),
        vals=-L.values[src] * np.repeat(inv_diag[order], dep_counts),
        level_ptr=base.level_ptr.copy(),
        inv_diag=inv_diag,
    )


def _sequential_plan(L: CSRMatrix, base: LevelSchedule) -> CompiledPlan:
    """The sequential variant: ``L``'s natural-order SuperLU factor."""
    n = L.n_rows
    A = csr_array((L.values, L.col_idx, L.row_ptr), shape=(n, n)).tocsc()
    try:
        factor = splu(
            A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports singularity this way
        raise SolverError(f"SuperLU could not factor L: {exc}") from exc
    natural = np.arange(n)
    if not (
        np.array_equal(factor.perm_r, natural)
        and np.array_equal(factor.perm_c, natural)
    ):
        raise SolverError("SuperLU permuted L; the sequential variant "
                          "needs its natural order")
    plan = CompiledPlan(
        schedule="sequential", base_levels=base.n_levels, factor=factor
    )
    if plan.coeff_nnz != L.nnz:
        raise SolverError(
            f"SuperLU factor of L has fill: {plan.coeff_nnz} "
            f"coefficients for {L.nnz} stored elements"
        )
    return plan


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
                description="inspector: scaled functional rewrite (level) "
                "or natural-order SuperLU factor (sequential), cached "
                "across solves of the same matrix",
                host_seconds=prep,
            ),
            extra={
                "n_levels": plan.n_levels,
                "base_levels": plan.base_levels,
                "schedule": plan.schedule,
                "redundant_nnz": plan.redundant_nnz,
            },
        )

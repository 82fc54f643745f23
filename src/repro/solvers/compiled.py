"""The fast lane: one plan type, two kernels.

Every wall-clock solve in the serve tier runs a :class:`CompiledPlan`,
in one of two schedule variants that :func:`pick_schedule` (the Eq. 1
sequential rule) chooses per matrix from its features; callers in the
serve tier never set it.

Both variants hold the same scaled functional form of ``L``: every row
keeps its off-diagonal dependencies with the diagonal division folded
into the coefficients (dependency ``j`` contributes ``-L[i,j]/L[i,i]``
on ``x_j``).  They differ in the row order, in where the diagonal
scale ``1/L[i,i]`` of row ``i``'s own ``b_i`` is applied, and in how
the rows run.

* ``"level"`` — rows in level order, each led by the entry
  ``(i, 1/L[i,i])`` that scales its own ``b_i``, and one native SciPy
  ``csr_matvec`` (``csr_matvecs`` for a block) per level over a copy
  of ``B``: start the level's sums at ``-0.0``, run the native call
  over the level's slice of ``row_ptr`` (it reads each row's
  still-unscaled ``b_i`` and its already-final dependencies), scatter
  the sums back.  Wide, shallow levels amortize that per-level
  dispatch over many rows, so shallow matrices keep this kernel.

* ``"sequential"`` — rows in natural order, run by one native SciPy
  ``csr_matvec`` (``csr_matvecs`` for a block) whose input and output
  are both its start form ``X = B * inv_diag``.  It visits rows in
  increasing order and each row reads only ``x_j`` with ``j < i``,
  already final, so the one call is a complete forward substitution:
  each row is solved as soon as its own dependencies are, with no
  level barrier and no per-level interpreter dispatch.  That is the host form of the paper's
  argument that at fine granularity synchronization decides SpTRSV
  speed, and the fused
  sequential sweep Li (arXiv:1710.04985) prefers for small triangular
  solves.  Deep, skinny matrices, which would pay per-level dispatch
  thousands of times per solve, take it.

Each solve writes its input once into a fresh C-ordered ``(n, k)``
array already in its kernel's start form (``B * inv_diag`` for the
sequential variant, a copy of ``B`` for the level one) and runs the
kernel in place on it.  A block given as its columns, as the serve
engine passes a coalesced batch, is written column by column and never
stacked first; the scale is then one ``np.multiply`` per column, not a
broadcast whose inner loop is ``k`` long, and the same IEEE product.

Both variants sum every row the same way — the scaled ``b_i`` first,
then the dependencies in ``idx`` order — so their answers are
bit-identical to each other: the level variant's ``-0.0`` start is the
IEEE additive identity (``-0.0 + v == v`` bit for bit, signed zeros
included), so its first addition yields exactly the sequential
variant's start value ``b_i * (1/L[i,i])``.
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
    Wide-shallow matrices keep the level schedule, whose one native
    call per level is spread over many rows there.  The serve tier's
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
        ``1 / L[i, i]`` by original row: the sequential variant's start
        scale ``X = B * inv_diag``, and the level variant's leading
        coefficient of each row.
    row_ptr, idx, vals:
        The scaled rows: plan row ``p`` of original row ``i`` owns
        ``idx[row_ptr[p]:row_ptr[p+1]]`` / ``vals[...]``, its
        off-diagonal ``x`` inputs (every one below ``i``) and their
        coefficients ``-L[i, j] / L[i, i]``.  In the level variant the
        span first holds ``(i, 1 / L[i, i])``, so it is never empty and
        ``len(idx) == nnz(L)``; in the sequential one it is empty
        exactly when the row has no dependencies, and plan row ``p`` is
        original row ``p``.  ``row_ptr`` and ``idx`` share one integer
        dtype, as ``csr_matvec`` requires.
    rows, level_ptr:
        The level variant's order, empty in the sequential one.
        ``rows`` maps plan rows to original rows (level order) and
        ``level_ptr`` holds the plan-row spans per level.  A level may
        mix rows with and without dependencies.
    """

    schedule: str
    base_levels: int
    inv_diag: np.ndarray
    row_ptr: np.ndarray
    idx: np.ndarray
    vals: np.ndarray
    rows: np.ndarray = field(default_factory=_NO_ARRAY.view)
    level_ptr: np.ndarray = field(default_factory=_NO_ARRAY.view)

    def __post_init__(self) -> None:
        if self.schedule not in COMPILED_SCHEDULES:
            raise ValueError(
                f"schedule must be one of {COMPILED_SCHEDULES}, "
                f"got {self.schedule!r}"
            )
        if self.schedule == "sequential":
            return
        # per-level executor steps, one per level: (level rows,
        # unrebased row_ptr slice, plan-row span, row count), views and
        # Python ints, so the loop does no arithmetic of its own
        lp = self.level_ptr.tolist()
        steps = tuple(
            (self.rows[lp[k]: lp[k + 1]], self.row_ptr[lp[k]: lp[k + 1] + 1],
             lp[k], lp[k + 1], lp[k + 1] - lp[k])
            for k in range(len(lp) - 1)
        )
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(
            self, "_widest", max((st[4] for st in steps), default=0)
        )

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
        """Coefficients per solve: ``nnz(L)``, all in ``vals`` in the
        level variant; the off-diagonal ones in ``vals`` and the
        diagonal in ``inv_diag`` in the sequential one."""
        if self.schedule == "level":
            return len(self.idx)
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
                      self.vals, self.level_ptr)
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

    def solve_many(self, B) -> np.ndarray:
        """Solve ``L X = B`` for all columns.

        ``B`` is an ``(n, k)`` array, or 1-D ``b`` (one column), in
        float32 or float64, C- or Fortran-ordered or strided, mirroring
        :func:`repro.solvers.multirhs.capellini_sptrsm`.  A list or
        tuple is the block given as its ``k`` columns, each a length-``n``
        vector: they are written once, straight into the kernel's start
        form, with no stacked ``(n, k)`` copy of ``B`` before it.  Both
        forms give bit-identical answers.  Always returns a fresh
        C-ordered ``(n, k)`` float64 array.
        """
        if isinstance(B, (list, tuple)):
            X = self._start_columns(B)
        else:
            B = np.asarray(B, dtype=np.float64)
            if B.ndim == 1:
                B = B.reshape(-1, 1)
            if B.ndim != 2 or B.shape[0] != self.n_rows:
                raise SolverError(
                    f"B must have shape ({self.n_rows}, k), got {B.shape}"
                )
            if B.shape[1] == 0:
                raise SolverError("B must have at least one right-hand side")
            if self.schedule == "sequential":
                X = np.multiply(B, self.inv_diag[:, None], order="C")
            else:
                X = np.array(B, order="C")
        if self.schedule == "sequential":
            self._sweep(X)
        else:
            self._levels(X)
        return X

    def _start_columns(self, columns) -> np.ndarray:
        """The start form of a block given as its columns: each written
        once into a fresh C-ordered ``(n, k)`` array, scaled by
        ``inv_diag`` on the way in for the sequential variant."""
        n = self.n_rows
        if not columns:
            raise SolverError("B must have at least one right-hand side")
        X = np.empty((n, len(columns)))
        scale = self.schedule == "sequential"
        for c, b in enumerate(columns):
            if np.shape(b) != (n,):
                raise SolverError(
                    f"column {c} has shape {np.shape(b)}, expected ({n},)"
                )
            if scale:
                np.multiply(b, self.inv_diag, out=X[:, c])
            else:
                X[:, c] = b
        return X

    def _sweep(self, X: np.ndarray) -> None:
        """The sequential variant: one native sweep over the C-ordered
        start form ``X = B * inv_diag``, in place, with ``X`` as both
        input and output.

        ``csr_matvec`` runs ``sum = y[i]; sum += vals[e] * x[idx[e]];
        y[i] = sum`` for rows in increasing order (``csr_matvecs`` the
        same per column of the flat ``(n, k)`` block).  Every ``idx`` of
        row ``i`` is below ``i``, so with ``y`` aliased to ``x`` each row
        reads only finished entries and the call is a complete forward
        substitution.
        """
        n, k = X.shape
        x = X.reshape(-1)
        if k == 1:
            csr_matvec(n, n, self.row_ptr, self.idx, self.vals, x, x)
        else:
            csr_matvecs(n, n, k, self.row_ptr, self.idx, self.vals, x, x)

    def _levels(self, X: np.ndarray) -> None:
        """The level variant, in place over its C-ordered start form
        ``X``, a copy of ``B``: one loop per width.

        Per level: start the level's sums ``s`` at ``-0.0``, run one
        native ``csr_matvec`` (``csr_matvecs`` for a block) of the
        level's rows with ``X`` as input and ``s`` as output, and
        scatter ``s`` back.  Each row's first entry multiplies its own
        ``b_i``, which ``X`` still holds unscaled, by ``1/L[i,i]``; its
        dependencies sit in earlier levels, already final.  The call
        takes the level's slice of ``row_ptr`` unrebased, so it reads
        ``idx``/``vals`` where the whole plan keeps them.

        One right-hand side runs on the flat vector, the cheapest
        scatter numpy has, and its sums live in one ``n``-long buffer
        filled with ``-0.0`` once per solve, each level's ``s`` a view
        of its plan-row span.  A block scatters whole ``k``-wide rows,
        one opaque ``8k``-byte item per row through a ``np.void`` view,
        and refills one buffer the size of the widest level per level:
        a second ``(n, k)`` array beside ``X`` would double the solve's
        large allocations, which the allocator may hand back to the OS
        and fault in again on every solve (a width-16 circuit-20000
        solve took 2.2x as long that way).
        """
        n, k = X.shape
        x = X.reshape(-1)
        idx, vals = self.idx, self.vals
        if k == 1:
            sums = np.full(n, -0.0)
            for level_rows, ptr, lo, hi, m in self._steps:
                s = sums[lo:hi]
                csr_matvec(m, n, ptr, idx, vals, x, s)
                x[level_rows] = s
            return
        row = np.dtype((np.void, X.itemsize * k))
        x_rows = X.view(row)[:, 0]
        sums = np.empty(self._widest * k)
        for level_rows, ptr, lo, hi, m in self._steps:
            s = sums[:m * k]
            s.fill(-0.0)
            csr_matvecs(m, n, k, ptr, idx, vals, x, s)
            x_rows[level_rows] = s.view(row)


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
    # off-diagonal dependencies, pre-divided by the diagonal.  A level
    # plan row leads with its own b_i times 1 / L[i,i] (lead = 1), so
    # the level's native call applies the diagonal scale itself
    lead = int(schedule == "level")
    off_lo = L.row_ptr[:-1]
    counts = (diag_pos - off_lo + lead).astype(np.int64)[order]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    starts = row_ptr[:-1]
    src = np.repeat(off_lo[order] - starts - lead, counts) + np.arange(
        int(row_ptr[-1]), dtype=np.int64
    )
    if lead:
        src[starts] = diag_pos[order]
    idx = L.col_idx[src].astype(np.int64)
    vals = -L.values[src] * np.repeat(inv_diag[order], counts)
    if lead:
        vals[starts] = inv_diag[order]
    return CompiledPlan(
        schedule=schedule,
        base_levels=base.n_levels,
        inv_diag=inv_diag,
        row_ptr=row_ptr,
        idx=idx,
        vals=vals,
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

"""Former home of the host execution plan, kept as two names.

The level-scheduled host executor is now the ``schedule="level"``
variant of :class:`~repro.solvers.compiled.CompiledPlan`, the one
fast-lane plan type.  Nothing in the program uses this module; it
exists because ``perfbench/layers.py`` imports and wraps both names.
"""

from __future__ import annotations

from repro.analysis.levels import LevelSchedule
from repro.solvers.compiled import CompiledPlan, build_compiled_plan
from repro.sparse.csr import CSRMatrix

__all__ = ["ExecutionPlan", "build_plan"]


# Kept for perfbench/layers.py, which wraps ExecutionPlan.solve_many; a
# subclass, not an alias, so that wrap never nests inside the wrapper of
# CompiledPlan.solve_many (no instance of it is ever built).
class ExecutionPlan(CompiledPlan):
    """Name-only subclass of :class:`CompiledPlan`; see the module."""


# Kept for perfbench/layers.py, which times it as the level-variant build.
def build_plan(
    L: CSRMatrix, *, schedule: LevelSchedule | None = None
) -> CompiledPlan:
    """The level-variant :class:`CompiledPlan` of ``L``."""
    return build_compiled_plan(L, schedule="level", base=schedule)

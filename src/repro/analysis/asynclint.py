"""AST-based async-hazard lint for the serve tier.

The kernel lint (:mod:`repro.analysis.lint`) enforces the sync-free
publication idiom on simulated-GPU kernels; this module applies the
same static-analysis discipline to the host-side concurrency code in
:mod:`repro.serve`.  The engine's coalescing/timeout/fallback logic is
a publish/observe protocol too — ``asyncio.Future`` is the flag,
shared engine state is the value — and the same classes of bugs
(stale reads, double publishes, lost wakeups) hide in it.  Five rules:

``SL001`` — stale read across an ``await``.
    A local variable bound from private mutable engine state
    (``self._pending``, ``self._depth``, ...) and then *used after* an
    ``await`` without being re-read.  Every ``await`` is a scheduling
    point: any other task may mutate the engine in between, so the
    cached value is stale.  Rebinding the local after the ``await``
    (revalidation) clears the finding.

``SL002`` — double publish on one future.
    ``set_result``/``set_exception`` reachable more than once on the
    same future — two unguarded publish sites on one root, or one
    unguarded publish inside a loop.  A second publish raises
    ``InvalidStateError`` at runtime, usually on the *losing* path of
    a race.  A publish lexically guarded by a ``done()`` test on the
    same root (``if not fut.done(): fut.set_result(...)``) is safe.

``SL003`` — lost wakeup: an exception path that never resolves.
    In a function that publishes to a future, an ``except`` handler
    that neither publishes, re-raises, nor propagates — while the
    publish it skipped lives in the guarded ``try`` body (or after a
    ``return`` in the handler).  The awaiting task sleeps forever.

``SL004`` — unbounded sleep-polling loop.
    A ``while`` loop whose only awaits are ``sleep`` calls is a
    busy-wait on shared state: it burns scheduler ticks, adds up to
    one poll interval of latency, and hides lost wakeups instead of
    surfacing them.  Wait on an ``asyncio.Event``/``Condition``/future
    instead.

``SL005`` — task created without a retained handle.
    ``asyncio.ensure_future(...)`` / ``create_task(...)`` as a bare
    expression statement.  The event loop keeps only a weak reference
    to running tasks: a handle-less task can be garbage-collected
    mid-flight, silently dropping the work (and any future it was
    going to resolve — a lost wakeup by GC).

Deliberate violations carry the same pragma dialect as the kernel
lint, under the ``serve-lint:`` tag::

    while self._spin:  # serve-lint: allow=SL004 -- demo polling loop
        await asyncio.sleep(0.01)

Run standalone (CI's ``serve-lint`` gate does)::

    python -m repro.analysis.asynclint src/repro/serve
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.analysis._lintcore import (
    LintFinding,
    lint_paths_with,
    pragma_allows,
    run_lint_main,
    walk_functions,
)

__all__ = [
    "LintFinding",
    "lint_source",
    "lint_file",
    "lint_paths",
    "serve_package_paths",
    "main",
]

_PRAGMA = "serve-lint:"

#: Method names that resolve an ``asyncio.Future`` (publish the flag).
PUBLISH_METHODS = frozenset({"set_result", "set_exception"})
#: Call names that spawn a task whose handle must be retained.
SPAWN_METHODS = frozenset({"ensure_future", "create_task"})

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


# ---------------------------------------------------------------------------
# expression helpers
# ---------------------------------------------------------------------------


def _dotted_root(node: ast.expr) -> Optional[str]:
    """Dotted path of a name/attribute chain: ``req.future`` ->
    ``"req.future"``, ``fut`` -> ``"fut"``; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _publish_call(node: ast.expr) -> Optional[tuple[str, ast.Call]]:
    """``(future_root, call)`` when ``node`` is ``<root>.set_result(...)``
    or ``<root>.set_exception(...)``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in PUBLISH_METHODS
    ):
        root = _dotted_root(node.func.value)
        if root is not None:
            return root, node
    return None


def _is_private_self_read(node: ast.expr) -> bool:
    """``self._name`` — private mutable state of the enclosing object
    (public attributes are configuration, frozen after ``__init__``)."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _is_sleep_call(node: ast.expr) -> bool:
    """``asyncio.sleep(...)``, ``clock.sleep(...)``, bare ``sleep(...)``."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Attribute):
        return fn.attr == "sleep"
    return isinstance(fn, ast.Name) and fn.id == "sleep"


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``fn`` excluding nested function definitions (each nested
    function is linted as its own scope)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FuncDef):
            stack.extend(ast.iter_child_nodes(node))


def _enclosing_map(fn: ast.AST) -> dict[int, ast.AST]:
    """``id(child) -> parent`` for every node in ``fn``'s own scope."""
    parents: dict[int, ast.AST] = {}
    stack: list[ast.AST] = [fn]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
            if not (isinstance(child, _FuncDef) and child is not fn):
                stack.append(child)
    return parents


def _ancestors(node: ast.AST, parents: dict[int, ast.AST]) -> Iterator[ast.AST]:
    while id(node) in parents:
        node = parents[id(node)]
        yield node


# ---------------------------------------------------------------------------
# rules (each takes one function scope)
# ---------------------------------------------------------------------------


def _reads_private_state(value: ast.AST) -> bool:
    """Whether ``value`` reads ``self._x``.  A private method called on
    ``self`` (``self._pending_solve(...)``) is behaviour, not a read of
    shared state; a method called *on* a private attribute
    (``self._pending.pop(key)``) still reads it."""
    calls = {
        id(node.func) for node in ast.walk(value) if isinstance(node, ast.Call)
    }
    return any(
        _is_private_self_read(sub) and id(sub) not in calls
        for sub in ast.walk(value)
    )


def _bound_names(target: ast.AST, value: Optional[ast.AST]):
    """``(name, value)`` for every name an assignment binds, pairing each
    element of a tuple or list target with the matching element of a
    same-length tuple or list value (the whole value otherwise)."""
    if isinstance(target, ast.Name):
        yield target.id, value
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value, value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        paired = (
            isinstance(value, (ast.Tuple, ast.List))
            and len(value.elts) == len(target.elts)
            and not any(isinstance(e, ast.Starred) for e in target.elts)
        )
        for i, elt in enumerate(target.elts):
            yield from _bound_names(elt, value.elts[i] if paired else value)


def _check_sl001(fn, path, allowed) -> list[LintFinding]:
    """Stale read across await: local bound from ``self._x`` used after a
    later ``await`` without rebinding."""
    findings: list[LintFinding] = []
    # (lineno, name) for binds from private state; linenos of awaits;
    # (lineno, name) for every Name load; linenos of *any* rebinding
    binds: dict[str, list[int]] = {}
    rebinds: dict[str, list[int]] = {}
    awaits: list[int] = []
    loads: list[tuple[int, str]] = []
    for node in _own_nodes(fn):
        if isinstance(node, ast.Await):
            awaits.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if value is None:
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for t in targets:
                for name, part in _bound_names(t, value):
                    rebinds.setdefault(name, []).append(node.lineno)
                    if _reads_private_state(part):
                        binds.setdefault(name, []).append(node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.append((node.lineno, node.id))
    if not awaits:
        return findings
    flagged: set[tuple[str, int]] = set()
    for lineno, name in sorted(loads):
        if name not in binds or (name, lineno) in flagged:
            continue
        last_bind = max(
            (ln for ln in rebinds.get(name, ()) if ln < lineno), default=None
        )
        if last_bind is None or last_bind not in binds[name]:
            continue  # most recent binding is not from shared state
        crossed = any(last_bind < aw < lineno for aw in awaits)
        if crossed and not allowed(lineno, "SL001"):
            flagged.add((name, lineno))
            findings.append(LintFinding(
                path, lineno, "SL001",
                f"{name!r} was read from shared engine state on line "
                f"{last_bind} and is used after an intervening await "
                "without revalidation: another task may have mutated the "
                "state at the scheduling point; re-read it after the await",
            ))
    return findings


def _guarded_by_done(
    call: ast.Call, root: str, parents: dict[int, ast.AST]
) -> bool:
    """A publish is guarded when an enclosing ``if``/``while`` test (or
    ternary) observes ``<root>.done()`` or ``<root>.cancelled()``."""
    for anc in _ancestors(call, parents):
        test = getattr(anc, "test", None)
        if test is None:
            continue
        for sub in ast.walk(test):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("done", "cancelled")
                and _dotted_root(sub.func.value) == root
            ):
                return True
    return False


def _check_sl002(fn, path, allowed) -> list[LintFinding]:
    """Double publish: two unguarded publish sites on one future root,
    or one unguarded publish inside a loop."""
    findings: list[LintFinding] = []
    parents = _enclosing_map(fn)
    sites: dict[str, list[tuple[ast.Call, bool, bool]]] = {}
    for node in _own_nodes(fn):
        pub = _publish_call(node)
        if pub is None:
            continue
        root, call = pub
        guarded = _guarded_by_done(call, root, parents)
        in_loop = any(
            isinstance(anc, (ast.For, ast.While, ast.AsyncFor))
            for anc in _ancestors(call, parents)
        )
        sites.setdefault(root, []).append((call, guarded, in_loop))
    for root, publishes in sites.items():
        unguarded = [
            (c, in_loop) for c, guarded, in_loop in publishes if not guarded
        ]
        reachable_twice = len(publishes) > 1 or any(
            in_loop for _, in_loop in unguarded
        )
        if not reachable_twice:
            continue
        for call, _ in unguarded:
            if allowed(call.lineno, "SL002"):
                continue
            findings.append(LintFinding(
                path, call.lineno, "SL002",
                f"publish on {root!r} is reachable more than once and this "
                "site is not guarded by a done() test: the second publish "
                "raises InvalidStateError on the losing path of the race; "
                f"guard with `if not {root}.done():`",
            ))
    return findings


def _check_sl003(fn, path, allowed) -> list[LintFinding]:
    """Lost wakeup: an except handler that swallows the exception while
    skipping the only publish of a future."""
    findings: list[LintFinding] = []
    publish_lines: list[int] = []
    for node in _own_nodes(fn):
        if _publish_call(node) is not None:
            publish_lines.append(node.lineno)
    if not publish_lines:
        return findings
    for node in _own_nodes(fn):
        if not isinstance(node, ast.Try):
            continue
        try_publishes = any(
            _publish_call(sub) is not None
            for stmt in node.body
            for sub in ast.walk(stmt)
        )
        for handler in node.handlers:
            body_nodes = [
                sub for stmt in handler.body for sub in ast.walk(stmt)
            ]
            h_publishes = any(_publish_call(s) is not None for s in body_nodes)
            h_raises = any(isinstance(s, ast.Raise) for s in body_nodes)
            h_returns = any(isinstance(s, ast.Return) for s in body_nodes)
            if h_publishes or h_raises:
                continue
            # swallowing is only a lost wakeup when the skipped publish
            # was inside the try body, or the handler returns past a
            # publish that follows the try
            later_publish = any(
                ln > handler.body[-1].lineno for ln in publish_lines
            )
            skips = try_publishes or (h_returns and later_publish)
            if not skips or allowed(handler.lineno, "SL003"):
                continue
            findings.append(LintFinding(
                path, handler.lineno, "SL003",
                "exception handler neither resolves the future nor "
                "re-raises: on this path the future is never published "
                "and its awaiter sleeps forever (lost wakeup); publish "
                "the exception with set_exception or re-raise",
            ))
    return findings


def _check_sl004(fn, path, allowed) -> list[LintFinding]:
    """Sleep-polling loop: a while whose awaits are all sleeps."""
    findings: list[LintFinding] = []
    for node in _own_nodes(fn):
        if not isinstance(node, ast.While):
            continue
        own_awaits = [
            sub
            for stmt in node.body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Await)
        ]
        if not own_awaits:
            continue
        if all(_is_sleep_call(a.value) for a in own_awaits):
            lineno = node.lineno
            if allowed(lineno, "SL004"):
                continue
            findings.append(LintFinding(
                path, lineno, "SL004",
                "while-loop polls shared state with asyncio.sleep: this "
                "busy-wait burns scheduler ticks and adds up to one poll "
                "interval of latency per observation; wait on an "
                "asyncio.Event/Condition/future set by the producer "
                "instead",
            ))
    return findings


def _check_sl005(fn, path, allowed) -> list[LintFinding]:
    """Fire-and-forget task: spawn call whose handle is discarded."""
    findings: list[LintFinding] = []
    for node in _own_nodes(fn):
        if not isinstance(node, ast.Expr) or not isinstance(
            node.value, ast.Call
        ):
            continue
        call = node.value
        fname = (
            call.func.attr
            if isinstance(call.func, ast.Attribute)
            else call.func.id if isinstance(call.func, ast.Name) else None
        )
        if fname not in SPAWN_METHODS:
            continue
        lineno = node.lineno
        if allowed(lineno, "SL005"):
            continue
        findings.append(LintFinding(
            path, lineno, "SL005",
            f"{fname}(...) without retaining the task handle: the event "
            "loop holds only a weak reference, so the task can be "
            "garbage-collected mid-flight and its work silently dropped; "
            "store the handle (e.g. in a set with a done-callback "
            "discard) or await it",
        ))
    return findings


_RULES = (_check_sl001, _check_sl002, _check_sl003, _check_sl004, _check_sl005)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def lint_source(source: str, path: str = "<string>") -> list[LintFinding]:
    tree = ast.parse(source)
    lines = source.splitlines()
    findings: list[LintFinding] = []
    for fn in walk_functions(tree):

        def allowed(lineno: int, rule: str) -> bool:
            return pragma_allows(lines, lineno, rule, tag=_PRAGMA) or (
                pragma_allows(lines, fn.lineno, rule, tag=_PRAGMA)
            )

        for rule in _RULES:
            findings.extend(rule(fn, path, allowed))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_file(path: str | Path) -> list[LintFinding]:
    p = Path(path)
    return lint_source(p.read_text(), str(p))


def lint_paths(paths: Iterable[str | Path]) -> list[LintFinding]:
    return lint_paths_with(paths, lint_source)


def serve_package_paths() -> list[Path]:
    """The ``repro.serve`` source files (the default lint target)."""
    import repro.serve as pkg

    return sorted(Path(pkg.__file__).parent.glob("*.py"))


def main(argv: list[str] | None = None) -> int:
    return run_lint_main(
        argv,
        label="serve lint",
        default_paths=serve_package_paths,
        lint_source=lint_source,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

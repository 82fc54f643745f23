"""Shared-memory matrix arena: publish a CSR once, map it everywhere.

The serve cluster ships every registered matrix to the shard worker
that owns it.  A CSR matrix is three *immutable* numpy arrays, which is
exactly what :mod:`multiprocessing.shared_memory` is good at: the
router lays them into one shared segment, and every shard worker maps
that segment and wraps zero-copy views in a fresh
:class:`~repro.sparse.csr.CSRMatrix`.  Registration and worker respawn
ship a small JSON handle (segment name + array layout) over the pipe
instead of pickling the matrix.  Each worker builds its own fast-lane
plan from those views through its registry, as an in-process engine
does: a plan's SuperLU factor is a native object that cannot live in
shared memory, and building one costs a few milliseconds.

Three pieces:

* :class:`PlanArena` — owner-side ``publish`` (lay a matrix into one
  segment, return a :class:`PlanHandle`) and attach-side ``attach`` /
  ``detach`` with per-segment refcounting, so N engines in one worker
  share one mapping and the last detach closes it.
* :class:`SlabPool` / :class:`SegmentCache` — pooled scratch segments
  for request/response blocks (RHS in, solutions out) so payloads above
  the inline threshold cross the process boundary through shared pages,
  not through pickle; the worker-side cache keeps attachments warm
  across requests.
* Crash safety — every segment name embeds the owner pid; owners
  register an ``atexit`` unlink for everything they created, attachers
  never register with the ``resource_tracker`` (which would otherwise
  unlink segments it does not own when a worker exits), and
  :func:`reap_stale` removes segments whose owner process is gone after
  a hard kill.  :func:`leaked_segments` is the audit the smoke tests
  assert empty.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.errors import ClusterError
from repro.sparse.csr import CSRMatrix

__all__ = [
    "SEGMENT_PREFIX",
    "PlanHandle",
    "PlanArena",
    "Slab",
    "SlabPool",
    "SegmentCache",
    "leaked_segments",
    "reap_stale",
]

#: Prefix of every segment this module creates; the leak audit and the
#: stale reaper match on it.
SEGMENT_PREFIX = "repro-shm"

#: Byte alignment of arrays inside a segment (int64/float64 friendly).
_ALIGN = 64

#: Segment names created (and not yet unlinked) by THIS process, for the
#: atexit crash-safe unlink.  Guarded by _CREATED_LOCK.
_CREATED: set[str] = set()
_CREATED_LOCK = threading.Lock()
_ATEXIT_ARMED = False


def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


def _arm_atexit() -> None:
    global _ATEXIT_ARMED
    if not _ATEXIT_ARMED:
        atexit.register(_unlink_created)
        _ATEXIT_ARMED = True


def _unlink_created() -> None:
    with _CREATED_LOCK:
        names = list(_CREATED)
        _CREATED.clear()
    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
            seg.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - platform-specific teardown
            pass


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    _arm_atexit()
    shm = shared_memory.SharedMemory(
        name=_segment_name(), create=True, size=max(nbytes, 1)
    )
    with _CREATED_LOCK:
        _CREATED.add(shm.name)
    return shm


#: Serializes the register-suppression window in :func:`_attach_segment`.
_ATTACH_LOCK = threading.Lock()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment WITHOUT resource-tracker tracking.

    The stdlib registers every attachment with the ``resource_tracker``,
    which unlinks all registered names at cleanup — so a process that
    merely *mapped* a segment it does not own can destroy it for
    everyone (the long-standing bpo-38119 behaviour; Python 3.13 grew
    ``track=False`` for exactly this reason).  On older interpreters we
    suppress the tracker's ``register`` for the duration of the attach
    rather than calling ``unregister`` afterwards: spawned workers
    *share* the router's tracker process, so an unregister from a worker
    would silently drop the owner's own registration (and the tracker
    then complains about the owner's legitimate unlink).  Untracked
    attachment keeps ownership where it belongs: whoever created the
    segment unlinks it.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        with _ATTACH_LOCK:
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original


def _unlink_segment(shm: shared_memory.SharedMemory) -> None:
    name = shm.name
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:
        pass
    with _CREATED_LOCK:
        _CREATED.discard(name)


# ---------------------------------------------------------------------------
# matrix publication
# ---------------------------------------------------------------------------

#: Arrays laid into a matrix segment, in order.
_MATRIX_FIELDS = ("row_ptr", "col_idx", "values")


@dataclass(frozen=True)
class PlanHandle:
    """JSON-serializable description of one published matrix segment.

    ``arrays`` maps field name to ``(dtype, shape, offset)``; the field
    vocabulary is fixed (:data:`_MATRIX_FIELDS`), so both sides agree
    on layout without shipping code.
    """

    key: str
    segment: str
    nbytes: int
    n_rows: int
    n_cols: int
    arrays: tuple  # of (field, dtype_str, shape_tuple, offset)

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "segment": self.segment,
            "nbytes": self.nbytes,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "arrays": [
                [f, d, list(s), o] for f, d, s, o in self.arrays
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PlanHandle":
        return cls(
            key=doc["key"],
            segment=doc["segment"],
            nbytes=int(doc["nbytes"]),
            n_rows=int(doc["n_rows"]),
            n_cols=int(doc["n_cols"]),
            arrays=tuple(
                (f, d, tuple(s), int(o)) for f, d, s, o in doc["arrays"]
            ),
        )


@dataclass
class _Attachment:
    shm: shared_memory.SharedMemory
    refs: int = 1
    cached: Optional[CSRMatrix] = None


@dataclass
class _Owned:
    handle: PlanHandle
    shm: shared_memory.SharedMemory


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class PlanArena:
    """Refcounted shared-memory store of published matrices.

    One arena instance serves both roles: the router *owns* segments
    (``publish`` / ``unlink`` / ``close``), workers *attach* to them
    (``attach`` / ``detach``).  All methods are thread-safe.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._owned: dict[str, _Owned] = {}  # key -> owned segment
        self._attached: dict[str, _Attachment] = {}  # segment name -> att
        self._published = 0
        self._attaches = 0
        self._attach_reuses = 0

    # ------------------------------------------------------------------
    # owner side
    # ------------------------------------------------------------------
    def publish(self, key: str, matrix: CSRMatrix) -> PlanHandle:
        """Lay ``matrix`` into one shared segment (idempotent per
        ``key``: a second publish returns the existing handle)."""
        with self._lock:
            owned = self._owned.get(key)
            if owned is not None:
                return owned.handle
        specs = []
        offset = 0
        for name in _MATRIX_FIELDS:
            arr = getattr(matrix, name)
            offset = _align(offset)
            specs.append((name, arr.dtype.str, tuple(arr.shape), offset))
            offset += arr.nbytes
        shm = _create_segment(offset)
        for (name, dtype, shape, off) in specs:
            dst = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
            dst[...] = getattr(matrix, name)
        handle = PlanHandle(
            key=key,
            segment=shm.name,
            nbytes=offset,
            n_rows=matrix.n_rows,
            n_cols=matrix.n_cols,
            arrays=tuple(specs),
        )
        with self._lock:
            # lost the publish race: keep the first segment, drop ours
            existing = self._owned.get(key)
            if existing is not None:
                _unlink_segment(shm)
                return existing.handle
            self._owned[key] = _Owned(handle=handle, shm=shm)
            self._published += 1
        return handle

    def handle(self, key: str) -> PlanHandle:
        with self._lock:
            owned = self._owned.get(key)
        if owned is None:
            raise ClusterError(f"no matrix published under key {key!r}")
        return owned.handle

    def unlink(self, key: str) -> None:
        """Destroy one published segment (attached mappings elsewhere
        stay valid until those processes detach — POSIX semantics)."""
        with self._lock:
            owned = self._owned.pop(key, None)
        if owned is not None:
            _unlink_segment(owned.shm)

    def close(self) -> None:
        """Detach everything and unlink every owned segment."""
        self.detach_all()
        with self._lock:
            owned = list(self._owned.values())
            self._owned.clear()
        for o in owned:
            _unlink_segment(o.shm)

    # ------------------------------------------------------------------
    # attach side
    # ------------------------------------------------------------------
    def attach(self, handle: PlanHandle) -> CSRMatrix:
        """Map a published segment and rebuild its matrix as views.

        Refcounted per segment: repeated attaches share one mapping and
        one reconstructed matrix; each must be paired with a
        :meth:`detach`.  The views are marked read-only — the arrays are
        shared across processes and must never be written through.
        """
        with self._lock:
            att = self._attached.get(handle.segment)
            if att is not None:
                att.refs += 1
                self._attach_reuses += 1
                if att.cached is not None:
                    return att.cached
            else:
                try:
                    shm = _attach_segment(handle.segment)
                except FileNotFoundError as exc:
                    raise ClusterError(
                        f"matrix segment {handle.segment!r} for key "
                        f"{handle.key!r} is gone (owner unlinked or died)"
                    ) from exc
                att = self._attached[handle.segment] = _Attachment(shm=shm)
                self._attaches += 1
        views = {}
        for name, dtype, shape, off in handle.arrays:
            view = np.ndarray(
                shape, dtype=dtype, buffer=att.shm.buf, offset=off
            )
            view.flags.writeable = False
            views[name] = view
        matrix = CSRMatrix(
            n_rows=handle.n_rows,
            n_cols=handle.n_cols,
            _validated=True,  # the publisher validated; don't rescan nnz
            **views,
        )
        # the fingerprint is the routing key; pin it so the worker never
        # re-hashes megabytes of shared arrays just to learn what it was
        object.__setattr__(matrix, "_fingerprint", handle.key)
        with self._lock:
            self._attached[handle.segment].cached = matrix
        return matrix

    def detach(self, handle: PlanHandle) -> None:
        """Drop one reference; the last detach closes the mapping."""
        with self._lock:
            att = self._attached.get(handle.segment)
            if att is None:
                return
            att.refs -= 1
            if att.refs > 0:
                return
            del self._attached[handle.segment]
        att.cached = None
        try:
            att.shm.close()
        except BufferError:  # pragma: no cover - views still exported
            pass

    def detach_all(self) -> None:
        with self._lock:
            atts = list(self._attached.values())
            self._attached.clear()
        for att in atts:
            att.cached = None
            try:
                att.shm.close()
            except BufferError:  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "published": self._published,
                "resident": len(self._owned),
                "resident_bytes": sum(
                    o.handle.nbytes for o in self._owned.values()
                ),
                "attached": len(self._attached),
                "attaches": self._attaches,
                "attach_reuses": self._attach_reuses,
            }

    def __enter__(self) -> "PlanArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# request/response slabs
# ---------------------------------------------------------------------------


@dataclass
class Slab:
    """One pooled scratch segment (RHS in, or solutions out)."""

    name: str
    capacity: int
    _shm: shared_memory.SharedMemory

    def ndarray(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A writable array view over the slab's first bytes."""
        return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf)


def _size_class(nbytes: int) -> int:
    size = 4096
    while size < nbytes:
        size *= 2
    return size


class SlabPool:
    """Power-of-two pooled shared segments, owner-side.

    ``acquire`` hands out a slab at least ``nbytes`` big (reusing a
    released one of the same size class when available — steady-state
    traffic allocates zero new segments); ``release`` returns it;
    ``close`` unlinks everything.  Thread-safe.
    """

    def __init__(self, *, max_pooled_per_class: int = 8) -> None:
        self.max_pooled_per_class = max_pooled_per_class
        self._lock = threading.Lock()
        self._free: dict[int, list[Slab]] = {}
        self._all: dict[str, Slab] = {}
        self._created = 0
        self._reused = 0
        self._closed = False

    def acquire(self, nbytes: int) -> Slab:
        size = _size_class(nbytes)
        with self._lock:
            if self._closed:
                raise ClusterError("slab pool is closed")
            free = self._free.get(size)
            if free:
                self._reused += 1
                return free.pop()
        shm = _create_segment(size)
        slab = Slab(name=shm.name, capacity=size, _shm=shm)
        with self._lock:
            if self._closed:  # closed while we were allocating
                _unlink_segment(shm)
                raise ClusterError("slab pool is closed")
            self._all[slab.name] = slab
            self._created += 1
        return slab

    def release(self, slab: Slab) -> None:
        with self._lock:
            if self._closed or slab.name not in self._all:
                return
            free = self._free.setdefault(slab.capacity, [])
            if len(free) < self.max_pooled_per_class:
                free.append(slab)
                return
            del self._all[slab.name]
        _unlink_segment(slab._shm)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            slabs = list(self._all.values())
            self._all.clear()
            self._free.clear()
        for slab in slabs:
            _unlink_segment(slab._shm)

    def stats(self) -> dict:
        with self._lock:
            return {
                "segments": len(self._all),
                "pooled": sum(len(v) for v in self._free.values()),
                "created": self._created,
                "reused": self._reused,
                "bytes": sum(s.capacity for s in self._all.values()),
            }


class SegmentCache:
    """Attach-side cache of slab mappings (worker processes).

    Request slabs are pooled and reused by the router, so the same
    segment names recur; caching the attachment turns per-request shm
    opens into dict hits.  All attachments are untracked (see
    :func:`_attach_segment`) and closed together on :meth:`close_all`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def buffer(self, name: str):
        with self._lock:
            shm = self._segments.get(name)
            if shm is None:
                shm = _attach_segment(name)
                self._segments[name] = shm
        return shm.buf

    def ndarray(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        return np.ndarray(shape, dtype=dtype, buffer=self.buffer(name))

    def drop(self, name: str) -> None:
        with self._lock:
            shm = self._segments.pop(name, None)
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover
                pass

    def close_all(self) -> None:
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
        for shm in segments:
            try:
                shm.close()
            except BufferError:  # pragma: no cover
                pass


# ---------------------------------------------------------------------------
# leak audit / stale reaping
# ---------------------------------------------------------------------------


def _shm_dir() -> Optional[str]:
    return "/dev/shm" if os.path.isdir("/dev/shm") else None


def leaked_segments(*, pid: Optional[int] = None) -> list[str]:
    """Names of live arena segments (optionally only one owner pid).

    The smoke tests assert this is empty after ``close()`` — the
    acceptance criterion for "zero leaked shared_memory segments".
    Returns an empty list on platforms without a visible /dev/shm.
    """
    root = _shm_dir()
    if root is None:  # pragma: no cover - non-tmpfs platforms
        return []
    marker = SEGMENT_PREFIX if pid is None else f"{SEGMENT_PREFIX}-{pid}-"
    return sorted(
        name for name in os.listdir(root) if name.startswith(marker)
    )


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other user
        return True
    return True


def reap_stale() -> list[str]:
    """Unlink arena segments whose owner process is dead (post-crash).

    Normal shutdown never needs this — owners unlink on ``close()`` and
    at interpreter exit.  After a SIGKILL, the pid embedded in the
    segment name identifies the corpse's leftovers.
    """
    reaped = []
    for name in leaked_segments():
        parts = name.split("-")
        try:
            owner = int(parts[2])
        except (IndexError, ValueError):
            continue
        if _pid_alive(owner):
            continue
        try:
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
            seg.unlink()
            reaped.append(name)
        except FileNotFoundError:
            continue
    return reaped

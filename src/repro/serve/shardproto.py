"""Wire protocol and consistent-hash ring for the sharded serve tier.

The router and its shard workers talk over :func:`multiprocessing.Pipe`
connections using length-prefixed frames: an 8-byte header
(``!II`` — JSON-header length, binary-body length) followed by a JSON
header and an opaque body.  The header carries the operation, request
id, and small metadata (segment names, shapes, timings); the body
carries inline numeric payloads when they are below the router's inline
threshold — larger payloads travel through shared-memory slabs and the
frame only names the segment.  JSON keeps the protocol debuggable
(``tcpdump``-able, log-printable) where it is cheap; raw bytes keep it
fast where it matters.

Shard placement uses a consistent-hash ring (:class:`HashRing`) over
matrix content fingerprints with virtual nodes, so adding or removing
one worker remaps only ~1/N of the keyspace instead of reshuffling
every matrix — the property that makes respawn-with-rehash cheap when
a worker cannot be brought back.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import struct
from typing import Optional

from repro.errors import ClusterError, RequestTimeoutError

__all__ = [
    "OP_REGISTER",
    "OP_SOLVE",
    "OP_RESULT",
    "OP_PING",
    "OP_PONG",
    "OP_SNAPSHOT",
    "OP_TRACE",
    "OP_CLOSE",
    "OP_OK",
    "SPAN_CONTEXT_KEY",
    "SPANS_KEY",
    "pack_frame",
    "unpack_frame",
    "send_frame",
    "recv_frame",
    "HashRing",
]

# Operations, router -> worker ...
OP_REGISTER = "register"   # map a published matrix (body: none)
OP_SOLVE = "solve"         # solve a block (body: inline RHS, or empty)
OP_PING = "ping"           # health check
OP_SNAPSHOT = "snapshot"   # return engine snapshot
OP_TRACE = "trace"         # return the worker's TraceLog events
OP_CLOSE = "close"         # drain and exit
# ... and worker -> router.
OP_RESULT = "result"       # solve result (body: inline solution, or empty)
OP_PONG = "pong"           # health-check reply
OP_OK = "ok"               # generic ack (register/snapshot/close replies)

# Distributed-tracing header fields.  Both are *optional* and versioned
# at the payload level (repro.obs.disttrace.SpanContext.to_wire carries
# a "v" tag): a receiver that predates them sees unknown JSON keys and
# ignores them, an old sender simply omits them — the frame layout
# itself never changes, which is what keeps the protocol
# backward-compatible across mixed-version router/worker pairs.
SPAN_CONTEXT_KEY = "span"  # request headers: the caller's span context
SPANS_KEY = "spans"        # reply headers: finished spans piggybacked back

_PREFIX = struct.Struct("!II")

#: Refuse absurd frames rather than attempting a multi-GB allocation
#: after stream corruption (2**31 bytes each for header and body).
_MAX_PART = 1 << 31


def pack_frame(header: dict, body: bytes = b"") -> bytes:
    """Serialize one frame: ``!II`` length prefix + JSON header + body."""
    raw = json.dumps(header, separators=(",", ":")).encode()
    if len(raw) >= _MAX_PART or len(body) >= _MAX_PART:
        raise ClusterError(
            f"frame too large (header={len(raw)}, body={len(body)})"
        )
    return _PREFIX.pack(len(raw), len(body)) + raw + body


def unpack_frame(data: bytes) -> tuple[dict, bytes]:
    """Inverse of :func:`pack_frame`; validates both length fields."""
    if len(data) < _PREFIX.size:
        raise ClusterError(
            f"short frame: {len(data)} bytes < {_PREFIX.size}-byte prefix"
        )
    hlen, blen = _PREFIX.unpack_from(data)
    if hlen >= _MAX_PART or blen >= _MAX_PART:
        raise ClusterError(f"corrupt frame prefix ({hlen}, {blen})")
    expected = _PREFIX.size + hlen + blen
    if len(data) != expected:
        raise ClusterError(
            f"frame length mismatch: got {len(data)} bytes, "
            f"prefix promises {expected}"
        )
    header_raw = data[_PREFIX.size:_PREFIX.size + hlen]
    try:
        header = json.loads(header_raw)
    except ValueError as exc:
        raise ClusterError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ClusterError(
            f"frame header must be a JSON object, got {type(header).__name__}"
        )
    return header, data[_PREFIX.size + hlen:]


def send_frame(conn, header: dict, body: bytes = b"") -> None:
    """Send one frame over a multiprocessing ``Connection``."""
    conn.send_bytes(pack_frame(header, body))


def recv_frame(conn, timeout: Optional[float] = None) -> tuple[dict, bytes]:
    """Receive one frame; ``timeout`` raises :class:`RequestTimeoutError`.

    Raises ``EOFError`` (propagated from the connection) when the peer
    closed — callers treat that as worker/router death, not corruption.
    """
    if timeout is not None and not conn.poll(timeout):
        raise RequestTimeoutError(
            f"no frame within {timeout:.3f}s on {conn!r}"
        )
    return unpack_frame(conn.recv_bytes())


# ---------------------------------------------------------------------------
# consistent hashing
# ---------------------------------------------------------------------------


def _ring_position(token: str) -> int:
    """64-bit position of a token on the ring (blake2b, like every other
    content hash in the system — see :mod:`repro.sparse.fingerprint`)."""
    return int.from_bytes(
        hashlib.blake2b(token.encode(), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node is placed at ``replicas`` pseudo-random positions; a key
    maps to the first node clockwise from its own position.  With the
    default 64 virtual nodes per worker the keyspace split is within a
    few percent of uniform for small pools, and removing a node moves
    only that node's arcs to its successors.
    """

    def __init__(self, nodes=(), *, replicas: int = 64) -> None:
        if replicas <= 0:
            raise ClusterError("replicas must be positive")
        self.replicas = replicas
        self._nodes: set[str] = set()
        self._positions: list[int] = []   # sorted ring positions
        self._owners: dict[int, str] = {}  # position -> node
        for node in nodes:
            self.add(str(node))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> tuple:
        return tuple(sorted(self._nodes))

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for r in range(self.replicas):
            pos = _ring_position(f"{node}#{r}")
            # collisions on a 64-bit ring are ~impossible; first wins
            if pos in self._owners:
                continue
            self._owners[pos] = node
            bisect.insort(self._positions, pos)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        dead = [p for p, n in self._owners.items() if n == node]
        for pos in dead:
            del self._owners[pos]
        dead_set = set(dead)
        self._positions = [p for p in self._positions if p not in dead_set]

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (first node clockwise on the ring)."""
        if not self._positions:
            raise ClusterError("hash ring has no nodes")
        pos = _ring_position(key)
        idx = bisect.bisect_right(self._positions, pos)
        if idx == len(self._positions):
            idx = 0  # wrap past twelve o'clock
        return self._owners[self._positions[idx]]

    def distribution(self, keys) -> dict:
        """Owner histogram for a set of keys (tests / diagnostics)."""
        counts: dict[str, int] = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts

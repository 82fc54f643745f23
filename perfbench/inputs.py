"""Workload inputs: matrices, request streams and answer references.

Everything here is a pure function of the workload name and the seed,
and all of it is built before any timed interval starts.  Matrices come
from :func:`repro.datasets.generate`; each is checked against its
declared level class from the raw CSR arrays (not the program's own
analysis), and every right-hand side gets a
:func:`scipy.sparse.linalg.spsolve_triangular` reference answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro.datasets import generate
from repro.serve import HashRing, matrix_fingerprint

__all__ = [
    "WORKLOADS",
    "Request",
    "Spec",
    "Workload",
    "answer_ok",
    "build_workload",
    "check_class",
    "eq1_granularity",
    "level_count",
]

#: The ``auto`` lane rule sends a matrix to the compiled lane from this
#: many levels on (with granularity at most 0.7), so a shallow matrix
#: must stay strictly below it to be served on the host lane.
DEEP_LEVELS = 64

#: Eq. 1 granularity at or below which a deep matrix counts as skinny.
SKINNY_GRANULARITY = 0.7

#: Largest relative error (against the scipy reference, scaled by the
#: reference's largest entry) an answer may have and still be correct.
ANSWER_RTOL = 1e-10

#: Names of the default two-worker ``ShardRouter`` pool.
CLUSTER_NODES = ("shard-0", "shard-1")


@dataclass(frozen=True)
class Spec:
    """One generated matrix kind of a workload."""

    label: str
    domain: str
    n_rows: int
    klass: str  # "shallow" | "deep"
    params: tuple = ()


@dataclass(frozen=True)
class Request:
    """One request of a stream: matrix name, right-hand side(s), answer."""

    name: str
    b: np.ndarray
    ref: np.ndarray


@dataclass
class Workload:
    """A fully materialized workload for one seed."""

    name: str
    target: str  # "engine" | "cluster"
    matrices: dict
    #: matrix name -> the label of the spec it was generated from
    label_of: dict
    #: one stream per client (engine) or per worker (cluster); each is
    #: cycled in order by its closed loop
    streams: list
    #: completions per statistics slice (a whole number of stream cycles)
    slice_len: int
    setup_reps: int
    #: requests per client or worker between two speed probes
    window: int
    #: cluster only: matrix name -> the ring node expected to own it
    placement: dict

    def first_requests(self) -> list:
        """One request per matrix, in registration order (set-up check)."""
        seen = {}
        for stream in self.streams:
            for req in stream:
                seen.setdefault(req.name, req)
        return [seen[name] for name in self.matrices]


@dataclass(frozen=True)
class _Shape:
    specs: tuple
    cycle: tuple  # indices into specs, one closed-loop cycle
    target: str
    k: int
    clients: int
    rhs_per_matrix: int
    slice_len: int
    setup_reps: int
    #: requests per client between two speed probes (a whole number of
    #: cycles, so every window has the same mix)
    window: int
    #: engine workloads: generated instances per spec (averages out the
    #: seed-to-seed variation of level structure); the cluster has one
    #: instance per worker instead
    instances: int = 1


WORKLOADS = {
    # three shallow, wide matrices on the host lane, one serial client
    "shallow-serial": _Shape(
        specs=(
            Spec("circuit-2000", "circuit", 2000, "shallow"),
            Spec("graph-2000", "graph", 2000, "shallow"),
            Spec("lp-2000", "lp", 2000, "shallow"),
        ),
        cycle=(0, 1, 2),
        target="engine",
        k=1,
        clients=1,
        rhs_per_matrix=8,
        slice_len=900,
        setup_reps=9,
        window=96,
        instances=8,
    ),
    # two lock-step clients on deep, skinny matrices (compiled lane);
    # chain:band = 3:1 puts p50 inside the chain class and p90 inside
    # the band class instead of in the gap between them
    "deep-pair": _Shape(
        specs=(
            Spec("chain-4000", "chain", 4000, "deep"),
            Spec("fem-20000", "fem", 20000, "deep", (("bandwidth", 4),)),
        ),
        cycle=(0, 0, 0, 1),
        target="engine",
        k=1,
        clients=2,
        rhs_per_matrix=8,
        slice_len=400,
        setup_reps=3,
        window=16,
    ),
    # 8-column blocks through the default two-worker router; every
    # worker owns one instance of each spec, and circuit:lp:chain =
    # 3:1:1 puts p50 inside the circuit class and p90 inside the chain
    # class
    "cluster-block": _Shape(
        specs=(
            Spec("circuit-20000", "circuit", 20000, "shallow"),
            Spec("lp-20000", "lp", 20000, "shallow"),
            Spec("chain-4000", "chain", 4000, "deep"),
        ),
        cycle=(0, 1, 0, 2, 0),
        target="cluster",
        k=8,
        clients=len(CLUSTER_NODES),
        rhs_per_matrix=3,
        slice_len=100,
        setup_reps=5,
        window=15,
    ),
}


# ---------------------------------------------------------------------------
# level class, from the raw CSR arrays
# ---------------------------------------------------------------------------


def level_count(L) -> int:
    """Longest dependency chain of a lower-triangular CSR matrix, in rows.

    A plain forward sweep over ``row_ptr``/``col_idx``, deliberately
    independent of :mod:`repro.analysis.levels`.
    """
    row_ptr = L.row_ptr.tolist()
    col_idx = L.col_idx.tolist()
    level = [0] * L.n_rows
    for i in range(L.n_rows):
        lv = 0
        for e in range(row_ptr[i], row_ptr[i + 1]):
            c = col_idx[e]
            if c != i and level[c] >= lv:
                lv = level[c] + 1
        level[i] = lv
    return max(level) + 1 if level else 0


def eq1_granularity(n_rows: int, nnz: int, n_levels: int) -> float:
    """The paper's Eq. 1 with its default bases (10) and biases (0.01)."""
    n_level = max(n_rows / n_levels, 1.0)
    denom = math.log10(nnz / n_rows + 0.01)
    if denom <= 0.0:  # diagonal-only rows: maximally parallel
        return math.inf
    return math.log10(math.log10(n_level) / denom + 0.01)


def check_class(L, klass: str) -> tuple:
    """Raise ``ValueError`` unless ``L`` is in its declared class.

    Shallow: fewer than :data:`DEEP_LEVELS` levels.  Deep: at least
    :data:`DEEP_LEVELS` levels and Eq. 1 granularity at most
    :data:`SKINNY_GRANULARITY`.  Returns ``(levels, granularity)``.
    """
    levels = level_count(L)
    gran = eq1_granularity(L.n_rows, L.nnz, levels)
    if klass == "shallow":
        ok = levels < DEEP_LEVELS
    elif klass == "deep":
        ok = levels >= DEEP_LEVELS and gran <= SKINNY_GRANULARITY
    else:
        raise ValueError(f"unknown class {klass!r}")
    if not ok:
        raise ValueError(
            f"matrix is not {klass}: {levels} levels, granularity {gran:.3f}"
        )
    return levels, gran


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------


def _reference(L, B: np.ndarray) -> np.ndarray:
    A = sp.csr_matrix((L.values, L.col_idx, L.row_ptr), shape=L.shape)
    return spsolve_triangular(A, B, lower=True)


def answer_ok(x: np.ndarray, ref: np.ndarray) -> bool:
    """Same shape as the reference, and within :data:`ANSWER_RTOL` of it
    relative to its largest entry."""
    if x.shape != ref.shape:
        return False
    scale = max(float(np.max(np.abs(ref))), 1.0)
    return float(np.max(np.abs(x - ref))) <= ANSWER_RTOL * scale


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _generate(spec: Spec, seed: int):
    return generate(spec.domain, spec.n_rows, seed=seed, **dict(spec.params))


def _rhs(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    if k == 1:
        return rng.standard_normal(n)
    return rng.standard_normal((n, k))


def _pool(L, name: str, rng: np.random.Generator, count: int, k: int) -> list:
    out = []
    for _ in range(count):
        b = _rhs(rng, L.n_rows, k)
        out.append(Request(name, b, _reference(L, b)))
    return out


def _place(spec: Spec, idx: int, seed: int, ring: HashRing) -> dict:
    """One instance of ``spec`` per ring node: node -> matrix.

    The matrix seed sequence is drawn from the workload seed; the first
    candidate the ring places on a still-empty node is taken, so the
    seed changes the matrices but never the shard balance.
    """
    rng = np.random.default_rng([seed, idx])
    placed: dict = {}
    for _ in range(256):
        mseed = int(rng.integers(2**31))
        L = _generate(spec, mseed)
        node = ring.node_for(matrix_fingerprint(L))
        if node not in placed:
            placed[node] = L
            if len(placed) == len(ring):
                return placed
    raise RuntimeError(f"could not place {spec.label} on every node")


def build_workload(name: str, seed: int) -> Workload:
    """Materialize workload ``name`` for ``seed`` (deterministic)."""
    try:
        shape = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    cluster = shape.target == "cluster"
    ring = HashRing(CLUSTER_NODES)
    matrices: dict = {}
    label_of: dict = {}
    placement: dict = {}
    names: dict = {}  # (owner node or None, spec index) -> matrix names
    for idx, spec in enumerate(shape.specs):
        if cluster:
            group = {
                node: [L] for node, L in _place(spec, idx, seed, ring).items()
            }
        else:
            rng = np.random.default_rng([seed, idx])
            group = {
                None: [
                    _generate(spec, int(rng.integers(2**31)))
                    for _ in range(shape.instances)
                ]
            }
        for owner, mats in group.items():
            for inst, L in enumerate(mats):
                check_class(L, spec.klass)
                mname = spec.label
                if owner is not None:
                    mname += f"@{owner}"
                    placement[mname] = owner
                if len(mats) > 1:
                    mname += f"#{inst}"
                matrices[mname] = L
                label_of[mname] = spec.label
                names.setdefault((owner, idx), []).append(mname)
    streams = []
    for client in range(shape.clients):
        owner = CLUSTER_NODES[client] if cluster else None
        rng = np.random.default_rng([seed, 1000 + client])
        pools = {
            idx: [
                _pool(matrices[m], m, rng, shape.rhs_per_matrix, shape.k)
                for m in names[(owner, idx)]
            ]
            for idx in sorted(set(shape.cycle))
        }
        # instances of a spec take turns; each instance cycles its pool
        used = dict.fromkeys(pools, 0)
        stream = []
        for _ in range(shape.rhs_per_matrix * shape.instances):
            for idx in shape.cycle:
                n, insts = used[idx], pools[idx]
                used[idx] += 1
                stream.append(
                    insts[n % len(insts)][
                        (n // len(insts)) % shape.rhs_per_matrix
                    ]
                )
        streams.append(stream)
    return Workload(
        name=name,
        target=shape.target,
        matrices=matrices,
        label_of=label_of,
        streams=streams,
        slice_len=shape.slice_len,
        setup_reps=shape.setup_reps,
        window=shape.window,
        placement=placement,
    )

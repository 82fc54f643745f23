"""Property tests: every parallel solver agrees with Algorithm 1.

Hypothesis generates arbitrary unit-lower-triangular systems; the serial
reference is the ground truth (itself cross-checked against scipy in
test_reference).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.gpu.device import DeviceSpec
from repro.solvers import (
    AdaptiveCapelliniSolver,
    LevelSetSolver,
    SyncFreeSolver,
    TwoPhaseCapelliniSolver,
    WritingFirstCapelliniSolver,
)
from repro.solvers.reference import serial_sptrsv
from repro.sparse.triangular import lower_triangular_system

from tests.conftest import random_unit_lower

# a small fast device (warp size 4 keeps intra-warp cases frequent)
DEV = DeviceSpec(
    name="PropDev", sm_count=2, warp_size=4, max_resident_warps=4,
    issue_width=2, clock_ghz=1.0, dram_latency_cycles=8,
)

SOLVERS = [
    LevelSetSolver,
    SyncFreeSolver,
    TwoPhaseCapelliniSolver,
    WritingFirstCapelliniSolver,
    AdaptiveCapelliniSolver,
]


@pytest.mark.parametrize("solver_cls", SOLVERS)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n=st.integers(1, 40),
    density=st.floats(0.0, 0.5),
    seed=st.integers(0, 99_999),
)
def test_agrees_with_serial_reference(solver_cls, n, density, seed):
    L = random_unit_lower(n, density, seed=seed)
    system = lower_triangular_system(L, rng=np.random.default_rng(seed))
    expected = serial_sptrsv(L, system.b)
    result = solver_cls().solve(L, system.b, device=DEV)
    np.testing.assert_allclose(result.x, expected, rtol=1e-9, atol=1e-12)


@settings(
    max_examples=15,
    deadline=None,
)
@given(
    n=st.integers(1, 30),
    density=st.floats(0.0, 0.5),
    seed=st.integers(0, 99_999),
    threshold=st.floats(0.5, 32.0),
)
def test_adaptive_threshold_never_affects_correctness(
    n, density, seed, threshold
):
    L = random_unit_lower(n, density, seed=seed)
    system = lower_triangular_system(L, rng=np.random.default_rng(seed))
    result = AdaptiveCapelliniSolver(threshold=threshold).solve(
        L, system.b, device=DEV
    )
    np.testing.assert_allclose(result.x, system.x_true, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# the fast-lane plans on adversarial factors
# ---------------------------------------------------------------------------

#: Diagonal / off-diagonal magnitude exponents per scaling mode: unit
#: scale, tiny diagonals, and a 1e±12 dynamic range on every entry.
_SCALES = {
    "unit": ((0, 0), (0, 0)),
    "tiny-diagonal": ((-300, -6), (0, 0)),
    "dynamic-range": ((-12, 12), (-12, 12)),
}


def _adversarial(n, structure, scale, seed):
    """A lower-triangular factor with an explicit nonzero diagonal:
    ``random`` sparse, a ``chain`` (one dependency per row, as deep as
    it gets) or ``diagonal`` (a single level), with entries rescaled
    by random powers of ten per ``scale``."""
    from repro.sparse.convert import dense_to_csr

    rng = np.random.default_rng(seed)
    dense = np.eye(n)
    if structure == "random":
        dense += np.tril(rng.random((n, n)) < 0.3, -1)
    elif structure == "chain":
        dense[np.arange(1, n), np.arange(n - 1)] = 1.0
    (d_lo, d_hi), (o_lo, o_hi) = _SCALES[scale]
    off = np.tril(dense, -1) * 10.0 ** rng.uniform(o_lo, o_hi, (n, n))
    off *= rng.choice([-1.0, 1.0], (n, n))
    diag = 10.0 ** rng.uniform(d_lo, d_hi, n) * rng.choice([-1.0, 1.0], n)
    return dense_to_csr(off + np.diag(diag))


def _condition_scaled_error(L, x, b):
    """Componentwise error bound every backward-stable triangular solve
    meets: ``4 n eps M(L)^-1 (|L| |x| + |b|)``, with ``M(L)`` the
    comparison matrix (``|diag|``, ``-|off-diagonal|``).  On a
    well-conditioned component it is a relative tolerance of
    ``~8 n eps``; it grows only where the factor amplifies rounding."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve_triangular

    from repro.sparse.convert import csr_to_scipy

    A = abs(csr_to_scipy(L))
    M = sp.diags(A.diagonal()) - sp.tril(A, -1)
    rhs = A @ np.abs(x) + np.abs(b)
    y = spsolve_triangular(sp.csr_matrix(M), rhs, lower=True)
    return 4 * L.n_rows * np.finfo(np.float64).eps * y


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    structure=st.sampled_from(["random", "chain", "diagonal"]),
    scale=st.sampled_from(sorted(_SCALES)),
    seed=st.integers(0, 99_999),
)
def test_plans_agree_with_scipy_or_engine_rejects(n, structure, scale, seed):
    """Each fast-lane plan, and the simulator lane's solver ladder,
    agrees with SciPy's ``spsolve_triangular`` to a relative tolerance
    scaled by the componentwise condition number, or the engine refuses
    the request with a typed error — never a silent wrong answer.  A
    refusal must be justified: the answer is non-finite and the
    reference or the error bound overflows too, which a unit-scale
    factor never does."""
    import asyncio

    from scipy.sparse.linalg import spsolve_triangular

    from repro.errors import NonFiniteAnswerError
    from repro.serve import SolveEngine
    from repro.sparse.convert import csr_to_scipy

    L = _adversarial(n, structure, scale, seed)
    b = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    with np.errstate(all="ignore"):
        ref = spsolve_triangular(csr_to_scipy(L), b, lower=True)
        bound = _condition_scaled_error(L, ref, b)

    async def serve(lane):
        execution = "sim" if lane == "sim" else "host"
        async with SolveEngine(execution=execution) as engine:
            key = engine.register(L)
            if execution == "host":
                engine.registry.set_lane_hint(key, lane)
            try:
                return (await engine.solve(key, b)).x
            except NonFiniteAnswerError:
                return None  # typed rejection of an overflowing solve

    for lane in ("level", "sequential", "sim"):
        with np.errstate(all="ignore"):
            x = asyncio.run(serve(lane))
        if x is None:
            assert scale != "unit", (lane, "rejected a unit-scale solve")
            assert not np.isfinite(bound).all(), (lane, "unjustified")
            continue
        assert np.isfinite(ref).all(), (lane, "served an overflow")
        assert np.all(np.abs(x - ref) <= bound), lane

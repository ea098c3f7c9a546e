"""The even-odd form's compiled entries on several CPUs are the same
entries on one, bit for bit.

``repro_schur_apply`` / ``_rhs`` / ``_solution`` run each call as phases
of independent work items — the site-vector blocks of a field, the
stencil's walk units — split between the calling thread and one helper
thread per further CPU the process may use, each helper bound to a CPU of
its own, with a barrier between a hop and the phase that reads its result.
Nothing in the library turns that off; the process's affinity mask decides
it.  So the reference here is the same calls in a child process restricted
to one CPU (``os.sched_setaffinity``), where no helper is started: the
apply, ``prepare_rhs``, ``reconstruct`` and ``reconstruct_residual`` must
give the same bytes (NaNs by position).  Half-X rows of odd length, rows of
one site, antiperiodic T, 4x4x4x8 and 8^4; no batch axis, batches of 3 and
12; complex128 fields and complex64 ones on the complex128 operator; a
dense fill and one with NaNs; from one caller and from four at once.  The
results cross the pipe as digests of their bytes, not as arrays.  A
``processes`` solve run after threaded calls in the same parent checks that
no thread outlives a call (the rank workers are forked).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from _c_grid import field, needs_c
from repro import GaugeField, Geometry, ProcessGrid, SolveRequest, SpinorField, solve
from repro.dirac import BoundarySpec, EvenOddPreconditionedWilson, WilsonCloverOperator
from repro.util.counters import tally

pytestmark = [
    needs_c,
    pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2,
        reason="fewer than 2 CPUs allowed: the even-odd entries start no helper",
    ),
]

#: (X, Y, Z, T) and the boundary: half-X rows of 3 and 1 sites, whole
#: site-vector blocks with antiperiodic T, and the benchmark's lattice.
LATTICES = {
    "6x4x2x4": ((6, 4, 2, 4), ("periodic",) * 3 + ("antiperiodic",)),
    "2x4x4x2": ((2, 4, 4, 2), ("antiperiodic", "periodic", "zero", "periodic")),
    "4x4x4x8": ((4, 4, 4, 8), ("periodic",) * 3 + ("antiperiodic",)),
    "8^4": ((8, 8, 8, 8), ("periodic",) * 4),
}
#: Right-hand sides: none on a batch axis, then batches of 3 and 12.
BATCHES = (1, 3, 12)
DTYPES = {"c128": np.complex128, "c64": np.complex64}
FILLS = ("dense", "nan")
ENTRIES = ("apply", "prepare_rhs", "reconstruct", "reconstruct_residual")

_operators = {}


def operator(lattice):
    """The complex128 Schur operator of ``lattice``, built once a process."""
    if lattice not in _operators:
        dims, conditions = LATTICES[lattice]
        gauge = GaugeField.weak(Geometry(dims), epsilon=0.3, rng=sum(dims))
        eo = EvenOddPreconditionedWilson(WilsonCloverOperator(
            gauge, mass=0.05, csw=1.2, boundary=BoundarySpec(conditions),
            kernel="c",
        ))
        assert eo._schur is not None, "the c tier bound nothing"
        _operators[lattice] = eo
    return _operators[lattice]


def cases():
    for lattice in LATTICES:
        for batch in BATCHES:
            for dtype in DTYPES:
                for fill in FILLS:
                    yield lattice, batch, dtype, fill


def digest(a) -> str:
    """The dtype, shape and bytes of ``a``, NaNs by position (as
    ``_c_grid.same_bits`` compares)."""
    parts = np.ascontiguousarray(a).view(a.real.dtype)
    nan = np.isnan(parts)
    h = hashlib.sha256(f"{a.dtype} {a.shape}".encode())
    h.update(nan.tobytes())
    h.update(np.where(nan, 0, parts).tobytes())
    return h.hexdigest()


def calls(case):
    """Each entry's outputs on the case's fields, as digests."""
    lattice, batch, dtype, fill = case
    eo = operator(lattice)
    rng = np.random.default_rng(len(lattice) + batch + len(dtype) + len(fill))
    lead = (batch,) if batch > 1 else ()
    spin_color = (4, 3)
    x = field(rng, lead + eo.geometry.shape + spin_color, DTYPES[dtype], fill)
    b = field(rng, lead + eo.wilson.geometry.shape + spin_color, DTYPES[dtype], fill)
    bound = eo._schur
    with np.errstate(invalid="ignore", over="ignore"):
        out = {
            "apply": (bound.apply(x, None),),
            "prepare_rhs": (bound.rhs(b),),
            "reconstruct": bound.solution(x, b, False)[:1],
            "reconstruct_residual": bound.solution(x, b, True),
        }
    assert all(v is not None for got in out.values() for v in got), "an entry declined"
    return {entry: tuple(map(digest, got)) for entry, got in out.items()}


def run_all():
    return {case: calls(case) for case in cases()}


def _on_one_cpu(conn):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    conn.send(run_all())
    conn.close()


@pytest.fixture(scope="module")
def both():
    threaded = run_all()
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_on_one_cpu, args=(child,))
    worker.start()
    one_cpu = parent.recv()
    worker.join(timeout=120)
    assert worker.exitcode == 0
    return threaded, one_cpu


@pytest.mark.parametrize(
    "case", list(cases()), ids=lambda c: "-".join(map(str, c))
)
def test_threaded_is_one_cpu(both, case):
    threaded, one_cpu = both
    for entry in ENTRIES:
        assert threaded[case][entry] == one_cpu[case][entry], entry


def test_concurrent_callers(both):
    """Four Python threads each running the threaded entries at once, more
    threads than CPUs in all: every call has the one-CPU bits."""
    case = ("8^4", 3, "c64", "nan")
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(calls, case) for _ in range(12)]
        results = [f.result(timeout=120) for f in futures]
    for got in results:
        assert got == both[1][case]


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no per-thread listing"
)
def test_no_thread_outlives_the_call(both):
    """The helpers of a call are joined before it returns."""
    before = set(os.listdir("/proc/self/task"))
    calls(("8^4", 12, "c128", "dense"))
    assert set(os.listdir("/proc/self/task")) <= before


def test_leaves_tile_the_call():
    """The three leaves one threaded apply records -- each its share of the
    summed laps of every thread that ran it -- sum to no more than the
    call's wall time."""
    eo = operator("8^4")
    x = field(np.random.default_rng(0), (3,) + eo.geometry.shape + (4, 3),
              np.complex128, "dense")
    leaves = {"wilson_rounding", "wilson_dslash", "wilson_site_diagonal"}
    for _ in range(3):
        with tally() as t:
            start = time.perf_counter()
            eo.apply(x)
            wall = time.perf_counter() - start
        assert set(t.kernel_seconds) == leaves
        assert 0 < sum(t.kernel_seconds.values()) <= wall


def test_processes_solve_after_threaded_calls(both):
    """Forked rank workers after the parent ran threaded Schur calls: the
    GCR-DD solve finishes, and with the bits of the sequential backend."""
    geometry = Geometry((4, 4, 4, 4))
    gauge = GaugeField.weak(geometry, epsilon=0.25, rng=0)
    rhs = SpinorField.random(geometry, rng=1).data

    def run(backend):
        return solve(SolveRequest(
            operator="wilson_clover", gauge=gauge, rhs=rhs, mass=0.1, csw=1.0,
            tol=1e-6, method="gcr-dd", grid=ProcessGrid((1, 1, 1, 2)),
            backend=backend, precond="auto",
        ))

    forked, sequential = run("processes"), run("sequential")
    assert forked.converged
    assert forked.x.tobytes() == sequential.x.tobytes()

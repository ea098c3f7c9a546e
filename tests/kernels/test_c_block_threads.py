"""The compiled block solve on several CPUs is the block solve on one, bit
for bit.

``repro_wilson_mr`` runs a stack's block lanes side by side: the caller and
one helper thread per further CPU the process may use, each helper bound to
a CPU of its own, each thread running whole lanes.  Nothing in the library
turns that off; the process's affinity mask decides it.  So the reference
here is the same call in a child process restricted to one CPU
(``os.sched_setaffinity``), where no helper is started: ``z``, the per-step
counts and the per-row norms must be the same bytes.  Stacks of 1, 2, 3 and
5 lanes, a batch or none, half / single / double storage (complex64 and
complex128), a lane that leaves at step 0 and a NaN lane beside finite
ones, from one caller and from four at once.  A ``processes`` solve run
after threaded calls in the same parent checks that no thread outlives a
call (the rank workers are forked).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from _c_grid import needs_c, same_bits
from repro import GaugeField, Geometry, ProcessGrid, SolveRequest, SpinorField, solve
from repro.dirac import PHYSICAL, WilsonCloverOperator
from repro.multigpu import BlockPartition
from repro.precision import DOUBLE, HALF, SINGLE

pytestmark = [
    needs_c,
    pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2,
        reason="fewer than 2 CPUs allowed: the block solve starts no helper",
    ),
]

#: lanes -> (global dims (X, Y, Z, T), process grid): blocks of 4 x 4 x 4 x 2.
LANES = {
    1: ((4, 4, 4, 2), (1, 1, 1, 1)),
    2: ((4, 4, 4, 4), (1, 1, 1, 2)),
    3: ((4, 4, 4, 6), (1, 1, 1, 3)),
    5: ((4, 4, 4, 10), (1, 1, 1, 5)),
}
STORAGES = {"half": HALF, "single": SINGLE, "double": DOUBLE}
#: What a lane's residual holds: random, a block of zeros beside random
#: ones (it leaves at step 0), a NaN in one block.
FILLS = ("random", "zero-lane", "nan-lane")
STEPS, OMEGA = 6, 0.9


def cases():
    for lanes in LANES:
        for batch in (0, 3):
            for storage in STORAGES:
                yield lanes, batch, storage, "random"
    for lanes in (2, 5):
        for fill in FILLS[1:]:
            yield lanes, 3, "half", fill
            yield lanes, 0, "double", fill


def stack_of(lanes, batch, storage, fill):
    """The stored block operator and the stacked residual of one case."""
    dims, grid = LANES[lanes]
    geometry = Geometry(dims)
    op = WilsonCloverOperator(
        GaugeField.weak(geometry, epsilon=0.3, rng=lanes), mass=0.1, csw=1.0,
        boundary=PHYSICAL, kernel="c",
    )
    part = BlockPartition(geometry, ProcessGrid(grid))
    precision = STORAGES[storage]
    dtype = np.complex128 if precision is DOUBLE else np.complex64
    fields = [SpinorField.random(geometry, rng=7 + i).data for i in range(batch or 1)]
    r = part.stack((np.stack(fields) if batch else fields[0]).astype(dtype), bool(batch))
    lane = (slice(None),) * bool(batch) + (lanes - 1,)
    if fill == "zero-lane":
        r[lane] = 0
    elif fill == "nan-lane":
        r[lane + (0, 1, 1, 2, 0, 1)] = np.nan
    return op.restrict_to_blocks(part, precision=precision), r


def block_call(block, r):
    """``block.block_mr`` with the norms the call computes kept: the
    compiled entry driven as ``CBackend.wilson_block_mr`` drives it."""
    backend = block._backend
    links, batched = block._soa_links(), bool(block.field_lead(r))
    library = backend._matrix(
        links, block._chiral, r, batched, block.boundary, block.storage
    )
    assert library is not None, "the compiled entry declined"
    u, a, spins, phases, *extents, codes, half = backend._matrix_operands(
        links, block._chiral, r, batched, block.boundary, block.storage
    )
    z = np.empty_like(r)
    counts = np.empty(2 * STEPS, np.int64)
    norms = np.full(2 * extents[0] * extents[1], -1.0)
    with np.errstate(invalid="ignore"):
        failed = library.mr[links.dtype.name](
            r.ctypes.data, u, a, block.diagonal_coefficient, z.ctypes.data,
            half, True, spins, phases, *extents, codes, STEPS, OMEGA,
            counts.ctypes.data, norms.ctypes.data, None, None,  # its own team
        )
    assert not failed
    return z, counts, norms


def run_all():
    return {case: block_call(*stack_of(*case)) for case in cases()}


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
    worker.join(timeout=60)
    assert worker.exitcode == 0
    return threaded, one_cpu


@pytest.mark.parametrize(
    "case", list(cases()), ids=lambda c: "-".join(map(str, c))
)
def test_threaded_is_one_cpu(both, case):
    threaded, one_cpu = both
    (z, counts, norms), (ze, ce, ne) = threaded[case], one_cpu[case]
    assert same_bits(z, ze)
    assert counts.tolist() == ce.tolist()
    assert same_bits(norms, ne)
    lanes, batch, _, fill = case
    assert counts[0] == lanes
    if fill != "random":
        # the odd lane leaves at step 0 and its iterate stays zero
        assert counts[STEPS] == lanes - 1
        lane = (slice(None),) * bool(batch) + (lanes - 1,)
        assert not z[lane].any()


def test_concurrent_callers(both):
    """Four Python threads each running threaded block solves at once,
    more threads than CPUs in all: every call has the one-CPU bits."""
    case = (5, 3, "half", "nan-lane")
    block, r = stack_of(*case)
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(block_call, block, r) for _ in range(12)]
        results = [f.result(timeout=120) for f in futures]
    z, counts, norms = both[1][case]
    for zt, ct, nt in results:
        assert same_bits(zt, z) and ct.tolist() == counts.tolist()
        assert same_bits(nt, norms)


def test_processes_solve_after_threaded_calls(both):
    """Forked rank workers after the parent ran threaded block solves: the
    solve finishes, and with the bits of the sequential backend."""
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

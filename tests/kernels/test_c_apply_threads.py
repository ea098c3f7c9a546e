"""The whole compiled Wilson-clover matrix on several CPUs is the same call
on one, bit for bit.

``repro_wilson_apply`` runs a call as two phases of independent work
items -- the site-vector blocks of the field on the way in, then the
stencil's walk units with the site-diagonal tail and the way out behind
them -- split between the calling thread and one helper thread per further
CPU the process may use, each helper bound to a CPU of its own: the
solve's team inside ``solve()``, one of the call's own outside it.
Nothing in the library turns that off; the process's affinity mask
decides it.  So the reference here is the same calls in a child process
restricted to one CPU (``os.sched_setaffinity``), where no helper is
started: the results must be the same bytes (NaNs by position).  Lattices
with rows of 3 and of 1 site and antiperiodic T, and 8^4; no batch axis,
batches of 3 and 12, and a lane axis; complex128 fields and complex64
ones on the complex128 operator, and the half-stored complex64 operator;
a dense fill and one with NaNs; from one caller and from four at once.
The results cross the pipe as digests of their bytes, not as arrays.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from _c_grid import field, hermitian, needs_c, random_links
from repro import GaugeField, Geometry
from repro.dirac import BoundarySpec, WilsonCloverOperator
from repro.kernels import get_backend
from repro.precision import HALF
from repro.util.counters import tally

pytestmark = [
    needs_c,
    pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2,
        reason="fewer than 2 CPUs allowed: the whole matrix starts no helper",
    ),
]

#: (X, Y, Z, T), the lane axis (0: none) and the boundary: rows of 3 and of
#: 1 site with antiperiodic T, 8^4, and 4x4x4x2 as a stack of 2 lanes.
LATTICES = {
    "3x4x2x4": ((3, 4, 2, 4), 0, ("periodic",) * 3 + ("antiperiodic",)),
    "1x4x4x2": ((1, 4, 4, 2), 0, ("periodic", "periodic", "zero", "antiperiodic")),
    "8^4": ((8, 8, 8, 8), 0, ("periodic",) * 4),
    "2x4x4x4x2": ((4, 4, 4, 2), 2, ("periodic",) * 3 + ("antiperiodic",)),
}
#: Right-hand sides: none on a batch axis, then batches of 3 and 12.
BATCHES = (0, 3, 12)
#: The operator's dtype, the field's, and the storage rounding.
MODES = {
    "c128": (np.complex128, np.complex128, None),
    "c64-on-c128": (np.complex128, np.complex64, None),
    "half": (np.complex64, np.complex64, HALF),
}
FILLS = ("dense", "nan")


def cases():
    for lattice in LATTICES:
        for batch in BATCHES:
            for mode in MODES:
                for fill in FILLS:
                    yield lattice, batch, mode, fill


def digest(a) -> str:
    """The dtype, shape and bytes of ``a``, NaNs by position."""
    parts = np.ascontiguousarray(a).view(a.real.dtype)
    nan = np.isnan(parts)
    h = hashlib.sha256(f"{a.dtype} {a.shape}".encode())
    h.update(nan.tobytes())
    h.update(np.where(nan, 0, parts).tobytes())
    return h.hexdigest()


def operands(lattice, dtype):
    """Random links and a packed Hermitian clover term on ``lattice`` (the
    same in every process: seeded by the lattice)."""
    dims, lanes, conditions = LATTICES[lattice]
    rng = np.random.default_rng(sum(dims) + lanes)
    axes = ((lanes,) if lanes else ()) + tuple(reversed(dims))
    links = random_links(rng, axes, dtype)
    blocks = hermitian(rng, axes, dtype)
    packed = get_backend("c").clover_pack(lambda c: blocks[c], axes, dtype)
    return links, packed, BoundarySpec(conditions), axes


def call(case, seconds=None):
    """The compiled whole matrix on the case's field, as its digest."""
    lattice, batch, mode, fill = case
    op_dtype, x_dtype, rounding = MODES[mode]
    links, packed, boundary, axes = operands(lattice, op_dtype)
    rng = np.random.default_rng(batch + len(mode) + len(fill))
    x = field(rng, ((batch,) if batch else ()) + axes + (4, 3), x_dtype, fill)
    with np.errstate(invalid="ignore", over="ignore"):
        out = get_backend("c").wilson_apply_sites(
            links, packed, 4.1, x, bool(batch), boundary, rounding, seconds
        )
    assert out is not None, "the compiled entry declined the case"
    assert out.dtype == x.dtype
    return digest(out)


def run_all():
    return {case: call(case) for case in cases()}


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


@pytest.mark.parametrize("case", list(cases()), ids=lambda c: "-".join(map(str, c)))
def test_threaded_is_one_cpu(both, case):
    threaded, one_cpu = both
    assert threaded[case] == one_cpu[case]


def test_concurrent_callers(both):
    """Four Python threads each running threaded applies at once, more
    threads than CPUs in all: every call has the one-CPU bits."""
    picked = [("8^4", 3, "c64-on-c128", "nan"), ("8^4", 12, "half", "dense"),
              ("3x4x2x4", 12, "c128", "dense"), ("2x4x4x4x2", 3, "half", "nan")]
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(call, case) for case in picked * 3]
        results = [f.result(timeout=120) for f in futures]
    for case, got in zip(picked * 3, results):
        assert got == both[1][case]


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no per-thread listing"
)
def test_no_thread_outlives_a_bare_call(both):
    """Outside a solve a call starts its own helpers and joins them before
    it returns."""
    before = set(os.listdir("/proc/self/task"))
    call(("8^4", 12, "c128", "dense"))
    assert set(os.listdir("/proc/self/task")) <= before


def test_leaves_tile_the_call():
    """The three leaves one threaded apply records -- each its share of the
    summed laps of every thread that ran it -- sum to no more than the
    call's wall time, with the half rounding and without it."""
    op = WilsonCloverOperator(
        GaugeField.weak(Geometry((8, 8, 8, 8)), epsilon=0.3, rng=0),
        mass=0.1, csw=1.0, kernel="c",
    )
    x = field(np.random.default_rng(0), (3,) + op.geometry.shape + (4, 3),
              np.complex128, "dense")
    leaves = {"wilson_rounding", "wilson_dslash", "wilson_site_diagonal"}
    for apply, y in ((op.apply, x), (op.stored(HALF).apply, x.astype(np.complex64))):
        for _ in range(3):
            with tally() as t:
                start = time.perf_counter()
                apply(y)
                wall = time.perf_counter() - start
            assert set(t.kernel_seconds) == leaves
            assert 0 < sum(t.kernel_seconds.values()) <= wall

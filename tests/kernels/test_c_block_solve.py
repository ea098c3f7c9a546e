"""The Schwarz block solve in one compiled call against the NumPy block
solve, bit for bit.

``schwarz_block_solve`` on a ``kernel="c"`` stack is ONE call of
``wilson_hop.c``'s ``repro_wilson_mr``; the same stack with that call set
aside runs the Python loop on the compiled matrix, and a ``kernel="numpy"``
stack the Python loop on the NumPy body.  All three must give the same
bytes and the same ledger — operator applications, local reductions, flops,
bytes — over storage x lanes x right-hand sides x extents x sources.

The reductions' order itself is held to a literal loop over (row, site,
component) in Python floats.  That part needs no compiler: a host without
one checks that the NumPy copy is the order the compiled copy is held to.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _c_grid import needs_c, same_bits
from repro import GaugeField, Geometry, ProcessGrid, SpinorField
from repro.dd import OverlappingSchwarzPreconditioner
from repro.dirac import PHYSICAL, WilsonCloverOperator
from repro.kernels import get_backend
from repro.linalg import blas
from repro.multigpu import BlockPartition
from repro.precision import DOUBLE, HALF, SINGLE
from repro.precond import schwarz_block_solve
from repro.solvers.space import ArraySpace
from repro.util.counters import tally

LEDGER = (
    "operator_applications", "reductions", "local_reductions", "flops",
    "bytes_moved",
)
STORAGES = {"half": HALF, "single": SINGLE, "double": DOUBLE, "none": None}


# ----------------------------------------------------------------------
# the order, spelled out
# ----------------------------------------------------------------------
def stated_order(x, y):
    """``blas.lane_reduce`` by the words of its docstring, one Python float
    add at a time: ``x``, ``y`` are ``(rows, sites, components)``."""
    out = []
    for xr, yr in zip(x, y):
        slots = [None] * 8
        for s, (xs, ys) in enumerate(zip(xr, yr)):
            site = None
            for a, b in zip(xs, ys):
                ar, ai, br, bi = (float(v) for v in (a.real, a.imag, b.real, b.imag))
                term = (ar * br + ai * bi, ar * bi - ai * br)
                site = term if site is None else (site[0] + term[0], site[1] + term[1])
            t = s % 8
            held = slots[t]
            slots[t] = site if held is None else (held[0] + site[0], held[1] + site[1])
        slots = [(0.0, 0.0) if v is None else v for v in slots]
        while len(slots) > 1:
            half = len(slots) // 2
            slots = [(p[0] + q[0], p[1] + q[1]) for p, q in zip(slots[:half], slots[half:])]
        out.append(slots[0])
    return out


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128], ids=["c64", "c128"])
@pytest.mark.parametrize("sites", [1, 5, 8, 13, 24])
@pytest.mark.parametrize("components", [12, 3])
def test_lane_reduce_is_the_stated_order(dtype, sites, components):
    """Random rows, a row of ``-0.0`` against ones (whose sum keeps its
    sign only where every slot holds a site), and exact cancellations."""
    rng = np.random.default_rng(sites * components)
    shape = (4, sites, components)
    x, y = (
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
        for _ in "xy"
    )
    x[1] = complex(-0.0, -0.0)
    y[1] = 1.0
    x[2, :, 1:] = x[2, :, :1]
    y[2, :, 1:] = -y[2, :, :1]
    norms = blas.lane_reduce(x, None, site_axes=1)
    dots = blas.lane_reduce(x, y, site_axes=1)
    expected = stated_order(x, y)
    assert norms.dtype == np.float64 and dots.dtype == np.complex128
    assert norms.tobytes() == np.array(
        [re for re, _ in stated_order(x, x)]
    ).tobytes()
    assert dots.tobytes() == np.array([complex(*p) for p in expected]).tobytes()
    # the layout does not enter: the same rows, Wilson-shaped
    if components == 12 and sites == 24:
        wilson = x.reshape(4, 2, 3, 2, 2, 4, 3)
        assert blas.lane_reduce(wilson, None).tobytes() == norms.tobytes()


# ----------------------------------------------------------------------
# the compiled block solve == the NumPy block solve
# ----------------------------------------------------------------------
#: (global dims (X, Y, Z, T), process grid): four lanes of 4 x 4 x 2 x 4
#: blocks; sixteen of 4 x 4 x 2 x 2; two of 6 x 6 x 8 x 2, whose walk
#: units are single planes of 36 sites, so most start inside a site
#: vector (the per-site loop shape).  (Even extents make every volume a
#: multiple of W: the partial last vector is the order test's case.)
SHAPES = {
    "4-lanes": ((4, 4, 4, 8), (1, 1, 2, 2)),
    "16-lanes": ((4, 4, 8, 8), (1, 1, 4, 4)),
    "planes-of-36": ((6, 6, 8, 4), (1, 1, 1, 2)),
}


def operators(dims, seed=3):
    gauge = GaugeField.weak(Geometry(dims), epsilon=0.3, rng=seed)
    return {
        kernel: WilsonCloverOperator(
            gauge, mass=0.1, csw=1.0, boundary=PHYSICAL, kernel=kernel
        )
        for kernel in ("c", "numpy")
    }


def residual(geometry, batch, dtype, seed=5):
    fields = [SpinorField.random(geometry, rng=seed + i).data for i in range(batch or 1)]
    return (np.stack(fields) if batch else fields[0]).astype(dtype)


def solve(block_op, r, precision, steps=5):
    with tally() as t:
        z = schwarz_block_solve(
            block_op, r, steps=steps, omega=0.9, precision=precision,
            space=ArraySpace(site_axes=2),
        )
    return z, t


def assert_same(got, expected):
    (z, t), (ze, te) = got, expected
    assert same_bits(z, ze)
    for name in LEDGER:
        assert getattr(t, name) == getattr(te, name), name


def three_ways(monkeypatch, ops, make_block, r, precision):
    """The compiled call, the Python loop on the same compiled matrix, the
    Python loop on the NumPy body: all one result."""
    compiled = solve(make_block(ops["c"]), r, precision)
    assert "block_mr_step" in compiled[1].kernel_seconds, "the C entry declined"
    with monkeypatch.context() as m:
        m.setattr(type(get_backend("c")), "wilson_block_mr", lambda self, *a: None)
        assert_same(compiled, solve(make_block(ops["c"]), r, precision))
    assert_same(compiled, solve(make_block(ops["numpy"]), r, precision))
    return compiled[0]


def dtype_of(precision):
    return np.complex128 if precision in (DOUBLE, None) else np.complex64


@needs_c
@pytest.mark.parametrize("batch", [0, 1, 3])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_lane_stack(monkeypatch, storage, shape, batch):
    dims, grid = SHAPES[shape]
    ops = operators(dims)
    part = BlockPartition(ops["c"].geometry, ProcessGrid(grid))
    precision = STORAGES[storage]
    r = part.stack(residual(part.geometry, batch, dtype_of(precision)), bool(batch))
    three_ways(
        monkeypatch, ops,
        lambda op: op.restrict_to_blocks(part, precision=precision), r, precision,
    )


@needs_c
@pytest.mark.parametrize("batch", [0, 3])
@pytest.mark.parametrize("storage", sorted(STORAGES))
def test_one_block_rank_local(monkeypatch, storage, batch):
    """The SPMD rank's case: one working-precision block, stored on entry."""
    ops = operators(SHAPES["4-lanes"][0])
    part = BlockPartition(ops["c"].geometry, ProcessGrid((1, 1, 2, 2)))
    precision = STORAGES[storage]
    r = residual(part.geometry, batch, dtype_of(precision))
    lead = (slice(None),) * bool(batch)
    r_loc = np.ascontiguousarray(r[lead + part.slices(2)])
    three_ways(
        monkeypatch, ops, lambda op: op.restrict_to_block(part, 2), r_loc, precision
    )


@needs_c
@pytest.mark.parametrize("batch", [0, 3])
def test_point_source_lanes_leave(monkeypatch, batch):
    """Three of four blocks are all-zero: they leave the stack at the first
    step, on both paths, with the same ledger."""
    ops = operators(SHAPES["4-lanes"][0])
    part = BlockPartition(ops["c"].geometry, ProcessGrid((1, 1, 2, 2)))
    r = np.zeros_like(residual(part.geometry, batch, np.complex64))
    r[(0,) * r.ndim] = 1.0
    stack = part.stack(r, bool(batch))
    z = three_ways(
        monkeypatch, ops, lambda op: op.restrict_to_blocks(part, precision=HALF),
        stack, HALF,
    )
    lanes = z[:, 1:] if batch else z[1:]
    assert not lanes.any()


@needs_c
def test_nan_lane_leaves_its_batch_mates_alone(monkeypatch):
    """A NaN in one block's residual: that lane leaves at once, on both
    paths, and every other lane has the bits it has without it."""
    ops = operators(SHAPES["4-lanes"][0])
    part = BlockPartition(ops["c"].geometry, ProcessGrid((1, 1, 2, 2)))
    r = part.stack(residual(part.geometry, 0, np.complex64))
    clean = solve(ops["c"].restrict_to_blocks(part, precision=HALF), r, HALF)[0]
    r[1, 0, 1, 2, 3, 0, 1] = np.nan
    with np.errstate(invalid="ignore"):
        z = three_ways(
            monkeypatch, ops,
            lambda op: op.restrict_to_blocks(part, precision=HALF), r, HALF,
        )
    assert not z[1].any()
    for lane in (0, 2, 3):
        assert z[lane].tobytes() == clean[lane].tobytes()


@needs_c
def test_ras_region_stack():
    """Restricted additive Schwarz: extended, wrapped regions as lanes."""
    ops = operators(SHAPES["4-lanes"][0])
    part = BlockPartition(ops["c"].geometry, ProcessGrid((1, 1, 2, 2)))
    r = residual(part.geometry, 0, np.complex64)
    results = {}
    for kernel, op in ops.items():
        with tally() as t:
            z = OverlappingSchwarzPreconditioner(
                op, part, overlap=1, mr_steps=4, omega=0.9, precision=HALF
            )(r)
        results[kernel] = z, t
    assert "block_mr_step" in results["c"][1].kernel_seconds
    assert_same(results["c"], results["numpy"])


@needs_c
@pytest.mark.parametrize("batch", [0, 3])
def test_leaves_tile_the_call(batch):
    """The leaves one compiled call records -- the matrix's three and the
    MR step's, each its share of the summed laps of every thread that ran
    lanes -- sum to no more than the call's wall time: the solve's
    unattributed fraction is computed against them."""
    ops = operators(SHAPES["16-lanes"][0])
    part = BlockPartition(ops["c"].geometry, ProcessGrid(SHAPES["16-lanes"][1]))
    block = ops["c"].restrict_to_blocks(part, precision=HALF)
    r = part.stack(residual(part.geometry, batch, np.complex64), bool(batch))
    leaves = {
        "wilson_rounding", "wilson_dslash", "wilson_site_diagonal",
        "block_mr_step",
    }
    for _ in range(3):
        with tally() as t:
            start = time.perf_counter()
            assert block.block_mr(r, 5, 0.9, True) is not None
            wall = time.perf_counter() - start
        assert set(t.kernel_seconds) == leaves
        assert 0 < sum(t.kernel_seconds.values()) <= wall

"""The lane-stacked Schwarz block solve against the per-block loop oracle
over the generated cross-product: process grid x lattice shape x block
precision x batch x operator family x random gauge and residual.  The
fast lane runs a deterministic subset (``tests/dd/test_block_lanes.py``)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import ProcessGrid
from repro.dd import AdditiveSchwarzPreconditioner, MultiSplittingPreconditioner
from repro.dd.overlapping import extended_blocks
from repro.dirac import NaiveStaggeredOperator, PHYSICAL, WilsonCloverOperator
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.lattice.geometry import stack_regions
from repro.multigpu import BlockPartition
from repro.precision import HALF, SINGLE
from repro.util.counters import tally

_spec = importlib.util.spec_from_file_location(
    "_block_loop_oracle",
    Path(__file__).parents[1] / "dd" / "_block_loop_oracle.py",
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

#: (dims, grid): 1, 2, 4 and 8 blocks, partitioned along every direction.
LAYOUTS = [
    ((4, 4, 4, 4), (1, 1, 1, 1)),
    ((4, 4, 4, 8), (1, 1, 1, 2)),
    ((8, 4, 4, 4), (2, 1, 1, 1)),
    ((4, 4, 8, 8), (1, 1, 2, 2)),
    ((4, 8, 4, 8), (1, 2, 1, 2)),
    ((4, 4, 8, 8), (2, 2, 2, 2)),
]
LEDGER = ("reductions", "local_reductions", "flops", "bytes_moved",
          "operator_applications")


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(
    layout=st.sampled_from(LAYOUTS),
    wilson=st.booleans(),
    precision=st.sampled_from([HALF, SINGLE, None]),
    batch=st.sampled_from([0, 0, 1, 3]),
    overlap=st.sampled_from([None, None, 0, 1]),
    point_source=st.booleans(),
    seed=st.integers(0, 10**6),
)
def test_lanes_are_the_block_loop(
    layout, wilson, precision, batch, overlap, point_source, seed
):
    dims, grid = layout
    geom = Geometry(dims)
    part = BlockPartition(geom, ProcessGrid(grid))
    gauge = GaugeField.weak(geom, epsilon=0.3, rng=seed)
    if wilson:
        op = WilsonCloverOperator(gauge, 0.1, 1.0, boundary=PHYSICAL)
    else:
        op = NaiveStaggeredOperator(gauge, 0.2, boundary=PHYSICAL)
    r = np.stack([
        SpinorField.random(geom, nspin=op.nspin, rng=seed + 1 + i).data
        for i in range(max(batch, 1))
    ])
    if point_source:
        r[:] = 0.0
        r[(0,) * r.ndim] = 1.0
    if not batch:
        r = r[0]
    kw = dict(omega=0.9, precision=precision)
    if overlap is None:
        lanes = AdditiveSchwarzPreconditioner(op, part, mr_steps=3, **kw)
        loop = lambda: oracle.schwarz(op, part, r, steps=3, **kw)  # noqa: E731
    else:
        lanes = MultiSplittingPreconditioner(
            op, part, overlap=overlap, mr_steps=3, **kw
        )
        loop = lambda: oracle.multisplit(  # noqa: E731
            op, part, r, overlap=overlap, steps=3, **kw
        )
    with tally() as t_lanes:
        z = lanes(r)
    with tally() as t_loop:
        expected = loop()
    assert z.dtype == expected.dtype
    assert np.array_equal(z, expected)
    for name in LEDGER:
        assert getattr(t_lanes, name) == getattr(t_loop, name), name


@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(
    layout=st.sampled_from(LAYOUTS),
    wilson=st.booleans(),
    precision=st.sampled_from([HALF, SINGLE]),
    batch=st.sampled_from([0, 0, 2]),
    overlap=st.sampled_from([0, 0, 1]),
    seed=st.integers(0, 10**6),
)
def test_stored_stack_is_the_stored_blocks(
    layout, wilson, precision, batch, overlap, seed
):
    """The storage contract on generated layouts: a stack built in the
    block precision, the working-precision stack stored afterwards and
    every region's own stored operator apply the same bits; against the
    rounding sandwich around the working-precision stack the generic
    storage (staggered) moves nothing and the packed Wilson-clover one
    stays inside the format's bound."""
    dims, grid = layout
    geom = Geometry(dims)
    part = BlockPartition(geom, ProcessGrid(grid))
    gauge = GaugeField.weak(geom, epsilon=0.3, rng=seed)
    if wilson:
        op = WilsonCloverOperator(gauge, 0.1, 1.0, boundary=PHYSICAL)
    else:
        op = NaiveStaggeredOperator(gauge, 0.2, boundary=PHYSICAL)
    site_axes = 2 if wilson else 1
    ext_dims, origins, built = extended_blocks(op, part, overlap, precision)
    working = extended_blocks(op, part, overlap)[2]
    assert built.storage is precision and working.storage is None
    r = np.stack([
        SpinorField.random(geom, nspin=op.nspin, rng=seed + 1 + i).data
        for i in range(max(batch, 1))
    ])
    x = stack_regions(r, geom, origins, ext_dims, lead=1)
    if not batch:
        x = x[0]
    got = built.apply(x)
    assert got.dtype == np.complex64
    assert np.array_equal(working.stored(precision).apply(x), got)
    partitioned = part.grid.partitioned_dims
    for lane, origin in enumerate(origins):
        one = oracle.region_operator(op, origin, ext_dims, partitioned)
        index = (slice(None),) * bool(batch) + (lane,)
        assert np.array_equal(one.stored(precision).apply(x[index]), got[index])
    sandwich = precision.convert(
        working.apply(precision.convert(x, site_axes)), site_axes
    )
    if wilson:
        bound = 2e-4 if precision is HALF else 5e-6
        assert np.linalg.norm(got - sandwich) <= bound * np.linalg.norm(sandwich)
    else:
        assert np.array_equal(got, sandwich)

"""Property-based tests of the partition / halo-exchange layer: for any
valid grid, scatter->exchange->stencil == serial stencil."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rank_stack import rank_apply
from repro.comm import ProcessGrid
from repro.dirac import PHYSICAL, WilsonCloverOperator
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition

SETTINGS = dict(max_examples=10, deadline=None)

GEOM = Geometry((4, 4, 4, 8))
GAUGE = GaugeField.weak(GEOM, epsilon=0.3, rng=31415)

#: Every grid whose blocks satisfy the even-extent constraint on 4x4x4x8.
VALID_GRIDS = [
    (1, 1, 1, 1),
    (1, 1, 1, 2),
    (1, 1, 1, 4),
    (1, 1, 2, 1),
    (1, 2, 1, 2),
    (2, 1, 1, 4),
    (1, 1, 2, 4),
    (2, 2, 2, 2),
    (2, 2, 2, 4),
]


class TestScatterGather:
    @given(st.sampled_from(VALID_GRIDS), st.integers(0, 10**6))
    @settings(**SETTINGS)
    def test_roundtrip(self, dims, seed):
        part = BlockPartition(GEOM, ProcessGrid(dims))
        x = SpinorField.random(GEOM, rng=seed).data
        assert np.array_equal(part.assemble(part.split(x)), x)

    @given(st.sampled_from(VALID_GRIDS), st.integers(0, 10**6))
    @settings(**SETTINGS)
    def test_block_norms_sum_to_global(self, dims, seed):
        part = BlockPartition(GEOM, ProcessGrid(dims))
        x = SpinorField.random(GEOM, rng=seed).data
        total = sum(float(np.vdot(b, b).real) for b in part.split(x))
        ref = float(np.vdot(x, x).real)
        assert abs(total - ref) <= 1e-12 * ref


class TestDistributedEqualsSerial:
    @given(st.sampled_from(VALID_GRIDS), st.integers(0, 10**6))
    @settings(**SETTINGS)
    def test_wilson_clover_any_grid(self, dims, seed):
        grid = ProcessGrid(dims)
        serial = WilsonCloverOperator(GAUGE, mass=0.1, csw=1.0, boundary=PHYSICAL)
        x = SpinorField.random(GEOM, rng=seed).data
        out = rank_apply(
            "wilson_clover", GAUGE, 0.1, grid, x, csw=1.0, boundary=PHYSICAL
        )
        assert np.abs(out - serial.apply(x)).max() < 1e-11

    @given(st.sampled_from(VALID_GRIDS), st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_split_kernels_any_grid(self, dims, seed):
        grid = ProcessGrid(dims)
        serial = WilsonCloverOperator(GAUGE, mass=0.1, csw=1.0)
        x = SpinorField.random(GEOM, rng=seed).data
        out = rank_apply(
            "wilson_clover", GAUGE, 0.1, grid, x, csw=1.0, schedule="split"
        )
        assert np.abs(out - serial.apply(x)).max() < 1e-11

"""Overlapping (restricted additive) Schwarz."""

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.dd import (
    AdditiveSchwarzPreconditioner,
    OverlappingSchwarzPreconditioner,
)
from repro.lattice.geometry import extract_region, stack_regions
from repro.dirac import NaiveStaggeredOperator, StaggeredNormalOperator, WilsonCloverOperator
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition
from repro.solvers import gcr
from repro.util.counters import tally


@pytest.fixture(scope="module")
def system():
    geom = Geometry((8, 8, 8, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=17)
    op = WilsonCloverOperator(gauge, mass=0.15, csw=1.0)
    part = BlockPartition(geom, ProcessGrid((1, 1, 2, 2)))
    b = SpinorField.random(geom, rng=18).data
    return geom, op, part, b


class TestExtractRegion:
    def test_interior_region(self, geom44, rng):
        a = rng.standard_normal(geom44.shape)
        out = extract_region(a, geom44, (0, 0, 0, 0), (2, 2, 2, 2))
        assert np.array_equal(out, a[:2, :2, :2, :2])

    def test_wrapped_region(self, geom44, rng):
        a = rng.standard_normal(geom44.shape)
        out = extract_region(a, geom44, (-1, 0, 0, 3), (2, 4, 4, 2))
        # x indices (-1, 0) -> (3, 0); t indices (3, 4) -> (3, 0).
        assert out[0, 0, 0, 0] == a[3, 0, 0, 3]
        assert out[1, 0, 0, 1] == a[0, 0, 0, 0]

    def test_lead_axes(self, geom44, rng):
        a = rng.standard_normal((4,) + geom44.shape)
        out = extract_region(a, geom44, (1, 1, 1, 1), (2, 2, 2, 2), lead=1)
        assert out.shape == (4, 2, 2, 2, 2)
        assert np.array_equal(out, a[:, 1:3, 1:3, 1:3, 1:3])


    def test_stacked_regions_are_lanes(self, geom44, rng):
        a = rng.standard_normal((3,) + geom44.shape + (2,))
        origins = [(0, 0, 0, 0), (-1, 2, 0, 3), (3, 3, 3, 3)]
        out = stack_regions(a, geom44, origins, (2, 4, 2, 2), lead=1)
        assert out.shape == (3, 3, 2, 2, 4, 2, 2) and out.flags.c_contiguous
        for lane, origin in enumerate(origins):
            assert np.array_equal(
                out[:, lane],
                extract_region(a, geom44, origin, (2, 4, 2, 2), lead=1),
            )


class TestOverlap:
    def test_zero_overlap_equals_block_jacobi(self, system, rng):
        """overlap=0 regions ARE the Schwarz blocks: the restricted
        operators must be built identically (same kernel backend, same
        boundary cuts), so the correction is bitwise block-Jacobi."""
        geom, op, part, b = system
        jacobi = AdditiveSchwarzPreconditioner(op, part, mr_steps=5,
                                               precision=None)
        ras0 = OverlappingSchwarzPreconditioner(op, part, overlap=0,
                                                mr_steps=5, precision=None)
        r = SpinorField.random(geom, rng=rng).data
        assert np.array_equal(jacobi(r), ras0(r))

    def test_zero_overlap_bitwise_in_half_precision(self, system, rng):
        """The bitwise guarantee must survive the production half-
        precision block solves (quantization is deterministic)."""
        geom, op, part, b = system
        jacobi = AdditiveSchwarzPreconditioner(op, part, mr_steps=5)
        ras0 = OverlappingSchwarzPreconditioner(op, part, overlap=0,
                                                mr_steps=5)
        r = SpinorField.random(geom, rng=rng).data
        assert np.array_equal(jacobi(r), ras0(r))

    @pytest.mark.slow
    def test_overlap_reduces_outer_iterations(self, system):
        """The Sec. 3.2 claim: larger overlap -> fewer iterations."""
        geom, op, part, b = system
        iters = {}
        for overlap in (0, 2):
            k = OverlappingSchwarzPreconditioner(
                op, part, overlap=overlap, mr_steps=6, precision=None
            )
            res = gcr(op.apply, b, preconditioner=k, tol=1e-7, maxiter=300)
            assert res.converged
            iters[overlap] = res.iterations
        assert iters[2] < iters[0]

    def test_overlap_costs_redundant_work(self, system):
        geom, op, part, b = system
        k0 = OverlappingSchwarzPreconditioner(op, part, overlap=0, mr_steps=5)
        k2 = OverlappingSchwarzPreconditioner(op, part, overlap=2, mr_steps=5)
        assert k0.redundancy == pytest.approx(1.0)
        assert k2.redundancy > 1.5

    def test_no_global_reductions(self, system, rng):
        geom, op, part, b = system
        k = OverlappingSchwarzPreconditioner(op, part, overlap=2, mr_steps=5)
        with tally() as t:
            k(SpinorField.random(geom, rng=rng).data)
        assert t.reductions == 0
        assert t.local_reductions > 0

    def test_overlap_wrap_validation(self, system):
        geom, op, part, b = system
        with pytest.raises(ValueError):
            OverlappingSchwarzPreconditioner(op, part, overlap=3)

    def test_negative_overlap_rejected(self, system):
        geom, op, part, b = system
        with pytest.raises(ValueError):
            OverlappingSchwarzPreconditioner(op, part, overlap=-1)

    def test_staggered_normal_operator_supported(self, rng):
        geom = Geometry((8, 8, 4, 4))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=19)
        normal = StaggeredNormalOperator(NaiveStaggeredOperator(gauge, 0.3))
        part = BlockPartition(geom, ProcessGrid((2, 2, 1, 1)))
        k = OverlappingSchwarzPreconditioner(
            normal, part, overlap=1, mr_steps=6, precision=None
        )
        x = SpinorField.random(geom, nspin=1, rng=rng).data
        z = k(normal.apply(x))
        # A useful approximate inverse.
        assert np.linalg.norm(z - x) < np.linalg.norm(x)

"""GCR-DD on the even-odd preconditioned system (QUDA's production mode).

The paper's Wilson-clover solves run on the red-black Schur complement;
combining it with the Schwarz preconditioner means every Schwarz block
solves a *cut* Schur system.  These tests assert the combination is
consistent and converges to the full-system solution.
"""

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.core import GCRDDConfig, GCRDDSolver
from repro.dirac import EvenOddPreconditionedWilson, WilsonCloverOperator
from repro.dirac.evenodd import to_parity
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.multigpu import BlockPartition
from repro.precision import DOUBLE, PrecisionPolicy
from repro.solvers import bicgstab


@pytest.fixture(scope="module")
def system():
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=515)
    op = WilsonCloverOperator(gauge, mass=0.2, csw=1.0)
    eo = EvenOddPreconditionedWilson(op)
    b = SpinorField.random(geom, rng=16).data
    return geom, op, eo, b


class TestBlockRestriction:
    def test_block_schur_is_cut_then_eliminated(self, system, rng):
        """The restricted Schur operator equals building the Schur
        complement of the restricted Wilson operator."""
        geom, op, eo, b = system
        # The Schur system's blocks partition its own (half) lattice.
        part = BlockPartition(eo.geometry, ProcessGrid((1, 1, 1, 2)))
        block = eo.restrict_to_block(part, 0)
        # Build the same object manually.
        full = BlockPartition(geom, ProcessGrid((1, 1, 1, 2)))
        manual = EvenOddPreconditionedWilson(op.restrict_to_block(full, 0))
        x = SpinorField.random(full.local_geometry, rng=rng).data
        x = to_parity(x, 0)
        assert np.abs(block.apply(x) - manual.apply(x)).max() < 1e-13

    def test_block_boundary_is_cut(self, system):
        geom, op, eo, b = system
        part = BlockPartition(eo.geometry, ProcessGrid((1, 1, 2, 2)))
        block = eo.restrict_to_block(part, 0)
        assert block.wilson.boundary[2] == "zero"
        assert block.wilson.boundary[3] == "zero"


class TestEvenOddGCRDD:
    def test_converges_and_matches_full_solve(self, system):
        geom, op, eo, b = system
        rhs = eo.prepare_rhs(b)
        solver = GCRDDSolver(
            eo, ProcessGrid((1, 1, 2, 2)),
            GCRDDConfig(tol=1e-6, precond_steps=8),
        )
        res = solver.solve(rhs)
        assert res.converged
        x_full = eo.reconstruct(res.x, b)
        r = b - op.apply(x_full)
        assert np.linalg.norm(r) / np.linalg.norm(b) < 5e-6

    def test_fewer_outer_iterations_than_unpreconditioned(self, system):
        """Even-odd halves the condition number; the eo GCR-DD needs no
        more outer iterations than the full-system GCR-DD."""
        geom, op, eo, b = system
        cfg = GCRDDConfig(
            tol=1e-8, precond_steps=8,
            policy=PrecisionPolicy(DOUBLE, DOUBLE, DOUBLE),
        )
        full = GCRDDSolver(op, ProcessGrid((1, 1, 1, 2)), cfg).solve(b)
        eo_res = GCRDDSolver(eo, ProcessGrid((1, 1, 1, 2)), cfg).solve(
            eo.prepare_rhs(b)
        )
        assert full.converged and eo_res.converged
        assert eo_res.iterations <= full.iterations

    def test_matches_eo_bicgstab(self, system):
        geom, op, eo, b = system
        rhs = eo.prepare_rhs(b)
        ref = bicgstab(eo.apply, rhs, tol=1e-10, maxiter=500)
        res = GCRDDSolver(
            eo, ProcessGrid((1, 1, 1, 2)), GCRDDConfig(tol=1e-6, precond_steps=8)
        ).solve(rhs)
        rel = np.linalg.norm(res.x - ref.x) / np.linalg.norm(ref.x)
        assert rel < 1e-4

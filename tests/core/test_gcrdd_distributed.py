"""The fully distributed GCR-DD solver (SPMD, ``sequential`` backend)
against the serial global-array ``GCRDDSolver`` and the true residual."""

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.core import GCRDDConfig, GCRDDSolver, SPMDGCRDDSolver
from repro.dirac import PHYSICAL, WilsonCloverOperator
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.util.counters import tally


@pytest.fixture(scope="module")
def system():
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=929)
    b = SpinorField.random(geom, rng=30).data
    return geom, gauge, b


def distributed(gauge, grid, **kw):
    return SPMDGCRDDSolver(gauge, 0.2, 1.0, grid, backend="sequential", **kw)


class TestDistributedGCRDD:
    def test_matches_serial_gcrdd(self, system):
        geom, gauge, b = system
        grid = ProcessGrid((1, 1, 2, 2))
        cfg = GCRDDConfig(tol=1e-6, precond_steps=8)
        serial = GCRDDSolver(
            WilsonCloverOperator(gauge, mass=0.2, csw=1.0), grid, cfg
        ).solve(b)
        dist = distributed(gauge, grid, config=cfg).solve(b)
        assert serial.converged and dist.converged
        rel = np.linalg.norm(dist.x - serial.x) / np.linalg.norm(serial.x)
        assert rel < 1e-4

    def test_solution_satisfies_system(self, system):
        geom, gauge, b = system
        solver = distributed(
            gauge, ProcessGrid((1, 1, 1, 2)),
            boundary=PHYSICAL, config=GCRDDConfig(tol=1e-6, precond_steps=8),
        )
        res = solver.solve(b)
        ref = WilsonCloverOperator(gauge, 0.2, 1.0, PHYSICAL, kernel="numpy_ref")
        r = b - ref.apply(res.x)
        assert np.linalg.norm(r) / np.linalg.norm(b) < 5e-6

    def test_preconditioner_moves_no_ghost_data(self, system):
        """The communication ledger of the paper in one test: messages
        come only from halo exchanges (one per outer matvec plus the
        one-time gauge exchange) and allreduces (one per rank per global
        reduction); the Schwarz solve adds none."""
        geom, gauge, b = system
        grid = ProcessGrid((1, 1, 2, 2))
        solver = distributed(
            gauge, grid, config=GCRDDConfig(tol=1e-5, precond_steps=10)
        )
        with tally() as t:
            res = solver.solve(b)
        assert res.converged
        msgs_per_exchange = 2 * len(grid.partitioned_dims) * grid.size
        n_matvecs = t.operator_applications.get("dist_wilson_clover", 0)
        assert t.messages == (
            (n_matvecs + 1) * msgs_per_exchange + t.reductions * grid.size
        )
        # The preconditioner did far more operator work than the matvecs...
        block_apps = t.operator_applications.get("wilson_clover", 0)
        assert block_apps > 4 * n_matvecs
        # ... and its reductions were all local.
        assert t.local_reductions > t.reductions

    def test_warm_start(self, system):
        geom, gauge, b = system
        solver = distributed(
            gauge, ProcessGrid((1, 1, 1, 2)),
            config=GCRDDConfig(tol=1e-5, precond_steps=8),
        )
        first = solver.solve(b)
        warm = solver.solve(b, x0=first.x)
        assert warm.iterations <= 1

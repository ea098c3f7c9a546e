"""Cross-module integration: the full paper pipeline on small lattices.

Each test stitches several subsystems together the way the paper's
production runs do: gauge field -> (fattening) -> operator -> partitioned
execution -> preconditioned mixed-precision solve -> physics observable.
"""

import numpy as np
import pytest

from repro import (
    GCRDDConfig,
    GCRDDSolver,
    GaugeField,
    Geometry,
    ProcessGrid,
    SolveRequest,
    SpinorField,
    WilsonCloverOperator,
    solve,
    tally,
)
from rank_stack import rank_apply, rank_space
from repro.dirac import PHYSICAL, AsqtadOperator, StaggeredNormalOperator
from repro.solvers import cg, gcr
from repro.solvers.space import STAGGERED_SPACE


def _converged_gcr(op, b_loc):
    """One rank's share of an unpreconditioned distributed GCR solve."""
    res = gcr(op.apply, b_loc, tol=1e-6, maxiter=600, space=rank_space(op))
    assert res.converged
    return res.x


@pytest.mark.slow
class TestDistributedGCRDDAgreement:
    """The serial-emulated GCR-DD and the fully distributed machinery are
    two faces of the same algorithm; their answers must coincide."""

    @pytest.fixture(scope="class")
    def system(self):
        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=1234)
        op = WilsonCloverOperator(gauge, mass=0.2, csw=1.0, boundary=PHYSICAL)
        b = SpinorField.random(geom, rng=7).data
        return geom, gauge, op, b

    def test_serial_gcrdd_vs_distributed_gcr(self, system):
        geom, gauge, op, b = system
        grid = ProcessGrid((1, 1, 2, 2))
        # Serial-emulated GCR-DD.
        res = GCRDDSolver(op, grid, GCRDDConfig(tol=1e-6, precond_steps=8)).solve(b)
        assert res.converged
        # Unpreconditioned GCR on the distributed operator.
        x_dist = rank_apply(
            "wilson_clover", gauge, 0.2, grid, b, csw=1.0, boundary=PHYSICAL,
            body=_converged_gcr,
        )
        rel = np.linalg.norm(res.x - x_dist) / np.linalg.norm(x_dist)
        assert rel < 1e-4

    def test_comm_traffic_ratio(self, system):
        """GCR-DD must move far fewer halo bytes per unit of operator work
        than a distributed unpreconditioned solve — the paper's motivation
        in one number."""
        geom, gauge, op, b = system
        grid = ProcessGrid((1, 1, 2, 2))
        with tally() as t_dist:
            rank_apply(
                "wilson_clover", gauge, 0.2, grid, b, csw=1.0,
                boundary=PHYSICAL, body=_converged_gcr,
            )
        spinor_bytes = t_dist.comm_bytes

        with tally() as t:
            res = GCRDDSolver(
                op, grid, GCRDDConfig(tol=1e-6, precond_steps=8)
            ).solve(b)
        # The Schwarz preconditioner performed the bulk of the operator
        # applications with zero communication.
        precond_apps = t.operator_applications.get("wilson_clover", 0)
        schwarz_apps = t.operator_applications.get("schwarz_precond", 0)
        assert schwarz_apps > 0
        assert precond_apps > 4 * schwarz_apps  # many block solves each
        assert spinor_bytes > 0


class TestStaggeredPipeline:
    def test_asqtad_even_odd_independent_solves(self):
        """Eq. (4) pipeline: fatten links, build M^+M, verify the even and
        odd checkerboards really decouple and solve them independently."""
        geom = Geometry((4, 4, 4, 4))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=2345)
        op = AsqtadOperator.from_gauge(gauge, mass=0.15, boundary=PHYSICAL)
        normal = StaggeredNormalOperator(op)
        b = SpinorField.random(geom, nspin=1, rng=8).data
        b_even = b * geom.even_mask[..., None]
        b_odd = b * geom.odd_mask[..., None]
        re = cg(normal.apply, b_even, tol=1e-9, maxiter=600,
                space=STAGGERED_SPACE)
        ro = cg(normal.apply, b_odd, tol=1e-9, maxiter=600,
                space=STAGGERED_SPACE)
        rf = cg(normal.apply, b, tol=1e-9, maxiter=600, space=STAGGERED_SPACE)
        assert re.converged and ro.converged and rf.converged
        assert np.linalg.norm(re.x + ro.x - rf.x) < 1e-6 * np.linalg.norm(rf.x)
        # Each partial solution stays on its own checkerboard.
        assert np.abs(re.x * geom.odd_mask[..., None]).max() < 1e-12


@pytest.mark.slow
class TestPrecisionLadder:
    def test_policies_reach_their_accuracy(self):
        """double > single > half final accuracy, each policy reaching its
        own floor — the mixed-precision contract."""
        from repro.precision import DOUBLE, HALF, SINGLE, PrecisionPolicy

        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=3456)
        op = WilsonCloverOperator(gauge, mass=0.2, csw=1.0)
        b = SpinorField.random(geom, rng=9).data
        grid = ProcessGrid((1, 1, 1, 2))

        residuals = {}
        for name, policy, tol in [
            ("ddd", PrecisionPolicy(DOUBLE, DOUBLE, DOUBLE), 1e-12),
            ("sss", PrecisionPolicy(SINGLE, SINGLE, SINGLE), 1e-12),
            ("shh", PrecisionPolicy(SINGLE, HALF, HALF), 1e-12),
        ]:
            cfg = GCRDDConfig(tol=tol, precond_steps=8, policy=policy, maxiter=400)
            res = GCRDDSolver(op, grid, cfg).solve(b)
            residuals[name] = res.residual
        assert residuals["ddd"] < 1e-11
        assert residuals["sss"] < 5e-6
        assert residuals["shh"] < 5e-5
        assert residuals["ddd"] < residuals["sss"]


class TestAPIRoundTrip:
    def test_quickstart_snippet(self):
        """The README quickstart must work exactly as written."""
        geometry = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geometry, epsilon=0.25, rng=0)
        b = SpinorField.random(geometry, rng=1)
        result = solve(SolveRequest(
            operator="wilson_clover", gauge=gauge, rhs=b.data,
            mass=0.1, csw=1.0, tol=1e-8,
        ))
        assert result.converged
        assert result.residual < 1e-7

"""Flexible preconditioned CG (Polak-Ribiere variant) and its batched
multi-RHS twin."""

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.dd import MultiSplittingPreconditioner
from repro.multigpu import BlockPartition
from repro.solvers import batched_pcg, cg, pcg
from repro.solvers.space import STAGGERED_SPACE, BatchedArraySpace

BATCHED_STAGGERED_SPACE = BatchedArraySpace(site_axes=1)


@pytest.fixture(scope="module")
def precond(staggered_normal):
    part = BlockPartition(
        staggered_normal.geometry, ProcessGrid((1, 1, 2, 2))
    )
    return MultiSplittingPreconditioner(
        staggered_normal, part, overlap=1, mr_steps=6, precision=None
    )


class TestPCG:
    def test_no_preconditioner_delegates_to_cg(self, staggered_normal,
                                               b_staggered):
        """pcg(preconditioner=None) must be plain CG, bit for bit — the
        "auto" request path relies on this identity."""
        plain = cg(staggered_normal.apply, b_staggered, tol=1e-9,
                   maxiter=500, space=STAGGERED_SPACE)
        res = pcg(staggered_normal.apply, b_staggered, tol=1e-9,
                  maxiter=500, space=STAGGERED_SPACE)
        assert np.array_equal(res.x, plain.x)
        assert tuple(res.residual_history) == tuple(plain.residual_history)

    def test_preconditioned_converges_in_fewer_iterations(
        self, staggered_normal, b_staggered, precond
    ):
        plain = cg(staggered_normal.apply, b_staggered, tol=1e-9,
                   maxiter=500, space=STAGGERED_SPACE)
        pre = pcg(staggered_normal.apply, b_staggered,
                  preconditioner=precond, tol=1e-9, maxiter=500,
                  space=STAGGERED_SPACE)
        assert plain.converged and pre.converged
        assert pre.iterations < plain.iterations

    def test_true_residual_verified(self, staggered_normal, b_staggered,
                                    precond):
        res = pcg(staggered_normal.apply, b_staggered,
                  preconditioner=precond, tol=1e-9, maxiter=500,
                  space=STAGGERED_SPACE)
        r = b_staggered - staggered_normal.apply(res.x)
        rel = np.linalg.norm(r) / np.linalg.norm(b_staggered)
        assert rel == pytest.approx(res.residual, rel=1e-4)

    def test_breakdown_reports_not_converged(self, staggered_normal,
                                             b_staggered):
        """An indefinite 'preconditioner' (negated identity) drives
        rz < 0; pcg must stop honestly instead of dividing by it."""
        res = pcg(staggered_normal.apply, b_staggered,
                  preconditioner=lambda r: -r, tol=1e-9, maxiter=50,
                  space=STAGGERED_SPACE)
        assert not res.converged

    def test_maxiter_respected(self, staggered_normal, b_staggered,
                               precond):
        res = pcg(staggered_normal.apply, b_staggered,
                  preconditioner=precond, tol=1e-14, maxiter=3,
                  space=STAGGERED_SPACE)
        assert not res.converged
        assert res.iterations == 3


class TestBatchedPCG:
    def test_matches_per_lane_scalar(self, staggered_normal, geom,
                                     precond):
        from repro.lattice import SpinorField

        rhs = np.stack([
            SpinorField.random(geom, nspin=1, rng=60 + i).data
            for i in range(3)
        ])
        batched = batched_pcg(
            staggered_normal.apply, rhs, preconditioner=precond,
            tol=1e-9, maxiter=500, space=BATCHED_STAGGERED_SPACE,
        )
        assert np.all(batched.converged)
        for lane in range(rhs.shape[0]):
            single = pcg(staggered_normal.apply, rhs[lane],
                         preconditioner=precond, tol=1e-9, maxiter=500,
                         space=STAGGERED_SPACE)
            assert batched.x[lane].tobytes() == single.x.tobytes(), lane
            assert batched.iterations[lane] == single.iterations

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_lane_leaves_its_mates_bits(self, staggered_normal, geom,
                                              precond):
        """A lane whose right-hand side holds a NaN breaks down
        ``"non-finite"`` within its first iteration and leaves the
        batch; its mates compute what they compute without it."""
        from repro.lattice import SpinorField

        rhs = np.stack([
            SpinorField.random(geom, nspin=1, rng=80 + i).data
            for i in range(3)
        ])
        poisoned = rhs.copy()
        poisoned[1, 0, 1, 2, 3, 0] = np.nan

        def solve(batch):
            return batched_pcg(
                staggered_normal.apply, batch, preconditioner=precond,
                tol=1e-9, maxiter=500, space=BATCHED_STAGGERED_SPACE,
            )

        clean, got = solve(rhs), solve(poisoned)
        assert list(got.extras["breakdown"]) == [False, "non-finite", False]
        assert not got.converged[1] and got.iterations[1] == 0
        for lane in (0, 2):
            assert got.x[lane].tobytes() == clean.x[lane].tobytes()
            assert got.iterations[lane] == clean.iterations[lane]
            assert got.converged[lane]

    def test_a_schwarz_asqtad_lane_is_its_solve_alone(self, gauge, geom):
        """Three sources of the preconditioned asqtad CG (``schwarz``)
        through ``solve``: each lane is that source solved alone."""
        from repro import SolveRequest, solve
        from repro.gauge.asqtad import build_asqtad_links
        from repro.lattice import SpinorField

        links = build_asqtad_links(gauge)
        rhs = np.stack([
            SpinorField.random(geom, nspin=1, rng=90 + i).data
            for i in range(3)
        ])

        def request(b):
            return SolveRequest(
                operator="asqtad", gauge=links, rhs=b, mass=0.1, tol=1e-8,
                precond="schwarz", grid=ProcessGrid((1, 1, 2, 2)),
            )

        batch = solve(request(rhs))
        assert batch.all_converged
        for lane in range(3):
            alone = solve(request(rhs[lane]))
            assert batch.x[lane].tobytes() == alone.x.tobytes(), lane
            assert batch.iterations[lane] == alone.iterations

    def test_no_preconditioner_path(self, staggered_normal, geom):
        from repro.lattice import SpinorField

        rhs = np.stack([
            SpinorField.random(geom, nspin=1, rng=70 + i).data
            for i in range(2)
        ])
        res = batched_pcg(staggered_normal.apply, rhs, tol=1e-9,
                          maxiter=500, space=BATCHED_STAGGERED_SPACE)
        assert np.all(res.converged)

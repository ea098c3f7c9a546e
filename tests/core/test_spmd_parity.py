"""Backend parity for the SPMD GCR-DD solver: every execution backend
(sequential / threads / processes) must produce bit-identical solutions,
residual histories and communication tallies — and the sequential SPMD
run must be reproducible bit for bit and agree count for count with the
global-array GCRDDSolver.  The rank asqtad operator (depth-3 ghosts), which
no GCR-DD driver runs yet, is held to the same standard apply by apply."""

import numpy as np
import pytest

from rank_stack import rank_apply
from repro.comm.backends import (
    SPMDError,
    process_backend_available,
    run_rank_programs,
)
from repro.comm.grid import ProcessGrid
from repro.core.gcrdd import GCRDDConfig, GCRDDSolver
from repro.core.spmd import SPMDGCRDDSolver
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.util.counters import tally

BACKENDS_AVAILABLE = ["sequential", "threads"] + (
    ["processes"] if process_backend_available() else []
)


@pytest.fixture(scope="module")
def setup():
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=929)
    grid = ProcessGrid((1, 1, 2, 2))
    cfg = GCRDDConfig(tol=1e-6, precond_steps=8)
    return geom, gauge, grid, cfg


def _solve_all_backends(solver, b):
    """(result, tally) per backend; construction is shared, each solve
    re-runs the full rank programs (including the gauge ghost exchange)."""
    out = {}
    for backend in BACKENDS_AVAILABLE:
        with tally() as t:
            res = solver.solve(b, backend=backend)
        out[backend] = (res, t)
    return out


class TestWilsonBackendParity:
    @pytest.fixture(scope="class")
    def results(self, setup):
        geom, gauge, grid, cfg = setup
        solver = SPMDGCRDDSolver(gauge, 0.2, 1.0, grid, config=cfg)
        b = SpinorField.random(geom, rng=30).data
        return _solve_all_backends(solver, b)

    def test_all_converge(self, results):
        for backend, (res, _) in results.items():
            assert res.converged, f"{backend} failed to converge"
            assert res.extras["backend"] == backend

    def test_bit_identical_solutions(self, results):
        reference = results["sequential"][0]
        for backend, (res, _) in results.items():
            assert np.array_equal(res.x, reference.x), backend

    def test_bit_identical_residual_histories(self, results):
        reference = results["sequential"][0]
        for backend, (res, _) in results.items():
            assert res.iterations == reference.iterations, backend
            assert res.residual == reference.residual, backend
            assert tuple(res.residual_history) == tuple(
                reference.residual_history
            ), backend

    def test_identical_comm_tallies(self, results):
        reference = results["sequential"][1]
        for backend, (_, t) in results.items():
            assert t.comm_bytes == reference.comm_bytes, backend
            assert t.messages == reference.messages, backend
            assert t.reductions == reference.reductions, backend
            assert t.flops == reference.flops, backend
            assert (
                t.operator_applications == reference.operator_applications
            ), backend


class TestStaggeredBackendParity:
    @pytest.fixture(scope="class")
    def results(self, setup):
        geom, gauge, grid, cfg = setup
        solver = SPMDGCRDDSolver(
            gauge, 0.5, 0.0, grid, config=cfg, operator="staggered"
        )
        b = SpinorField.random(geom, nspin=1, rng=11).data
        return _solve_all_backends(solver, b)

    def test_all_converge(self, results):
        for backend, (res, _) in results.items():
            assert res.converged, f"{backend} failed to converge"

    def test_bit_identical_solutions_and_histories(self, results):
        reference = results["sequential"][0]
        for backend, (res, _) in results.items():
            assert np.array_equal(res.x, reference.x), backend
            assert tuple(res.residual_history) == tuple(
                reference.residual_history
            ), backend

    def test_identical_comm_tallies(self, results):
        reference = results["sequential"][1]
        for backend, (_, t) in results.items():
            assert t.comm_bytes == reference.comm_bytes, backend
            assert t.messages == reference.messages, backend
            assert t.reductions == reference.reductions, backend


ASQTAD_MODES = {
    "apply": dict(body="apply"),
    "dagger": dict(body="apply_dagger"),
    "split": dict(body="apply", schedule="split"),
    "overlapped": dict(body="apply", overlap=True),
}


class TestAsqtadRankOperatorParity:
    """``rank_asqtad`` against the serial operator and across backends;
    blocks are 4 sites thick in every partitioned direction."""

    @pytest.fixture(scope="class")
    def system(self):
        from repro.dirac import PHYSICAL, AsqtadOperator

        geom = Geometry((4, 4, 8, 8))
        gauge = GaugeField.weak(geom, epsilon=0.3, rng=414)
        serial = AsqtadOperator.from_gauge(gauge, mass=0.05, boundary=PHYSICAL)
        x = SpinorField.random(geom, nspin=1, rng=15).data
        return serial, x, PHYSICAL

    @pytest.mark.parametrize("mode", ASQTAD_MODES)
    @pytest.mark.parametrize("grid", [(1, 1, 1, 2), (1, 1, 2, 2)],
                             ids=["T", "ZT"])
    def test_matches_serial_and_every_backend(self, system, grid, mode):
        serial, x, boundary = system
        runs = {}
        for backend in BACKENDS_AVAILABLE:
            with tally() as t:
                out = rank_apply(
                    "asqtad", serial.links, 0.05, ProcessGrid(grid), x,
                    boundary=boundary, backend=backend, **ASQTAD_MODES[mode],
                )
            counts = t.to_dict().items()
            runs[backend] = out, {k: v for k, v in counts if "seconds" not in k}
        reference, ref_counts = runs["sequential"]
        expected = serial.apply_dagger(x) if mode == "dagger" else serial.apply(x)
        if mode in ("apply", "dagger"):
            assert np.array_equal(reference, expected)
        else:
            assert np.abs(reference - expected).max() < 1e-12
        # fat + long link exchange, then one spinor exchange: 3 exchanges
        # of 2 faces per partitioned dimension per rank.
        n_ranks = int(np.prod(grid))
        n_dims = sum(g > 1 for g in grid)
        assert ref_counts["messages"] == 3 * 2 * n_dims * n_ranks
        for backend, (out, counts) in runs.items():
            assert np.array_equal(out, reference), backend
            assert counts == ref_counts, backend


class TestAgainstGlobalView:
    def test_spmd_is_bit_identical_to_global_view(self, setup):
        """Two independently built sequential SPMD solvers are
        bit-identical in solution, history and tally; the global-array
        GCRDDSolver (another reduction order, so equal only to rounding)
        takes exactly the same iterations, restarts and reductions."""
        from repro.dirac import WilsonCloverOperator

        geom, gauge, grid, cfg = setup
        b = SpinorField.random(geom, rng=30).data

        def run(solver):  # result + the tally's counts (no wall-clock)
            with tally() as t:
                res = solver.solve(b)
            counts = t.to_dict().items()
            return res, {k: v for k, v in counts if "seconds" not in k}

        res, t_spmd = run(SPMDGCRDDSolver(gauge, 0.2, 1.0, grid, config=cfg))
        again, t_again = run(SPMDGCRDDSolver(gauge, 0.2, 1.0, grid, config=cfg))
        assert np.array_equal(res.x, again.x)
        assert tuple(res.residual_history) == tuple(again.residual_history)
        assert t_spmd == t_again
        op = WilsonCloverOperator(gauge, mass=0.2, csw=1.0)
        reference, t_global = run(GCRDDSolver(op, grid, cfg))
        for name in ("iterations", "restarts"):
            assert getattr(res, name) == getattr(reference, name), name
        for name in ("reductions", "local_reductions"):
            assert t_spmd[name] == t_global[name], name

    def test_batched_rhs_round_trips(self, setup):
        geom, gauge, grid, cfg = setup
        solver = SPMDGCRDDSolver(gauge, 0.2, 1.0, grid, config=cfg)
        b = np.stack([
            SpinorField.random(geom, rng=40 + i).data for i in range(2)
        ])
        res = solver.solve(b)
        assert res.x.shape == b.shape
        assert np.all(res.converged)


class TestDeadlockDetection:
    def test_threaded_mismatch_times_out_with_diagnostic(self):
        """A rank program with mismatched sends/receives must surface the
        deadlock diagnostic under the threaded backend, not hang."""

        def bad_program(comm, payload):
            if comm.rank == 0:
                # Waits forever: rank 1 never sends with this tag.
                return comm.recv(1, tag="missing_face")
            comm.barrier()
            return None

        with pytest.raises(SPMDError) as err:
            run_rank_programs(bad_program, 2, backend="threads", timeout=1.0)
        message = str(err.value)
        assert "missing_face" in message or "stalled" in message

    def test_sequential_mismatch_is_detected_without_waiting(self):
        def bad_program(comm, payload):
            return comm.recv((comm.rank + 1) % comm.size, tag="nope")

        with pytest.raises(SPMDError, match="deadlock|blocked|pending"):
            run_rank_programs(
                bad_program, 2, backend="sequential", timeout=30.0
            )


class TestValidation:
    def test_unknown_operator(self, setup):
        _, gauge, grid, cfg = setup
        with pytest.raises(ValueError, match="unknown operator"):
            SPMDGCRDDSolver(gauge, 0.2, 1.0, grid, operator="overlap")

    def test_bad_rhs_shape(self, setup):
        _, gauge, grid, cfg = setup
        solver = SPMDGCRDDSolver(gauge, 0.2, 1.0, grid, config=cfg)
        with pytest.raises(ValueError, match="ndim"):
            solver.solve(np.zeros((4, 4)))

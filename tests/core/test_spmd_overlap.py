"""The overlapped halo schedule (Fig. 4, live): the nonblocking
interior/exterior path must be bit-identical to the blocking split path
on every backend, publish a measurable overlap fraction, and reuse the
persistent process pool across solves."""

import numpy as np
import pytest

from repro.comm.backends import process_backend_available
from repro.comm.grid import ProcessGrid
from repro.core.api import SolveRequest, solve
from repro.core.gcrdd import GCRDDConfig
from repro.core.spmd import SPMDGCRDDSolver
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.metrics.solve_report import overlap_summary, render_report
from repro.trace import tracing
from repro.util.counters import OVERLAP_WINDOW, tally

BACKENDS_AVAILABLE = ["sequential", "threads"] + (
    ["processes"] if process_backend_available() else []
)


@pytest.fixture(scope="module")
def setup():
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=929)
    grid = ProcessGrid((1, 1, 2, 2))
    cfg = GCRDDConfig(tol=1e-6, precond_steps=8)
    b = SpinorField.random(geom, rng=30).data
    return geom, gauge, grid, cfg, b


class TestOverlapBackendParity:
    """The acceptance bar: overlap path bit-identical to the blocking
    path — solution, residual history AND cost tallies — per backend."""

    @pytest.fixture(scope="class")
    def results(self, setup):
        _, gauge, grid, cfg, b = setup
        solver = SPMDGCRDDSolver(
            gauge, 0.2, 1.0, grid, config=cfg, schedule="split"
        )
        out = {}
        with tally() as t:
            res = solver.solve(b, backend="sequential", overlap=False)
        out["blocking"] = (res, t)
        for backend in BACKENDS_AVAILABLE:
            with tally() as t:
                res = solver.solve(b, backend=backend, overlap=True)
            out[backend] = (res, t)
        return out

    def test_all_converge_and_flag_overlap(self, results):
        for backend in BACKENDS_AVAILABLE:
            res, _ = results[backend]
            assert res.converged, backend
            assert res.extras["overlap"] is True, backend
        assert results["blocking"][0].extras["overlap"] is False

    def test_overlap_solution_bit_identical_to_blocking(self, results):
        reference, _ = results["blocking"]
        for backend in BACKENDS_AVAILABLE:
            res, _ = results[backend]
            assert np.array_equal(res.x, reference.x), backend

    def test_overlap_residual_history_bit_identical(self, results):
        reference, _ = results["blocking"]
        for backend in BACKENDS_AVAILABLE:
            res, _ = results[backend]
            assert res.iterations == reference.iterations, backend
            assert res.residual == reference.residual, backend
            assert tuple(res.residual_history) == tuple(
                reference.residual_history
            ), backend

    def test_overlap_tallies_identical_to_blocking(self, results):
        """Same wire bytes, same messages, same flops, same data motion:
        the overlapped schedule reorders work but never changes it."""
        _, reference = results["blocking"]
        for backend in BACKENDS_AVAILABLE:
            _, t = results[backend]
            assert t.comm_bytes == reference.comm_bytes, backend
            assert t.messages == reference.messages, backend
            assert t.reductions == reference.reductions, backend
            assert t.flops == reference.flops, backend
            assert t.bytes_moved == reference.bytes_moved, backend


class TestOverlapMetrics:
    def test_overlap_counters_published_per_rank(self, setup):
        _, gauge, grid, cfg, b = setup
        solver = SPMDGCRDDSolver(
            gauge, 0.2, 1.0, grid, config=cfg, overlap=True
        )
        with tally() as t:
            res = solver.solve(b, backend="sequential")
        assert res.converged
        exchanges = {
            rank: count
            for (rank, kind), (_, count) in t.wait_seconds.items()
            if kind == OVERLAP_WINDOW
        }
        # Every rank ran the same deterministic schedule.
        assert sorted(exchanges) == list(range(grid.size))
        assert len(set(exchanges.values())) == 1
        assert min(exchanges.values()) > 0

    def test_overlap_summary_shape(self, setup):
        _, gauge, grid, cfg, b = setup
        solver = SPMDGCRDDSolver(
            gauge, 0.2, 1.0, grid, config=cfg, overlap=True
        )
        with tally() as t:
            solver.solve(b, backend="sequential")
        summary = overlap_summary(t)
        assert summary is not None
        assert summary["exchanges"] > 0
        assert summary["window_seconds"] > 0.0
        assert 0.0 <= summary["wait_seconds"] <= summary["window_seconds"] * (
            1.0 + 1e-9
        )
        assert summary["fraction"] is not None
        assert 0.0 <= summary["fraction"] <= 1.0

    def test_no_overlap_counters_on_blocking_path(self, setup):
        _, gauge, grid, cfg, b = setup
        solver = SPMDGCRDDSolver(gauge, 0.2, 1.0, grid, config=cfg)
        with tally() as t:
            solver.solve(b, backend="sequential")
        assert overlap_summary(t) is None


class TestOverlapSolveReport:
    @pytest.fixture(scope="class")
    def solved(self, setup):
        _, gauge, _, cfg, b = setup
        request = SolveRequest(
            operator="wilson_clover", gauge=gauge, rhs=b, mass=0.2,
            csw=1.0, method="gcr-dd", grid=ProcessGrid((1, 1, 2, 2)),
            config=cfg, backend="sequential", overlap=True,
        )
        result = solve(request)
        assert result.converged
        return request, result

    def test_report_carries_nonzero_overlap_fraction(self, solved):
        _, result = solved
        overlap = result.report.to_dict()["ranks"]["overlap"]
        assert overlap["exchanges"] > 0
        assert overlap["fraction"] is not None
        assert 0.0 <= overlap["fraction"] <= 1.0

    def test_fingerprint_records_the_schedule(self, solved):
        _, result = solved
        fp = result.report.to_dict()["fingerprint"]["config"]
        assert fp["overlap"] is True
        assert fp["backend"] == "sequential"

    def test_render_shows_the_overlap_line(self, solved):
        _, result = solved
        text = render_report(result.report.to_dict())
        assert "halo overlap" in text
        assert "Fig. 4" in text


class TestOverlapValidation:
    def test_overlap_needs_an_spmd_backend(self, setup):
        _, gauge, _, cfg, b = setup
        with pytest.raises(ValueError, match="SPMD backend"):
            solve(SolveRequest(
                operator="wilson_clover", gauge=gauge, rhs=b, mass=0.2,
                method="gcr-dd", grid=ProcessGrid((1, 1, 2, 2)),
                config=cfg, overlap=True,
            ))

    def test_overlap_needs_gcrdd(self, setup):
        _, gauge, _, _, b = setup
        with pytest.raises(ValueError, match="gcr-dd"):
            solve(SolveRequest(
                operator="wilson_clover", gauge=gauge, rhs=b, mass=0.2,
                method="bicgstab", overlap=True,
            ))


class TestOverlapTrace:
    def test_traced_schedule_has_interior_wait_and_exterior_spans(
        self, setup
    ):
        _, gauge, grid, cfg, b = setup
        solver = SPMDGCRDDSolver(
            gauge, 0.2, 1.0, grid, config=cfg, overlap=True
        )
        with tracing() as tr:
            res = solver.solve(b, backend="sequential")
        assert res.converged
        names = {ev.name for ev in tr.events}
        assert "interior_kernel" in names
        assert "wait_face" in names
        assert "scatter" in names
        assert any(n.startswith("exterior_") for n in names)
        waits = [ev for ev in tr.events if ev.name == "wait_face"]
        assert all(ev.stream == "comm wait" for ev in waits)
        assert all(ev.rank in range(grid.size) for ev in waits)

    def test_drain_follows_the_interior_kernel_per_rank(self, setup):
        """The Fig. 4 ordering: each rank posts its exchange, runs the
        interior kernel, then drains faces — so every wait_face span
        starts after that rank's interior kernel started."""
        _, gauge, grid, cfg, b = setup
        solver = SPMDGCRDDSolver(
            gauge, 0.2, 1.0, grid, config=cfg, overlap=True
        )
        with tracing() as tr:
            solver.solve(b, backend="sequential")
        for rank in range(grid.size):
            interiors = [
                ev for ev in tr.events
                if ev.name == "interior_kernel" and ev.rank == rank
            ]
            waits = [
                ev for ev in tr.events
                if ev.name == "wait_face" and ev.rank == rank
            ]
            assert interiors and waits, rank
            first_interior = min(ev.start for ev in interiors)
            assert all(ev.start >= first_interior for ev in waits), rank


@pytest.mark.skipif(
    not process_backend_available(),
    reason="needs the POSIX fork start method",
)
class TestPersistentRankPool:
    def test_workers_reused_across_solves(self, setup):
        from repro.comm.shm import pool_worker_pids

        _, gauge, grid, cfg, b = setup
        solver = SPMDGCRDDSolver(gauge, 0.2, 1.0, grid, config=cfg)
        first = solver.solve(b, backend="processes")
        pids = pool_worker_pids(grid.size)
        assert pids is not None and len(pids) == grid.size
        second = solver.solve(b, backend="processes")
        assert pool_worker_pids(grid.size) == pids
        assert np.array_equal(first.x, second.x)

    def test_closure_programs_fall_back_to_fork_per_call(self):
        """A program a queue cannot carry (closure over local state) still
        runs — via the legacy fork-per-call path — without killing the
        persistent pool."""
        from repro.comm.backends import run_rank_programs
        from repro.comm.shm import pool_worker_pids

        captured = 3.0

        def closure_program(comm, payload):
            return comm.allreduce_sum(np.float64(captured + comm.rank))

        before = pool_worker_pids(4)
        outcomes = run_rank_programs(
            closure_program, 4, backend="processes", timeout=30.0
        )
        expected = sum(3.0 + r for r in range(4))
        assert all(o.value == expected for o in outcomes)
        assert pool_worker_pids(4) == before

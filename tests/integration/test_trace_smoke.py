"""Trace smoke check (the acceptance gate for the observability story).

Runs a tiny 2x1x1x1-rank Wilson GCR-DD solve with tracing enabled and
asserts the full pipeline: the trace shows every track kind of the
paper's Fig. 4 schedule, the exported JSON is a valid Perfetto document
with a model-timeline track, and per-kernel summed span durations agree
with ``Tally.kernel_seconds``.  Fast-lane (not marked slow) so the trace
path cannot silently rot; ``scripts/trace_smoke.sh`` runs the same check
through the CLI.
"""

import numpy as np
import pytest

from repro import trace
from repro.cli import main
from repro.comm.grid import ProcessGrid
from repro.core import GCRDDConfig, SPMDGCRDDSolver
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.util.counters import tally


@pytest.fixture(scope="module")
def traced_solve():
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=11)
    b = SpinorField.random(geom, rng=12).data
    with trace.tracing() as tr, tally() as t:
        solver = SPMDGCRDDSolver(
            gauge, mass=0.1, csw=1.0, grid=ProcessGrid((2, 1, 1, 1)),
            config=GCRDDConfig(tol=1e-5, precond_steps=4),
            backend="sequential", schedule="split",
        )
        result = solver.solve(b)
    return tr.events, t, result, solver


class TestTracedSolve:
    def test_solve_converged(self, traced_solve):
        _, _, result, _ = traced_solve
        assert result.converged

    def test_required_track_kinds_present(self, traced_solve):
        events, _, _, _ = traced_solve
        kinds = set(trace.kind_totals(events))
        assert {"gather", "comm", "interior", "exterior"} <= kinds

    def test_both_ranks_emit_spans(self, traced_solve):
        events, _, _, _ = traced_solve
        assert {ev.rank for ev in events if ev.rank is not None} == {0, 1}

    def test_exterior_only_for_partitioned_dim(self, traced_solve):
        events, _, _, _ = traced_solve
        names = {ev.name for ev in events if ev.kind == "exterior"}
        assert names == {"exterior_X"}  # grid partitions X only

    def test_timed_totals_equal_tally_kernel_seconds(self, traced_solve):
        events, t, _, _ = traced_solve
        totals = trace.timed_kernel_totals(events)
        assert set(totals) == set(t.kernel_seconds)
        for name, secs in totals.items():
            assert secs == pytest.approx(t.kernel_seconds[name], abs=1e-9)

    def test_schwarz_blocks_make_no_comm(self, traced_solve):
        """Sec. 8.1: the block solves are domain-local — no comm span may
        start inside a schwarz_block_solve span."""
        events, _, _, _ = traced_solve
        blocks = [ev for ev in events if ev.name == "schwarz_block_solve"]
        comms = [ev for ev in events if ev.kind == "comm"]
        assert blocks and comms
        for c in comms:
            assert not any(
                b.start <= c.start and c.end <= b.end for b in blocks
            )

    def test_export_roundtrip_with_model_track(self, traced_solve, tmp_path):
        events, _, _, solver = traced_solve
        from repro.perfmodel.kernels import KernelModel, OperatorKind
        from repro.perfmodel.machines import EDGE
        from repro.perfmodel.streams import model_dslash_time
        from repro.trace.model import timeline_events

        kernel = KernelModel(OperatorKind.WILSON_CLOVER, "half")
        timeline = model_dslash_time(
            kernel, EDGE.gpu, EDGE.interconnect,
            solver.partition.local_dims, solver.grid.partitioned_dims,
        )
        all_events = events + timeline_events(timeline)
        path = trace.write_chrome_trace(tmp_path / "smoke.json", all_events)
        loaded = trace.load_chrome_trace(path)
        assert len(loaded) == len(all_events)
        model_kinds = {
            ev.kind for ev in loaded if ev.rank == trace.MODEL_RANK
        }
        assert {"gather", "comm", "interior", "exterior"} <= model_kinds
        measured_kinds = {
            ev.kind for ev in loaded
            if ev.rank is not None and ev.rank != trace.MODEL_RANK
        }
        assert {"gather", "comm", "interior", "exterior"} <= measured_kinds


class TestTraceCLI:
    def test_trace_command_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "cli_trace.json"
        rc = main([
            "trace", "--dims", "4", "4", "4", "8", "--grid", "2", "1", "1",
            "1", "--tol", "1e-5", "--mr-steps", "4", "--ascii",
            "--output", str(out_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "perfetto" in out.lower()
        assert "cross-check" in out
        loaded = trace.load_chrome_trace(out_path)
        kinds = {ev.kind for ev in loaded}
        assert {"gather", "comm", "interior", "exterior"} <= kinds
        assert any(ev.rank == trace.MODEL_RANK for ev in loaded)

    def test_trace_overlap_needs_no_explicit_backend(self, tmp_path, capsys):
        """``trace`` always runs the SPMD solver (sequential by default),
        so ``--overlap`` alone traces the live overlapped schedule."""
        out_path = tmp_path / "cli_overlap.json"
        rc = main([
            "trace", "--dims", "4", "4", "4", "8", "--grid", "2", "1", "1",
            "1", "--tol", "1e-5", "--mr-steps", "4", "--overlap",
            "--output", str(out_path),
        ])
        assert rc == 0
        assert "converged" in capsys.readouterr().out
        names = {ev.name for ev in trace.load_chrome_trace(out_path)}
        # The overlapped exchange drains in-flight faces after the
        # interior kernel: its wait spans exist on no other schedule.
        assert {"wait_face", "interior_kernel", "exterior_X"} <= names

    def test_tracing_disabled_during_normal_solve(self):
        """A plain solve outside a tracing() scope must emit nothing."""
        assert trace.active_tracer() is None
        geom = Geometry((4, 4, 4, 4))
        gauge = GaugeField.weak(geom, epsilon=0.2, rng=3)
        b = SpinorField.random(geom, rng=4).data
        tr = trace.Tracer()
        solver = SPMDGCRDDSolver(
            gauge, mass=0.2, csw=0.0, grid=ProcessGrid((2, 1, 1, 1)),
            config=GCRDDConfig(tol=1e-4, precond_steps=2), backend="sequential",
        )
        solver.solve(b)
        assert tr.events == []

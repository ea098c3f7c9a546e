"""The strong-scaling sweep harness: the model track, the efficiency
math, the honesty flags, the knee chart, and one real (tiny) sweep."""

from __future__ import annotations

import os

import pytest

from repro.analysis.scaling_sweep import (
    ScalingPoint,
    _model_point,
    knee_chart,
    run_scaling_sweep,
)
from repro.metrics.bench_schema import validate_bench
from repro.perfmodel.machines import EDGE


def synthetic_points():
    return [
        ScalingPoint(ranks=1, grid=[1, 1, 1, 1], measured_seconds=4.0,
                     model_seconds=2.0, measured_efficiency=1.0,
                     model_efficiency=1.0, measured_comm_fraction=0.02,
                     model_comm_fraction=0.05, converged=True),
        ScalingPoint(ranks=4, grid=[1, 1, 2, 2], measured_seconds=1.5,
                     model_seconds=0.6, measured_efficiency=0.67,
                     model_efficiency=0.83, measured_comm_fraction=0.3,
                     model_comm_fraction=0.2, converged=True,
                     oversubscribed=True),
    ]


class TestModelPoint:
    def test_partitioning_adds_comm(self):
        solo, solo_frac = _model_point(
            EDGE, (8, 8, 8, 16), (1, 1, 1, 1), 50, 4, 8
        )
        quad, quad_frac = _model_point(
            EDGE, (8, 8, 8, 16), (1, 1, 2, 2), 50, 4, 8
        )
        # An unpartitioned volume exchanges no halos, so only the
        # reduction share remains; partitioning must raise the fraction.
        assert 0.0 <= solo_frac < quad_frac <= 1.0
        assert solo > 0.0 and quad > 0.0

    def test_more_iterations_cost_more(self):
        short, _ = _model_point(EDGE, (8, 8, 8, 16), (1, 1, 1, 2), 10, 4, 8)
        long, _ = _model_point(EDGE, (8, 8, 8, 16), (1, 1, 1, 2), 100, 4, 8)
        assert long > short


class TestPointSerialization:
    def test_to_dict_has_every_schema_key(self):
        doc = synthetic_points()[0].to_dict()
        for key in ("ranks", "grid", "measured_seconds", "model_seconds",
                    "measured_efficiency", "model_efficiency",
                    "measured_comm_fraction", "model_comm_fraction",
                    "iterations", "converged", "oversubscribed"):
            assert key in doc


class TestKneeChart:
    def test_renders_both_tracks_and_flags(self):
        chart = knee_chart(synthetic_points())
        assert "time to solution" in chart
        assert "parallel efficiency" in chart
        assert "measured" in chart and "model" in chart
        assert "[oversubscribed]" in chart
        assert "comm fraction" in chart


class TestReplayChargesCommunication:
    def test_two_rank_point_charges_its_sends(self):
        """A partitioned point's replay charges the messages its solve
        sent: ``replay_comm`` of the ``send`` spans of that solve."""
        from repro.comm.grid import choose_grid
        from repro.core.gcrdd import GCRDDConfig
        from repro.core.spmd import SPMDGCRDDSolver
        from repro.lattice import GaugeField, Geometry, SpinorField
        from repro.perfmodel.replay import replay_comm
        from repro.trace import tracing

        dims, seed = (4, 4, 4, 8), 11
        doc, points = run_scaling_sweep(
            dims=dims, ranks=(1, 2), tol=1e-5, backend="sequential",
            seed=seed,
        )
        solo, pair = points
        assert solo.replay_comm_seconds == 0.0
        assert pair.replay_comm_seconds > 0.0
        assert doc["results"][1]["replay_comm_seconds"] == pair.replay_comm_seconds

        geometry = Geometry(dims)
        solver = SPMDGCRDDSolver(
            GaugeField.weak(geometry, epsilon=0.25, rng=seed), -0.06, 1.0,
            choose_grid(2, (3, 2, 1, 0), dims),
            config=GCRDDConfig(tol=1e-5, precond_steps=4, kmax=8),
            backend="sequential",
        )
        with tracing() as tr:
            solver.solve(SpinorField.random(geometry, rng=seed + 1).data)
        assert pair.replay_comm_seconds == replay_comm(
            tr.events, EDGE.interconnect, 2
        )


@pytest.mark.slow
class TestLiveSweep:
    def test_tiny_sweep_end_to_end(self):
        doc, points = run_scaling_sweep(
            dims=(4, 4, 4, 8), ranks=(1, 2), tol=1e-5,
            backend="threads", timeout=120.0,
        )
        assert validate_bench(doc) == []
        assert doc["bench"] == "scaling"
        assert [p.ranks for p in points] == [1, 2]
        assert all(p.converged for p in points)
        assert all(p.measured_seconds > 0 for p in points)
        assert all(p.model_seconds > 0 for p in points)
        assert all(p.replay_seconds > 0 for p in points)
        # The baseline defines efficiency 1.0 by construction.
        assert points[0].measured_efficiency == pytest.approx(1.0)
        assert points[0].model_efficiency == pytest.approx(1.0)
        assert 0.0 <= points[1].measured_comm_fraction <= 1.0

    def test_oversubscription_is_reported_honestly(self):
        doc, points = run_scaling_sweep(
            dims=(4, 4, 4, 8), ranks=(1, 2), tol=1e-5,
            backend="sequential",
        )
        cores = os.cpu_count() or 1
        assert doc["host"]["cpu_count"] == os.cpu_count()
        for p in points:
            assert p.oversubscribed == (p.ranks > cores)
            entry = next(
                e for e in doc["results"] if e["ranks"] == p.ranks
            )
            assert entry["oversubscribed"] == p.oversubscribed

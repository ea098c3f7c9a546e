"""Per-rank waits across the SPMD backends.

The communicators charge every blocking recv wait and allreduce/barrier
rendezvous to the rank's tally (``Tally.wait_seconds``, keyed by rank and wait
kind); the backends merge the per-rank tallies at join in rank order.
The communication *pattern* of a GCR-DD solve is deterministic, so the
wait counts — and the merged tally's message/byte counts — must be
identical whichever backend executed the ranks; only the measured
durations are machine noise."""

import numpy as np
import pytest

from repro.comm.backends import process_backend_available
from repro.comm.grid import ProcessGrid
from repro.core.gcrdd import GCRDDConfig
from repro.core.spmd import SPMDGCRDDSolver
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.metrics.straggler import (
    ALLREDUCE_WAIT,
    WAIT_METRICS,
    rank_wait_stats,
    straggler_summary,
)
from repro.util.counters import Tally, tally

BACKENDS_AVAILABLE = ["sequential", "threads"] + (
    ["processes"] if process_backend_available() else []
)

N_RANKS = 4


@pytest.fixture(scope="module")
def tallies():
    """One merged tally per backend, same solve."""
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=929)
    grid = ProcessGrid((1, 1, 2, 2))
    solver = SPMDGCRDDSolver(
        gauge, 0.2, 1.0, grid, config=GCRDDConfig(tol=1e-6, precond_steps=8)
    )
    b = SpinorField.random(geom, rng=30).data
    out = {}
    for backend in BACKENDS_AVAILABLE:
        with tally() as t:
            res = solver.solve(b, backend=backend)
        assert res.converged, backend
        out[backend] = t
    return out


def _wait_counts(t):
    """Everything deterministic about a tally's waits: the count per
    (rank, kind) of the backend-comparable kinds (durations excluded)."""
    return {
        key: count
        for key, (_, count) in sorted(t.wait_seconds.items())
        if key[1] in WAIT_METRICS
    }


class TestBackendIdenticalMerge:
    def test_counter_totals_identical_across_backends(self, tallies):
        def comm(t):
            return t.messages, t.comm_bytes, t.reductions

        ref = tallies["sequential"]
        assert min(comm(ref)) > 0, "no comm recorded"
        for backend, t in tallies.items():
            assert comm(t) == comm(ref), backend

    def test_wait_observation_counts_identical_across_backends(
        self, tallies
    ):
        """Same (rank, kind) entries with the same count on every
        backend.  (The durations are timing-dependent; the allreduce
        count additionally equals the solver's deterministic reduction
        schedule, checked below.)"""
        ref = _wait_counts(tallies["sequential"])
        assert ref, "no waits recorded"
        for backend, t in tallies.items():
            assert _wait_counts(t) == ref, backend

    def test_allreduce_waits_match_reduction_count(self, tallies):
        """Every rank joins every allreduce: each rank's rendezvous wait
        count is the solve's reduction count."""
        for backend, t in tallies.items():
            counts = {
                rank: count
                for (rank, kind), (_, count) in t.wait_seconds.items()
                if kind == ALLREDUCE_WAIT
            }
            assert sorted(counts) == list(range(N_RANKS)), backend
            assert set(counts.values()) == {t.reductions}, backend


class TestOneInstancePerRank:
    def test_wait_histograms_carry_one_instance_per_rank(self, tallies):
        """One entry per (rank, kind), every rank a real rank."""
        for backend, t in tallies.items():
            for rank, kind in t.wait_seconds:
                assert 0 <= rank < N_RANKS, (backend, rank, kind)
            for kind in WAIT_METRICS:
                ranks = [r for r, k in t.wait_seconds if k == kind]
                assert sorted(ranks) == sorted(set(ranks)), (backend, kind)

    def test_every_rank_observed_waiting(self, tallies):
        for backend, t in tallies.items():
            per_rank = rank_wait_stats(t)
            assert sorted(per_rank) == list(range(N_RANKS)), backend
            for rank, kinds in per_rank.items():
                assert any(m["count"] > 0 for m in kinds.values()), (
                    backend, rank,
                )


class TestStragglerSummary:
    def test_summary_present_and_consistent(self, tallies):
        for backend, t in tallies.items():
            summary = straggler_summary(t)
            assert summary is not None, backend
            waits = summary["rank_wait_seconds"]
            assert sorted(waits) == [str(r) for r in range(N_RANKS)]
            assert summary["max_wait_seconds"] == max(waits.values())
            assert summary["max_over_median"] >= 1.0

    def test_empty_registry_has_no_summary(self):
        assert straggler_summary(Tally()) is None


class TestSolutionUnchangedByMetrics:
    def test_metrics_scope_does_not_perturb_the_solve(self):
        """Observability must be read-only: the solution with an
        enclosing tally recording the waits is bit-identical to the
        solution with none."""
        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=929)
        grid = ProcessGrid((1, 1, 2, 2))
        solver = SPMDGCRDDSolver(
            gauge, 0.2, 1.0, grid, config=GCRDDConfig(tol=1e-6, precond_steps=8)
        )
        b = SpinorField.random(geom, rng=30).data
        bare = solver.solve(b)
        with tally() as t:
            observed = solver.solve(b)
        assert rank_wait_stats(t)
        assert np.array_equal(bare.x, observed.x)
        assert tuple(bare.residual_history) == tuple(
            observed.residual_history
        )

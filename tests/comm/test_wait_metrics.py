"""Per-rank wait/comm metrics across the SPMD backends.

The communicators observe every blocking recv wait and allreduce/barrier
rendezvous into per-rank histograms; the backends merge the per-rank
registries at join in rank order.  The communication *pattern* of a
GCR-DD solve is deterministic, so the observation counts — and the
merged tally's message/byte counts — must be identical whichever backend
executed the ranks; only the measured durations are machine noise."""

import numpy as np
import pytest

from repro.comm.backends import process_backend_available
from repro.comm.grid import ProcessGrid
from repro.core.gcrdd import GCRDDConfig
from repro.core.spmd import SPMDGCRDDSolver
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.metrics.registry import metrics_scope
from repro.metrics.straggler import (
    ALLREDUCE_WAIT,
    WAIT_METRICS,
    rank_wait_stats,
    straggler_summary,
)
from repro.util.counters import tally

BACKENDS_AVAILABLE = ["sequential", "threads"] + (
    ["processes"] if process_backend_available() else []
)

N_RANKS = 4


@pytest.fixture(scope="module")
def solves():
    """One merged (metrics registry, tally) pair per backend, same solve."""
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=929)
    grid = ProcessGrid((1, 1, 2, 2))
    solver = SPMDGCRDDSolver(
        gauge, 0.2, 1.0, grid, config=GCRDDConfig(tol=1e-6, precond_steps=8)
    )
    b = SpinorField.random(geom, rng=30).data
    out = {}
    for backend in BACKENDS_AVAILABLE:
        with metrics_scope() as reg, tally() as t:
            res = solver.solve(b, backend=backend)
        assert res.converged, backend
        out[backend] = (reg, t)
    return out


@pytest.fixture(scope="module")
def registries(solves):
    return {backend: reg for backend, (reg, _) in solves.items()}


def _counts_fingerprint(reg):
    """Everything deterministic about a merged registry: counter values
    and per-histogram observation counts/bucket counts for the
    backend-comparable wait families (durations excluded)."""
    counters = {
        key: c.value for key, c in sorted(reg.counters.items())
    }
    hist_counts = {
        key: (h.edges, tuple(h.bucket_counts), h.count)
        for key, h in sorted(reg.histograms.items())
        if h.name in WAIT_METRICS
    }
    return counters, hist_counts


class TestBackendIdenticalMerge:
    def test_counter_totals_identical_across_backends(self, solves):
        def comm(t):
            return t.messages, t.comm_bytes

        ref_reg, ref_tally = solves["sequential"]
        ref_counters, _ = _counts_fingerprint(ref_reg)
        assert min(comm(ref_tally)) > 0, "no comm recorded"
        for backend, (reg, t) in solves.items():
            counters, _ = _counts_fingerprint(reg)
            assert counters == ref_counters, backend
            assert comm(t) == comm(ref_tally), backend

    def test_wait_observation_counts_identical_across_backends(
        self, registries
    ):
        """Bit-identical merge: same histogram instances, same bucket
        layout, same observation count per rank on every backend.  (The
        bucket *distribution* over duration buckets is timing-dependent,
        so only the per-instance totals are compared; the allreduce
        rendezvous count additionally equals the solver's deterministic
        reduction schedule, checked below.)"""
        ref = {
            key: (h.edges, h.count)
            for key, h in sorted(
                registries["sequential"].histograms.items()
            )
            if h.name in WAIT_METRICS
        }
        assert ref, "no wait observations recorded"
        for backend, reg in registries.items():
            got = {
                key: (h.edges, h.count)
                for key, h in sorted(reg.histograms.items())
                if h.name in WAIT_METRICS
            }
            assert got == ref, backend

    def test_allreduce_waits_match_reduction_count(self, registries):
        """Every rank joins every allreduce: each rank's rendezvous-wait
        histogram carries the same number of observations."""
        for backend, reg in registries.items():
            counts = {
                int(h.labels["rank"]): h.count
                for _, h in reg.histograms.items()
                if h.name == ALLREDUCE_WAIT
            }
            assert len(set(counts.values())) == 1, backend
            assert min(counts.values()) > 0, backend


class TestOneInstancePerRank:
    def test_wait_histograms_carry_one_instance_per_rank(self, registries):
        for backend, reg in registries.items():
            by_metric = {}
            for _, h in reg.histograms.items():
                if h.name in WAIT_METRICS:
                    assert "rank" in h.labels, (backend, h.name)
                    by_metric.setdefault(h.name, []).append(
                        int(h.labels["rank"])
                    )
            for name, ranks in by_metric.items():
                assert sorted(ranks) == sorted(set(ranks)), (backend, name)
                assert set(ranks) <= set(range(N_RANKS)), (backend, name)

    def test_every_rank_observed_waiting(self, registries):
        for backend, reg in registries.items():
            per_rank = rank_wait_stats(reg)
            assert sorted(per_rank) == list(range(N_RANKS)), backend
            for rank, metrics in per_rank.items():
                assert any(m["count"] > 0 for m in metrics.values()), (
                    backend, rank,
                )


class TestStragglerSummary:
    def test_summary_present_and_consistent(self, registries):
        for backend, reg in registries.items():
            summary = straggler_summary(reg)
            assert summary is not None, backend
            waits = summary["rank_wait_seconds"]
            assert sorted(waits) == [str(r) for r in range(N_RANKS)]
            assert summary["max_wait_seconds"] == max(waits.values())
            assert summary["max_over_median"] >= 1.0

    def test_empty_registry_has_no_summary(self):
        from repro.metrics.registry import MetricsRegistry

        assert straggler_summary(MetricsRegistry()) is None


class TestSolutionUnchangedByMetrics:
    def test_metrics_scope_does_not_perturb_the_solve(self):
        """Observability must be read-only: the solution with metrics on
        is bit-identical to the solution with metrics off."""
        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=929)
        grid = ProcessGrid((1, 1, 2, 2))
        solver = SPMDGCRDDSolver(
            gauge, 0.2, 1.0, grid, config=GCRDDConfig(tol=1e-6, precond_steps=8)
        )
        b = SpinorField.random(geom, rng=30).data
        bare = solver.solve(b)
        with metrics_scope():
            observed = solver.solve(b)
        assert np.array_equal(bare.x, observed.x)
        assert tuple(bare.residual_history) == tuple(
            observed.residual_history
        )

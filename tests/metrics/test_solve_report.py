"""SolveReport: every solve() emits one; validate, round-trip, render,
and the diff regression gate (self-diff passes, injected kernel-seconds
regression fails)."""

import copy
import json

import pytest

from repro.comm.backends import process_backend_available
from repro.core.api import SolveRequest, solve
from repro.lattice import GaugeField, Geometry, SpinorField
from repro.metrics.solve_report import (
    SolveReport,
    config_fingerprint,
    diff_reports,
    format_diff,
    render_report,
    validate_report,
)
from repro.metrics.straggler import ALLREDUCE_WAIT, RECV_WAIT, WAIT_METRICS


@pytest.fixture(scope="module")
def solved():
    geom = Geometry((4, 4, 4, 8))
    gauge = GaugeField.weak(geom, epsilon=0.25, rng=11)
    b = SpinorField.random(geom, rng=12).data
    request = SolveRequest(
        operator="wilson_clover", gauge=gauge, rhs=b,
        mass=0.1, csw=1.0, method="bicgstab", tol=1e-6,
    )
    result = solve(request)
    assert result.converged
    return request, result


class TestEverySolveEmitsAReport:
    def test_report_attached_and_valid(self, solved):
        _, result = solved
        report = result.report
        assert isinstance(report, SolveReport)
        assert validate_report(report.to_dict()) == []

    def test_solve_block_matches_result(self, solved):
        _, result = solved
        doc = result.report.to_dict()
        assert doc["solve"]["converged"] is True
        assert doc["solve"]["iterations"] == int(result.iterations)
        assert doc["solve"]["residual"] == float(result.residual)
        assert doc["residual_history"] == [
            float(r) for r in result.residual_history
        ]

    def test_tally_block_carries_kernel_seconds(self, solved):
        _, result = solved
        tally = result.report.to_dict()["tally"]
        assert tally["flops"] > 0
        assert tally["kernel_seconds"]
        assert all(v >= 0.0 for v in tally["kernel_seconds"].values())

    def test_iterations_by_precision_sums_to_iterations(self, solved):
        _, result = solved
        doc = result.report.to_dict()
        split = doc["iterations_by_precision"]
        assert split == {"double": int(result.iterations)}

    def test_wall_seconds_positive(self, solved):
        _, result = solved
        assert result.report.wall_seconds > 0.0


class TestFingerprint:
    def test_same_request_same_fingerprint(self, solved):
        request, _ = solved
        assert (
            config_fingerprint(request)["sha256"]
            == config_fingerprint(request)["sha256"]
        )

    def test_fingerprint_distinguishes_mass(self, solved):
        request, _ = solved
        other = copy.copy(request)
        other.mass = 0.2
        assert (
            config_fingerprint(request)["sha256"]
            != config_fingerprint(other)["sha256"]
        )


class TestSerialization:
    def test_json_round_trip(self, solved, tmp_path):
        _, result = solved
        path = tmp_path / "report.json"
        result.report.write(str(path))
        loaded = SolveReport.load(str(path))
        assert loaded.to_dict() == result.report.to_dict()

    def test_from_dict_rejects_invalid(self):
        with pytest.raises(ValueError):
            SolveReport.from_dict({"schema_version": 0})

    def test_validator_lists_missing_blocks(self):
        problems = validate_report({})
        joined = "\n".join(problems)
        for token in ("schema_version", "kind", "fingerprint", "solve",
                      "tally", "wall_seconds"):
            assert token in joined


class TestDiffGate:
    def test_self_diff_passes(self, solved):
        _, result = solved
        doc = result.report.to_dict()
        regressions, _ = diff_reports(doc, doc)
        assert regressions == []

    def test_injected_kernel_seconds_regression_fails(self, solved):
        """The acceptance criterion: >= 20% more kernel seconds at the
        default 20% tolerance must register as a regression."""
        _, result = solved
        baseline = result.report.to_dict()
        current = json.loads(json.dumps(baseline))
        current["tally"]["kernel_seconds"] = {
            k: 1.25 * v
            for k, v in current["tally"]["kernel_seconds"].items()
        }
        regressions, _ = diff_reports(current, baseline)
        names = {r["metric"] for r in regressions}
        assert "kernel_seconds_total" in names
        assert format_diff(regressions, []).startswith(
            f"{len(regressions)} regression(s):"
        )

    def test_regression_within_tolerance_passes(self, solved):
        _, result = solved
        baseline = result.report.to_dict()
        current = json.loads(json.dumps(baseline))
        current["tally"]["kernel_seconds"] = {
            k: 1.1 * v
            for k, v in current["tally"]["kernel_seconds"].items()
        }
        current["wall_seconds"] *= 1.1
        regressions, _ = diff_reports(current, baseline)
        assert regressions == []

    def test_count_growth_is_a_regression_at_zero_tolerance(self, solved):
        _, result = solved
        baseline = result.report.to_dict()
        current = json.loads(json.dumps(baseline))
        current["solve"]["iterations"] += 1
        current["tally"]["flops"] += 1
        regressions, _ = diff_reports(current, baseline)
        names = {r["metric"] for r in regressions}
        assert {"iterations", "flops"} <= names

    def test_count_shrink_is_not_a_regression(self, solved):
        _, result = solved
        baseline = result.report.to_dict()
        current = json.loads(json.dumps(baseline))
        current["tally"]["flops"] -= 1
        regressions, _ = diff_reports(current, baseline)
        assert regressions == []

    def test_convergence_loss_always_fails(self, solved):
        _, result = solved
        baseline = result.report.to_dict()
        current = json.loads(json.dumps(baseline))
        current["solve"]["converged"] = False
        regressions, _ = diff_reports(current, baseline, tolerance=1e9,
                                      count_tolerance=1e9)
        assert any(r["metric"] == "converged" for r in regressions)

    def test_fingerprint_mismatch_is_a_note(self, solved):
        _, result = solved
        baseline = result.report.to_dict()
        current = json.loads(json.dumps(baseline))
        current["fingerprint"]["sha256"] = "0" * 64
        regressions, notes = diff_reports(current, baseline)
        assert regressions == []
        assert any("fingerprint" in n for n in notes)


class TestRender:
    def test_render_mentions_the_essentials(self, solved):
        _, result = solved
        text = render_report(result.report.to_dict())
        assert "solve report" in text
        assert "converged=True" in text
        assert "residual history" in text
        assert "kernel seconds:" in text

    def test_no_regressions_message(self):
        assert "no regressions" in format_diff([], [])


_REPORT_BACKENDS = ["threads"] + (
    ["processes"] if process_backend_available() else []
)


class TestSPMDReport:
    """The ``ranks`` block e2e_bench reads (``count``, ``wait.<r>.<kind>
    .seconds``, ``straggler.max_over_median``), pinned per backend."""

    #: Waits a rank of this request charges, on every backend: one per
    #: completed halo receive and one per global reduction.
    RECV_WAITS, ALLREDUCE_WAITS = 112, 110

    @pytest.mark.parametrize("backend", _REPORT_BACKENDS)
    def test_spmd_solve_report_carries_rank_waits(self, backend):
        from repro.comm.grid import ProcessGrid
        from repro.core.gcrdd import GCRDDConfig

        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=929)
        b = SpinorField.random(geom, rng=30).data
        request = SolveRequest(
            operator="wilson_clover", gauge=gauge, rhs=b,
            mass=0.2, csw=1.0, method="gcr-dd",
            grid=ProcessGrid((1, 1, 2, 2)),
            config=GCRDDConfig(tol=1e-6, precond_steps=8),
            backend=backend,
        )
        result = solve(request)
        assert result.converged
        doc = result.report.to_dict()
        assert validate_report(doc) == []
        ranks = doc["ranks"]
        assert ranks["count"] == 4
        assert sorted(ranks["wait"]) == ["0", "1", "2", "3"]
        for stats in ranks["wait"].values():
            assert set(stats) <= set(WAIT_METRICS)
            for kind, count in (
                (RECV_WAIT, self.RECV_WAITS),
                (ALLREDUCE_WAIT, self.ALLREDUCE_WAITS),
            ):
                assert set(stats[kind]) == {"seconds", "count"}
                assert stats[kind]["count"] == count
                assert stats[kind]["seconds"] >= 0.0
        straggler = ranks["straggler"]
        assert straggler["max_over_median"] >= 1.0
        assert "per-rank waits" in render_report(doc)

    def test_the_overlap_wait_is_the_exchanges_recv_waits(self, monkeypatch):
        """Overlapped, each exchange's overlap wait is what its faces'
        recv waits added to the rank's tally — one wait timed once — and
        the wait table is the blocking one's."""
        import threading

        import repro.comm.communicator as communicator
        import repro.multigpu.rank_halo as rank_halo
        from repro.comm.grid import ProcessGrid
        from repro.core.gcrdd import GCRDDConfig
        from repro.util.counters import OVERLAP_WAIT

        draining = threading.local()
        recv, published = {}, []
        exchange = rank_halo.PendingExchange
        complete_dim, charge, publish = (
            exchange.complete_dim, communicator.record_wait,
            rank_halo.record_wait,
        )

        def spy_complete(self, mu):
            draining.exchange = self
            try:
                return complete_dim(self, mu)
            finally:
                draining.exchange = None

        def spy_charge(rank, kind, seconds):
            pending = getattr(draining, "exchange", None)
            if kind == RECV_WAIT and pending is not None:
                recv[pending] = recv.get(pending, 0.0) + seconds
            charge(rank, kind, seconds)

        def spy_publish(rank, kind, seconds):
            if kind == OVERLAP_WAIT:
                published.append((draining.exchange, seconds))
            publish(rank, kind, seconds)

        monkeypatch.setattr(exchange, "complete_dim", spy_complete)
        monkeypatch.setattr(communicator, "record_wait", spy_charge)
        monkeypatch.setattr(rank_halo, "record_wait", spy_publish)
        geom = Geometry((4, 4, 4, 8))
        gauge = GaugeField.weak(geom, epsilon=0.25, rng=929)
        result = solve(SolveRequest(
            operator="wilson_clover", gauge=gauge,
            rhs=SpinorField.random(geom, rng=30).data, mass=0.2, csw=1.0,
            method="gcr-dd", grid=ProcessGrid((1, 1, 2, 2)),
            config=GCRDDConfig(tol=1e-6, precond_steps=8),
            backend="sequential", overlap=True,
        ))
        assert result.converged and published
        for pending, seconds in published:
            waited = recv.get(pending, 0.0)
            assert seconds == pytest.approx(waited, rel=1e-9, abs=1e-12)
        for stats in result.report.to_dict()["ranks"]["wait"].values():
            assert stats[RECV_WAIT]["count"] == self.RECV_WAITS
            assert stats[ALLREDUCE_WAIT]["count"] == self.ALLREDUCE_WAITS

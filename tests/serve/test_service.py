"""SolveService: coalescing, bit-reproducibility, deadlines, shutdown.

Fast variants only: asqtad on a unit 4^4 gauge converges in a handful of
CG iterations, so every service test runs the real batched solve path
in well under a second.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _malformed_arrays import MALFORMED, good_field
from repro.core.api import SolveRequest, solve
from repro.lattice import Geometry, SpinorField
from repro.serve import (
    DeadlineExpiredError,
    QueueFullError,
    RequestValidationError,
    ServiceClosedError,
    SolveService,
    decode_array,
    encode_array,
)

DIMS = [4, 4, 4, 4]


def payload(seed=1, **overrides):
    doc = {
        "operator": "asqtad",
        "mass": 0.05,
        "gauge": {"kind": "unit", "dims": DIMS},
        "rhs": {"kind": "random", "seed": seed},
        "tol": 1e-8,
    }
    doc.update(overrides)
    return doc


def make_service(**kw):
    kw.setdefault("max_batch", 4)
    kw.setdefault("max_wait", 0.05)
    return SolveService(**kw)


class TestCoalescing:
    def test_compatible_requests_ride_one_batch(self):
        svc = make_service()
        tickets = [svc.submit(payload(seed=s)) for s in (1, 2, 3)]
        svc.start()
        results = [t.result(timeout=60) for t in tickets]
        svc.shutdown()
        assert all(r.converged for r in results)
        assert all(r.occupancy == 3 for r in results)
        assert sorted(r.lane for r in results) == [0, 1, 2]
        stats = svc.stats()
        assert stats["batches_total"] == 1
        assert stats["coalesce_ratio"] == 3.0

    def test_incompatible_fingerprints_never_batch(self):
        svc = make_service(max_wait=0.0)
        a = svc.submit(payload(seed=1, mass=0.05))
        b = svc.submit(payload(seed=1, mass=0.10))
        svc.start()
        ra, rb = a.result(timeout=60), b.result(timeout=60)
        svc.shutdown()
        assert ra.occupancy == 1 and rb.occupancy == 1
        assert svc.stats()["batches_total"] == 2
        # Different operators genuinely solved different systems.
        assert not np.array_equal(ra.x, rb.x)

    def test_every_result_carries_the_solve_report(self):
        svc = make_service()
        t = svc.submit(payload())
        svc.start()
        result = t.result(timeout=60)
        svc.shutdown()
        doc = result.report.to_dict()
        assert doc["fingerprint"]["config"]["operator"] == "asqtad"
        assert result.to_wire()["report"] is not None


class TestBitReproducibility:
    def test_coalesced_lane_equals_solo_padded_solve(self):
        """The service contract: a request's solution is bitwise the
        same whether it coalesced with neighbors or ran alone — in a
        batch of one or among zero lanes."""
        svc = make_service(max_batch=4)
        tickets = [svc.submit(payload(seed=s)) for s in (1, 2, 3)]
        svc.start()
        results = [t.result(timeout=60) for t in tickets]
        svc.shutdown()

        geo = Geometry(tuple(DIMS))
        from repro.lattice import GaugeField

        gauge = GaugeField.unit(geo)
        for seed, served in zip((1, 2, 3), results):
            lane = SpinorField.random(geo, nspin=1, rng=seed).data
            for rhs in (
                np.stack([lane] + [np.zeros_like(lane)] * 3),
                lane[None],
            ):
                solo = solve(SolveRequest(
                    operator="asqtad", gauge=gauge, rhs=rhs,
                    mass=0.05, method="cg", tol=1e-8,
                ))
                assert np.array_equal(served.x, np.asarray(solo.x)[0]), (
                    f"seed {seed}: served lane differs from the solo "
                    f"batch-of-{len(rhs)} solve"
                )


class TestWireArrays:
    def test_packed_and_nested_rhs_solve_to_the_same_bits(self):
        field = good_field()
        svc = make_service()
        tickets = [
            svc.submit(payload(
                rhs={"kind": "data", **encode_array(field, packed)},
                return_solution=True,
            ))
            for packed in (False, True)
        ]
        svc.start()
        nested, packed = [t.result(timeout=60) for t in tickets]
        svc.shutdown()
        assert nested.occupancy == 2  # one fingerprint, one batch
        assert nested.request.fingerprint == packed.request.fingerprint
        assert nested.x.tobytes() == packed.x.tobytes()
        # ... and either response form carries exactly those bits.
        for form in (False, True):
            wire = nested.to_wire(form)["solution"]
            assert decode_array(wire).tobytes() == nested.x.tobytes()
        assert "b64" in nested.to_wire(packed=True)["solution"]
        assert "real" in nested.to_wire()["solution"]

    @pytest.fixture(scope="class")
    def mates(self):
        """Three good requests solved without any bad batch-mate."""
        svc = make_service()
        tickets = [svc.submit(payload(seed=s)) for s in (1, 2, 3)]
        svc.start()
        results = [t.result(timeout=60) for t in tickets]
        svc.shutdown()
        return [r.x for r in results]

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_array_fails_its_own_request_only(self, case, mates):
        rhs, where = MALFORMED[case]
        svc = make_service()
        tickets = [svc.submit(payload(seed=s)) for s in (1, 2)]
        bad = svc.submit(payload(rhs=rhs, id="bad-line"))
        tickets.append(svc.submit(payload(seed=3)))
        svc.start()
        with pytest.raises(RequestValidationError) as exc:
            bad.result(timeout=60)
        results = [t.result(timeout=60) for t in tickets]
        # The dispatcher survived it and still serves.
        after = svc.submit(payload(seed=1)).result(timeout=60)
        svc.shutdown()
        assert exc.value.field == where
        assert exc.value.http_status == 400
        assert exc.value.request_id == "bad-line"
        assert where in str(exc.value)
        assert all(r.converged and r.occupancy == 3 for r in results)
        for r, alone in zip(results + [after], mates + mates[:1]):
            assert r.x.tobytes() == alone.tobytes()
        counts = svc.stats()["requests"]
        assert counts["invalid"] == 1 and counts["completed"] == 4
        assert "failed" not in counts


class TestBackpressureAndDeadlines:
    def test_full_queue_rejects_not_blocks(self):
        import time

        svc = make_service(capacity=1)  # dispatcher never started
        svc.submit(payload(seed=1))
        t0 = time.monotonic()
        with pytest.raises(QueueFullError) as exc:
            svc.submit(payload(seed=2))
        assert time.monotonic() - t0 < 0.5
        assert exc.value.http_status == 429
        assert svc.stats()["requests"]["rejected_full"] == 1

    def test_deadline_expired_requests_get_typed_error(self):
        import time

        svc = make_service()
        ticket = svc.submit(payload(timeout_seconds=0.01))
        time.sleep(0.05)  # deadline lapses while nothing dispatches
        svc.start()
        with pytest.raises(DeadlineExpiredError) as exc:
            ticket.result(timeout=60)
        svc.shutdown()
        assert exc.value.code == "deadline_expired"
        assert svc.stats()["requests"]["expired"] == 1

    def test_invalid_request_rejected_at_submit(self):
        svc = make_service()
        with pytest.raises(RequestValidationError) as exc:
            svc.submit(payload(operator="overlap"))
        assert exc.value.field == "operator"
        assert svc.stats()["requests"]["invalid"] == 1


class TestShutdown:
    def test_graceful_drain_completes_queued_work(self):
        svc = make_service()
        tickets = [svc.submit(payload(seed=s)) for s in (1, 2)]
        svc.start()
        svc.shutdown(drain=True, timeout=120)
        # Everything admitted before the drain still got solved.
        results = [t.result(timeout=0) for t in tickets]
        assert all(r.converged for r in results)
        assert not svc.running

    def test_drain_rejects_new_submissions(self):
        svc = make_service().start()
        svc.shutdown(drain=True, timeout=60)
        with pytest.raises(ServiceClosedError):
            svc.submit(payload())

    def test_non_graceful_shutdown_fails_queued_with_typed_error(self):
        svc = make_service()  # never started: requests stay queued
        tickets = [svc.submit(payload(seed=s)) for s in (1, 2)]
        svc.shutdown(drain=False)
        for t in tickets:
            with pytest.raises(ServiceClosedError):
                t.result(timeout=0)


class TestMetrics:
    def test_prometheus_export_carries_service_series(self):
        svc = make_service()
        tickets = [svc.submit(payload(seed=s)) for s in (1, 2)]
        svc.start()
        for t in tickets:
            t.result(timeout=60)
        svc.shutdown()
        text = svc.prometheus()
        for name in (
            "serve_requests_total",
            "serve_queue_depth",
            "serve_batches_total",
            "serve_batch_occupancy",
            "serve_request_latency_seconds",
        ):
            assert name in text, f"missing {name} in export"
        # Occupancy histogram recorded one 2-lane batch.
        assert 'serve_batch_occupancy_bucket{le="2.0"} 1' in text
        # The daemon's registry holds the daemon's series only: a
        # served solve's own cost stays in its report.
        families = [
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert families
        assert all(name.startswith("serve_") for name in families), families

    def test_wire_cost_histograms(self):
        """serve_decode_seconds: one sample per completed request (the
        caller's parse time + validation + rhs build); serve_encode_
        seconds: whatever the front reports per response."""
        svc = make_service()
        tickets = [svc.submit(payload(seed=1)),
                   svc.submit(payload(seed=2), decode_seconds=5.0)]
        svc.start()
        for t in tickets:
            t.result(timeout=60)
        svc.shutdown()
        svc.observe_encode(0.25)
        text = svc.prometheus()
        assert "serve_decode_seconds_count 2" in text
        assert "serve_encode_seconds_count 1" in text
        assert "serve_encode_seconds_sum 0.25" in text
        (total,) = [float(ln.split()[1]) for ln in text.splitlines()
                    if ln.startswith("serve_decode_seconds_sum")]
        assert 5.0 < total < 6.0

    def test_stats_reports_latency_percentiles(self):
        svc = make_service()
        tickets = [svc.submit(payload(seed=s)) for s in (1, 2, 3)]
        svc.start()
        for t in tickets:
            t.result(timeout=60)
        svc.shutdown()
        latency = svc.stats()["latency"]
        for label in ("queue_wait_seconds", "solve_seconds",
                      "latency_seconds"):
            block = latency[label]
            assert set(block) == {"p50", "p90", "p99"}, label
            assert 0.0 <= block["p50"] <= block["p90"] <= block["p99"]
        # End-to-end latency includes queue wait and the solve.
        assert latency["latency_seconds"]["p50"] >= (
            latency["solve_seconds"]["p50"] * 0.5
        )

    def test_stats_latency_blocks_null_before_any_request(self):
        svc = make_service()
        latency = svc.stats()["latency"]
        assert latency["queue_wait_seconds"] is None
        assert latency["solve_seconds"] is None
        assert latency["latency_seconds"] is None

    def test_a_drain_does_not_wait_out_the_coalescing_window(self):
        """``--max-wait 5`` and one queued request: closing the service
        answers it and returns in well under a second."""
        svc = make_service(max_wait=5.0)
        ticket = svc.submit(payload())
        svc.start()
        time.sleep(0.1)  # the dispatcher is inside the window now
        t0 = time.monotonic()
        svc.shutdown(timeout=30)
        assert time.monotonic() - t0 < 1.0 and not svc.running
        assert ticket.result(timeout=0).converged

    def test_setup_cache_reuses_gauge_and_links(self):
        svc = make_service(max_wait=0.0)
        a = svc.submit(payload(seed=1))
        svc.start()
        a.result(timeout=60)
        b = svc.submit(payload(seed=2))
        b.result(timeout=60)
        svc.shutdown()
        assert len(svc._gauges) == 1
        assert len(svc._asqtad_links) == 1


class TestPrecondServing:
    def test_preconditioned_batch_converges_faster(self):
        # A weak (non-unit) gauge: rough enough that the block solves
        # actually pay for themselves.
        gauge = {"kind": "weak", "dims": DIMS, "seed": 3}
        svc = make_service()
        plain = [svc.submit(payload(seed=s, gauge=gauge)) for s in (1, 2)]
        pre = [
            svc.submit(payload(seed=s, gauge=gauge, precond="multisplit"))
            for s in (1, 2)
        ]
        svc.start()
        plain_res = [t.result(timeout=120) for t in plain]
        pre_res = [t.result(timeout=120) for t in pre]
        svc.shutdown()
        assert all(r.converged for r in plain_res + pre_res)
        # Different fingerprints: two batches, never coalesced together.
        assert all(r.occupancy == 2 for r in plain_res + pre_res)
        assert pre_res[0].iterations < plain_res[0].iterations

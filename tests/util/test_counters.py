"""Tally stack: nesting, merging, domain-local scoping, thread locality,
and the timed() bridge into the trace subsystem."""

import threading

import pytest

from repro import trace
from repro.util.counters import (
    Tally,
    current_tally,
    domain_local,
    record,
    record_operator,
    record_seconds,
    tally,
    timed,
)


class TestBasics:
    def test_no_active_tally(self):
        assert current_tally() is None
        record(flops=10)  # silently ignored

    def test_record_inside(self):
        with tally() as t:
            record(flops=100, bytes_moved=200, comm_bytes=30, messages=2)
        assert t.flops == 100
        assert t.bytes_moved == 200
        assert t.comm_bytes == 30
        assert t.messages == 2

    def test_operator_counting(self):
        with tally() as t:
            record_operator("wilson")
            record_operator("wilson")
            record_operator("asqtad", 3)
        assert t.operator_applications == {"wilson": 2, "asqtad": 3}

    def test_stack_restored_after_exit(self):
        with tally():
            pass
        assert current_tally() is None


class TestNesting:
    def test_inner_merges_into_outer(self):
        with tally() as outer:
            record(flops=1)
            with tally() as inner:
                record(flops=10, reductions=2)
            record(flops=100)
        assert inner.flops == 10
        assert outer.flops == 111
        assert outer.reductions == 2

    def test_inner_sees_only_its_region(self):
        with tally():
            record(flops=5)
            with tally() as inner:
                record(flops=7)
            assert inner.flops == 7

    def test_operator_counts_merge(self):
        with tally() as outer:
            with tally():
                record_operator("schwarz")
        assert outer.operator_applications == {"schwarz": 1}


class TestDomainLocal:
    def test_redirects_reductions(self):
        with tally() as t:
            with domain_local():
                record(reductions=3)
            record(reductions=1)
        assert t.reductions == 1
        assert t.local_reductions == 3

    def test_nested_scopes(self):
        with tally() as t:
            with domain_local():
                with domain_local():
                    record(reductions=1)
                record(reductions=1)
        assert t.local_reductions == 2
        assert t.reductions == 0

    def test_flops_unaffected(self):
        with tally() as t:
            with domain_local():
                record(flops=42, reductions=1)
        assert t.flops == 42


class TestSerialization:
    def _populated(self):
        t = Tally(
            flops=12, bytes_moved=34, comm_bytes=56, messages=7,
            reductions=8, local_reductions=9, seconds=1.25,
        )
        t.add_operator("wilson", 3)
        t.add_seconds("wilson_dslash", 0.75)
        t.add_seconds("halo_exchange", 0.5)
        t.add_wait(0, "spmd_recv_wait_seconds", 0.125)
        t.add_wait(0, "spmd_recv_wait_seconds", 0.0625)
        t.add_wait(3, "spmd_allreduce_wait_seconds", 1e-7)
        return t

    def test_round_trip_exact(self):
        t = self._populated()
        clone = Tally.from_dict(t.to_dict())
        assert clone == t
        assert clone.to_dict() == t.to_dict()
        assert clone.wait_seconds[(0, "spmd_recv_wait_seconds")] == [0.1875, 2]

    def test_round_trip_survives_json(self):
        import json

        t = self._populated()
        assert Tally.from_dict(json.loads(json.dumps(t.to_dict()))) == t

    def test_to_dict_snapshots_are_independent(self):
        t = self._populated()
        doc = t.to_dict()
        doc["kernel_seconds"]["wilson_dslash"] = 99.0
        doc["operator_applications"]["wilson"] = 99
        assert t.kernel_seconds["wilson_dslash"] == 0.75
        assert t.operator_applications["wilson"] == 3

    def test_missing_keys_default_to_zero(self):
        t = Tally.from_dict({})
        assert t == Tally()


class TestDomainLocalSeconds:
    def test_record_forwards_seconds_inside_domain_local(self):
        """Regression guard: the domain-local branch of record() passes
        ``seconds`` positionally through add() — dropping it there would
        silently zero kernel time measured inside Schwarz block solves."""
        with tally() as t:
            with domain_local():
                record(reductions=2, seconds=0.5)
        assert t.local_reductions == 2
        assert t.seconds == 0.5

    def test_seconds_recorded_identically_outside(self):
        with tally() as t:
            record(seconds=0.25)
        assert t.seconds == 0.25


class TestMerge:
    def test_manual_merge(self):
        a = Tally(flops=1, reductions=2)
        a.add_wait(0, "spmd_recv_wait_seconds", 0.5)
        b = Tally(flops=10, local_reductions=5)
        b.add_operator("x")
        b.add_wait(0, "spmd_recv_wait_seconds", 0.25)
        b.add_wait(1, "spmd_recv_wait_seconds", 1.0, count=3)
        a.merge(b)
        assert a.flops == 11
        assert a.reductions == 2
        assert a.local_reductions == 5
        assert a.operator_applications == {"x": 1}
        assert a.wait_seconds == {
            (0, "spmd_recv_wait_seconds"): [0.75, 2],
            (1, "spmd_recv_wait_seconds"): [1.0, 3],
        }
        # Merging copies: the source's entries stay its own.
        assert b.wait_seconds[(0, "spmd_recv_wait_seconds")] == [0.25, 1]


class TestTiming:
    def test_record_seconds_accumulates_per_kernel(self):
        with tally() as t:
            record_seconds("wilson_dslash", 0.5)
            record_seconds("wilson_dslash", 0.25)
            record_seconds("halo_exchange", 1.0)
        assert t.seconds == 1.75
        assert t.kernel_seconds == {
            "wilson_dslash": 0.75,
            "halo_exchange": 1.0,
        }

    def test_timed_charges_elapsed_time(self):
        with tally() as t:
            with timed("kernel"):
                sum(range(1000))
        assert t.kernel_seconds["kernel"] > 0.0
        assert t.seconds == t.kernel_seconds["kernel"]

    def test_timed_noop_without_tally(self):
        with timed("kernel"):
            pass  # must not raise
        assert current_tally() is None

    def test_timing_merges_into_outer_tally(self):
        with tally() as outer:
            with tally() as inner:
                record_seconds("k", 0.5)
            record_seconds("k", 0.25)
        assert inner.kernel_seconds == {"k": 0.5}
        assert outer.kernel_seconds == {"k": 0.75}
        assert outer.seconds == 0.75


class TestThreadLocality:
    def test_tally_not_visible_in_other_thread(self):
        seen = {}

        def worker():
            seen["tally"] = current_tally()
            record(flops=999)  # must vanish, not leak into main's tally

        with tally() as t:
            th = threading.Thread(target=worker)
            th.start()
            th.join()
        assert seen["tally"] is None
        assert t.flops == 0

    def test_threads_nest_independently(self):
        results = {}

        def worker():
            with tally() as inner:
                record(flops=7)
            results["flops"] = inner.flops

        with tally() as t:
            record(flops=1)
            th = threading.Thread(target=worker)
            th.start()
            th.join()
        assert results["flops"] == 7
        assert t.flops == 1  # worker's tally never merged across threads


class TestTimedTraceBridge:
    def test_timed_emits_span_with_identical_duration(self):
        with trace.tracing() as tr, tally() as t:
            with timed("kernel", kind="interior"):
                sum(range(1000))
        (ev,) = tr.events
        assert ev.name == "kernel"
        assert ev.kind == "interior"
        assert ev.args["source"] == "timed"
        # One shared measurement: exactly equal, not approximately.
        assert ev.duration == t.kernel_seconds["kernel"]

    def test_timed_traces_without_tally(self):
        with trace.tracing() as tr:
            with timed("kernel"):
                pass
        assert [ev.name for ev in tr.events] == ["kernel"]
        assert current_tally() is None

    def test_timed_tallies_without_tracer(self):
        with tally() as t:
            with timed("kernel"):
                pass
        assert "kernel" in t.kernel_seconds

    def test_timed_inherits_rank_from_enclosing_span(self):
        with trace.tracing() as tr:
            with trace.span("interior_kernel", kind="interior", rank=5,
                            stream="compute"):
                with timed("wilson_dslash", kind="dslash"):
                    pass
        dslash = next(ev for ev in tr.events if ev.name == "wilson_dslash")
        assert dslash.rank == 5
        assert dslash.stream == "compute"


class TestNestedTimedGuard:
    def test_nesting_raises_under_debug_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_TIMING", "1")
        with tally():
            with timed("outer"):
                with pytest.raises(RuntimeError, match="nested timed"):
                    with timed("inner"):
                        pass

    def test_nesting_tolerated_without_debug_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG_TIMING", raising=False)
        with tally() as t:
            with timed("outer"):
                with timed("inner"):
                    pass
        assert set(t.kernel_seconds) == {"outer", "inner"}

    def test_nested_span_flagged_in_trace(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG_TIMING", raising=False)
        with trace.tracing() as tr, tally():
            with timed("outer"):
                with timed("inner"):
                    pass
        by_name = {ev.name: ev for ev in tr.events}
        assert by_name["inner"].args.get("nested") is True
        assert "nested" not in by_name["outer"].args

    def test_nested_flag_surfaces_in_summary_table(self, monkeypatch):
        from repro.trace.summary import format_table, summarize

        monkeypatch.delenv("REPRO_DEBUG_TIMING", raising=False)
        with trace.tracing() as tr, tally():
            with timed("outer"):
                with timed("inner"):
                    pass
        stats = {s.name: s for s in summarize(tr.events)}
        assert stats["inner"].nested == 1
        assert stats["outer"].nested == 0
        table = format_table(tr.events)
        assert "NESTED x1" in table
        assert "double-count" in table

    def test_depth_resets_after_exception(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_TIMING", "1")
        with tally():
            with pytest.raises(ValueError):
                with timed("outer"):
                    raise ValueError("kernel blew up")
            # The guard must not think we are still inside "outer".
            with timed("again"):
                pass

    def test_sibling_regions_are_not_nested(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_TIMING", "1")
        with tally() as t:
            with timed("first"):
                pass
            with timed("second"):
                pass
        assert set(t.kernel_seconds) == {"first", "second"}


class TestAllreduceAccounting:
    """Regression: allreduce_sum recorded the reduction event but zero
    wire bytes — global sums looked free in the communication ledger."""

    def test_scalar_allreduce_charges_bytes(self):
        import numpy as np

        from repro.comm.mailbox import Mailbox

        box = Mailbox(4)
        parts = [np.complex128(r + 1) for r in range(4)]
        with tally() as t:
            total = box.allreduce_sum(parts)
        assert total == np.complex128(10)
        assert t.reductions == 1
        assert t.comm_bytes == 16 * 4  # one complex128 per rank

    def test_batched_allreduce_scales_with_payload(self):
        import numpy as np

        from repro.comm.mailbox import Mailbox

        box = Mailbox(2)
        nb = 12
        parts = [np.ones(nb, dtype=np.complex128) for _ in range(2)]
        with tally() as t:
            total = box.allreduce_sum(parts)
        assert np.all(total == 2.0)
        # Payload grows with the batch, the event count does not.
        assert t.reductions == 1
        assert t.comm_bytes == nb * 16 * 2

    def test_allreduce_charges_one_message_per_rank(self):
        # Regression: allreduce_sum charged bytes and the reduction event
        # but zero messages, while each SPMD rank endpoint charges one
        # message for its contribution — merged per-rank tallies then
        # disagreed with the global-view message count.  The convention:
        # an allreduce costs one message per participating rank.
        import numpy as np

        from repro.comm.mailbox import Mailbox

        box = Mailbox(4)
        parts = [np.complex128(r) for r in range(4)]
        with tally() as t:
            box.allreduce_sum(parts)
        assert t.messages == box.size
        assert t.comm_bytes == 16 * box.size
        assert t.reductions == 1

    def test_global_view_equals_summed_spmd_shares(self):
        import numpy as np

        from repro.comm.communicator import record_collective
        from repro.comm.mailbox import Mailbox

        size = 4
        parts = [np.float64(r + 0.5) for r in range(size)]
        with tally() as globalview:
            Mailbox(size).allreduce_sum(parts)
        with tally() as merged:
            for rank in range(size):
                record_collective(rank, parts[rank])
        assert merged.messages == globalview.messages
        assert merged.comm_bytes == globalview.comm_bytes
        assert merged.reductions == globalview.reductions

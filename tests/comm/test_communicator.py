"""The rank-local Communicator protocol and its mailbox endpoint."""

import threading

import numpy as np
import pytest

from repro.comm import Mailbox, MailboxCommunicator
from repro.comm.communicator import (
    BACKENDS,
    record_collective,
    reduce_in_rank_order,
)
from repro.metrics.straggler import RECV_WAIT
from repro.util.counters import tally
from repro.util.counters import tally


class TestReduceInRankOrder:
    def test_left_fold_order(self):
        # Floating-point addition is not associative; the canonical fold
        # is the left fold ((p0+p1)+p2)+p3 — assert exact bit equality
        # with the hand-written chain, not with a different grouping.
        parts = [0.1, 0.2, 0.3, 1e16]
        assert reduce_in_rank_order(parts) == ((0.1 + 0.2) + 0.3) + 1e16

    def test_matches_mailbox_allreduce(self):
        parts = [np.float64(0.1 * (r + 1)) for r in range(4)]
        assert reduce_in_rank_order(parts) == Mailbox(4).allreduce_sum(parts)

    def test_array_contributions(self):
        parts = [np.arange(3.0) + r for r in range(3)]
        assert np.array_equal(reduce_in_rank_order(parts), np.arange(3.0) * 3 + 3)


class TestRecordCollective:
    def test_rank0_owns_the_reduction_event(self):
        value = np.complex128(1.0)
        tallies = []
        for rank in range(4):
            with tally() as t:
                record_collective(rank, value)
            tallies.append(t)
        assert [t.reductions for t in tallies] == [1, 0, 0, 0]
        # Every participant pays its own wire share.
        assert all(t.comm_bytes == value.nbytes for t in tallies)
        assert all(t.messages == 1 for t in tallies)

    def test_per_rank_shares_sum_to_global_accounting(self):
        box = Mailbox(4)
        parts = [np.complex128(r) for r in range(4)]
        with tally() as globalview:
            box.allreduce_sum(parts)
        with tally() as merged:
            for rank in range(4):
                record_collective(rank, parts[rank])
        assert merged.reductions == globalview.reductions == 1
        assert merged.messages == globalview.messages == 4
        assert merged.comm_bytes == globalview.comm_bytes


class TestMailboxCommunicator:
    def test_rank_and_size(self):
        comm = MailboxCommunicator(Mailbox(3), 1)
        assert (comm.rank, comm.size) == (1, 3)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            MailboxCommunicator(Mailbox(2), 5)

    def test_isend_recv_roundtrip(self, rng):
        box = Mailbox(2)
        tx, rx = MailboxCommunicator(box, 0), MailboxCommunicator(box, 1)
        payload = rng.standard_normal(8)
        handle = tx.isend(1, payload)
        handle.wait()  # sends are eager: wait is a no-op
        assert np.array_equal(rx.recv(0), payload)

    def test_irecv_wait(self, rng):
        box = Mailbox(2)
        tx, rx = MailboxCommunicator(box, 0), MailboxCommunicator(box, 1)
        payload = rng.standard_normal(4)
        handle = rx.irecv(0, tag="h")
        tx.send(1, payload, tag="h")
        assert np.array_equal(rx.wait(handle), payload)

    def test_wait_is_idempotent(self, rng):
        box = Mailbox(2)
        MailboxCommunicator(box, 0).send(1, rng.standard_normal(4))
        handle = MailboxCommunicator(box, 1).irecv(0)
        assert np.array_equal(handle.wait(), handle.wait())

    def test_tags_are_separate(self):
        box = Mailbox(2)
        tx, rx = MailboxCommunicator(box, 0), MailboxCommunicator(box, 1)
        tx.send(1, np.array([1.0]), tag="a")
        tx.send(1, np.array([2.0]), tag="b")
        assert rx.recv(0, tag="b")[0] == 2.0
        assert rx.recv(0, tag="a")[0] == 1.0

    def test_driver_mode_missing_message_raises(self):
        comm = MailboxCommunicator(Mailbox(2), 0)
        with pytest.raises(RuntimeError, match="deadlock"):
            comm.recv(1)

    def test_driver_mode_collectives_raise(self):
        comm = MailboxCommunicator(Mailbox(2), 0)
        with pytest.raises(RuntimeError, match="rendezvous"):
            comm.allreduce_sum(1.0)
        with pytest.raises(RuntimeError, match="rendezvous"):
            comm.barrier()

    def test_send_charges_the_sender(self):
        box = Mailbox(2)
        payload = np.zeros(16)
        with tally() as t:
            MailboxCommunicator(box, 0).send(1, payload)
        assert t.comm_bytes == payload.nbytes
        assert t.messages == 1


class TestWireBytes:
    """The wire size a send is charged: the payload's bytes, unless the
    sender passes ``nbytes`` (what a halo send's ``send`` span records)."""

    def test_physical_bytes_without_event(self):
        box = Mailbox(2)
        with tally() as t:
            MailboxCommunicator(box, 0).send(1, np.zeros(16))
        assert t.comm_bytes == 128

    def test_event_overrides_physical_bytes(self):
        # Reduced-precision halos travel smaller than the numpy carrier.
        box = Mailbox(2)
        with tally() as t:
            MailboxCommunicator(box, 0).send(1, np.zeros(16), nbytes=40)
        assert (t.messages, t.comm_bytes) == (1, 40)


class TestWaitAny:
    def test_irecv_is_posted_not_received(self):
        """The original bug: irecv must return an incomplete handle that
        never pulls the message eagerly."""
        box = Mailbox(2)
        rx = MailboxCommunicator(box, 1)
        handle = rx.irecv(0, tag="face")
        assert not handle.complete
        assert handle.test() is False  # nothing sent yet; never blocks

    def test_test_claims_an_arrived_message(self, rng):
        box = Mailbox(2)
        tx, rx = MailboxCommunicator(box, 0), MailboxCommunicator(box, 1)
        handle = rx.irecv(0, tag="face")
        payload = rng.standard_normal(4)
        tx.send(1, payload, tag="face")
        assert handle.test() is True
        assert handle.complete
        assert np.array_equal(handle.wait(), payload)  # no further wait

    def test_returns_lowest_index_ready_handle(self, rng):
        box = Mailbox(3)
        rx = MailboxCommunicator(box, 2)
        handles = [rx.irecv(0, tag="a"), rx.irecv(1, tag="b")]
        MailboxCommunicator(box, 1).send(2, rng.standard_normal(2), tag="b")
        MailboxCommunicator(box, 0).send(2, rng.standard_normal(2), tag="a")
        # Both are ready; determinism requires the lowest index wins.
        assert rx.wait_any(handles) == 0
        assert rx.wait_any(handles) == 1

    def test_completes_exactly_one_handle_per_call(self, rng):
        box = Mailbox(2)
        tx, rx = MailboxCommunicator(box, 0), MailboxCommunicator(box, 1)
        handles = [rx.irecv(0, tag=i) for i in range(3)]
        for i in range(3):
            tx.send(1, rng.standard_normal(2), tag=i)
        assert rx.wait_any(handles) == 0
        assert [h.complete for h in handles] == [True, False, False]

    def test_all_complete_raises(self, rng):
        box = Mailbox(2)
        tx, rx = MailboxCommunicator(box, 0), MailboxCommunicator(box, 1)
        handle = rx.irecv(0)
        tx.send(1, rng.standard_normal(2))
        handle.wait()
        with pytest.raises(ValueError, match="already complete"):
            rx.wait_any([handle])

    def test_driver_mode_deadlock_raises(self):
        rx = MailboxCommunicator(Mailbox(2), 1)
        with pytest.raises(RuntimeError, match="deadlock"):
            rx.wait_any([rx.irecv(0, tag="never")])

    def test_threaded_wait_blocks_until_arrival(self, rng):
        box = Mailbox(2)
        tx = MailboxCommunicator(box, 0)
        rx = MailboxCommunicator(box, 1, blocking=True, timeout=10.0)
        payload = rng.standard_normal(4)
        handle = rx.irecv(0, tag="late")
        timer = threading.Timer(
            0.05, lambda: tx.send(1, payload, tag="late")
        )
        timer.start()
        try:
            assert rx.wait_any([handle]) == 0
        finally:
            timer.cancel()
        assert np.array_equal(handle._data, payload)

    def test_threaded_wait_any_times_out_with_diagnostic(self):
        box = Mailbox(2)
        rx = MailboxCommunicator(box, 1, blocking=True, timeout=0.05)
        with pytest.raises(RuntimeError, match="timed out"):
            rx.wait_any([rx.irecv(0, tag="never")])

    def test_one_wait_observation_per_completion(self, rng):
        """Count invariance: draining N handles through wait_any costs
        exactly N recv-wait observations — the same as N blocking recvs,
        whatever the arrival order."""
        box = Mailbox(2)
        tx, rx = MailboxCommunicator(box, 0), MailboxCommunicator(box, 1)
        with tally() as t:
            handles = [rx.irecv(0, tag=i) for i in range(4)]
            for i in range(4):
                tx.send(1, rng.standard_normal(2), tag=i)
            remaining = list(handles)
            while remaining:
                index = rx.wait_any(remaining)
                remaining.pop(index)
        assert list(t.wait_seconds) == [(1, RECV_WAIT)]
        assert t.wait_seconds[(1, RECV_WAIT)][1] == 4


class TestBackendsConstant:
    def test_names(self):
        assert BACKENDS == ("sequential", "threads", "processes")

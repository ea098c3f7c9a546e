"""Virtual message passing: the mailbox layer."""

import numpy as np
import pytest

from repro.comm import Mailbox
from repro.util.counters import tally


class TestMailbox:
    def test_send_recv_roundtrip(self, rng):
        box = Mailbox(4)
        payload = rng.standard_normal(10)
        box.send(0, 2, payload)
        out = box.recv(2, 0)
        assert np.array_equal(out, payload)

    def test_payload_is_copied(self):
        box = Mailbox(2)
        payload = np.ones(4)
        box.send(0, 1, payload)
        payload[...] = -1
        assert np.array_equal(box.recv(1, 0), np.ones(4))

    def test_fifo_ordering(self):
        box = Mailbox(2)
        box.send(0, 1, np.array([1.0]))
        box.send(0, 1, np.array([2.0]))
        assert box.recv(1, 0)[0] == 1.0
        assert box.recv(1, 0)[0] == 2.0

    def test_tags_are_separate_queues(self):
        box = Mailbox(2)
        box.send(0, 1, np.array([1.0]), tag="a")
        box.send(0, 1, np.array([2.0]), tag="b")
        assert box.recv(1, 0, tag="b")[0] == 2.0
        assert box.recv(1, 0, tag="a")[0] == 1.0

    def test_recv_empty_raises(self):
        with pytest.raises(RuntimeError, match="deadlock"):
            Mailbox(2).recv(1, 0)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            Mailbox(2).send(0, 5, np.zeros(1))

    def test_pending(self):
        box = Mailbox(2)
        assert box.pending() == 0
        box.send(0, 1, np.zeros(3))
        assert box.pending() == 1
        box.recv(1, 0)
        assert box.pending() == 0

    def test_traffic_accounting(self):
        box = Mailbox(2)
        payload = np.zeros(16)
        with tally() as t:
            box.send(0, 1, payload)
        assert t.comm_bytes == payload.nbytes
        assert t.messages == 1

    def test_commlog(self):
        """The comm ledger is the sender's tally: a send given its wire
        size (a reduced-precision halo travels smaller than its carrier)
        is charged that size, once."""
        box = Mailbox(2)
        payload = np.zeros(16)  # 128 physical bytes, 40 on the wire
        with tally() as t:
            box.send(0, 1, payload, nbytes=40)
        assert (t.messages, t.comm_bytes) == (1, 40)
        assert np.array_equal(box.recv(1, 0), payload)

    def test_allreduce(self):
        box = Mailbox(4)
        with tally() as t:
            total = box.allreduce_sum([1.0, 2.0, 3.0, 4.0])
        assert total == 10.0
        assert t.reductions == 1

    def test_allreduce_charges_one_message_per_rank(self):
        # Regression: the collective recorded its payload bytes but zero
        # messages, so message counts disagreed between the global-view
        # allreduce and the summed per-rank SPMD charges.
        box = Mailbox(4)
        parts = [np.float64(r) for r in range(4)]
        with tally() as t:
            box.allreduce_sum(parts)
        assert t.messages == 4
        assert t.comm_bytes == 8 * 4

    def test_allreduce_arity_check(self):
        with pytest.raises(ValueError):
            Mailbox(4).allreduce_sum([1.0, 2.0])


class TestBlockingRecv:
    def test_blocks_until_sent(self):
        import threading

        box = Mailbox(2)
        payload = np.arange(4.0)

        def sender():
            box.send(0, 1, payload)

        t = threading.Timer(0.05, sender)
        t.start()
        try:
            out = box.recv(1, 0, block=True, timeout=10.0)
        finally:
            t.join()
        assert np.array_equal(out, payload)

    def test_timeout_raises_diagnostic(self):
        box = Mailbox(2)
        box.send(0, 1, np.zeros(2), tag="other")
        with pytest.raises(RuntimeError, match="timed out") as err:
            box.recv(1, 0, tag="wanted", block=True, timeout=0.05)
        # The diagnostic names the missing edge and dumps what IS pending.
        message = str(err.value)
        assert "with tag 'wanted'" in message
        assert "tag='other'" in message

    def test_probe(self):
        box = Mailbox(2)
        assert not box.probe(1, 0)
        box.send(0, 1, np.zeros(1))
        assert box.probe(1, 0)
        assert not box.probe(1, 0, tag="elsewhere")


class TestDeadlockDiagnostics:
    def test_empty_mailbox_summary(self):
        assert "no pending messages" in Mailbox(2).pending_summary()

    def test_summary_lists_src_dst_tag_and_count(self):
        box = Mailbox(4)
        box.send(0, 1, np.zeros(2), tag="halo")
        box.send(0, 1, np.zeros(2), tag="halo")
        box.send(3, 2, np.zeros(2))
        summary = box.pending_summary()
        assert "0 -> 1  tag='halo'  (2 messages)" in summary
        assert "3 -> 2  tag=0  (1 message)" in summary

    def test_recv_error_includes_pending_queues(self):
        box = Mailbox(3)
        box.send(0, 2, np.zeros(1), tag="stray")
        with pytest.raises(RuntimeError) as err:
            box.recv(1, 0)
        message = str(err.value)
        assert "no message from 0 to 1" in message
        assert "0 -> 2  tag='stray'  (1 message)" in message

    def test_drained_queues_are_not_listed(self):
        box = Mailbox(2)
        box.send(0, 1, np.zeros(1))
        box.recv(1, 0)
        assert "no pending messages" in box.pending_summary()

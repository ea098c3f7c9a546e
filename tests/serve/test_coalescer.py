"""Coalescer: grouping by fingerprint, window limits, deadline sweeps."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve.coalescer import Coalescer
from repro.serve.queue import QueuedRequest, SolveQueue, Ticket


class _Req:
    def __init__(self, priority=0, fingerprint="fp"):
        self.priority = priority
        self.fingerprint = fingerprint
        self.id = None


def entry(priority=0, fingerprint="fp", deadline=None):
    return QueuedRequest(
        request=_Req(priority, fingerprint), ticket=Ticket(),
        deadline=deadline,
    )


class TestGrouping:
    def test_same_fingerprint_coalesces(self):
        q = SolveQueue()
        entries = [entry(fingerprint="A") for _ in range(3)]
        for e in entries:
            q.put(e)
        out = Coalescer(q, max_batch=4, max_wait=0.0).next_group(
            poll_timeout=0
        )
        assert out.group == entries
        assert not out.expired

    def test_incompatible_fingerprints_never_batch(self):
        q = SolveQueue()
        a = entry(fingerprint="A")
        b = entry(fingerprint="B")
        q.put(a)
        q.put(b)
        c = Coalescer(q, max_batch=4, max_wait=0.0)
        first = c.next_group(poll_timeout=0)
        second = c.next_group(poll_timeout=0)
        assert first.group == [a]
        assert second.group == [b]

    def test_max_batch_caps_the_group(self):
        q = SolveQueue()
        entries = [entry() for _ in range(5)]
        for e in entries:
            q.put(e)
        out = Coalescer(q, max_batch=3, max_wait=0.0).next_group(
            poll_timeout=0
        )
        assert out.group == entries[:3]
        assert q.depth == 2

    def test_idle_poll_returns_empty_group(self):
        q = SolveQueue()
        out = Coalescer(q, max_wait=0.0).next_group(poll_timeout=0.01)
        assert out.group == [] and out.expired == []


class TestWindow:
    def test_window_waits_for_late_compatible_request(self):
        q = SolveQueue()
        leader = entry(fingerprint="A")
        q.put(leader)
        late = entry(fingerprint="A")
        threading.Timer(0.05, q.put, args=(late,)).start()
        # max_batch=2: the late arrival fills the batch and closes the
        # window early, well before the 1 s max_wait.
        out = Coalescer(q, max_batch=2, max_wait=1.0).next_group(
            poll_timeout=0.5
        )
        assert out.group == [leader, late]
        assert out.waited_seconds < 0.9

    def test_full_batch_closes_window_early(self):
        q = SolveQueue()
        entries = [entry() for _ in range(4)]
        for e in entries:
            q.put(e)
        t0 = time.monotonic()
        out = Coalescer(q, max_batch=4, max_wait=5.0).next_group(
            poll_timeout=0.5
        )
        assert out.group == entries
        assert time.monotonic() - t0 < 1.0


    @pytest.mark.parametrize("close_after", [None, 0.05],
                             ids=["closed-before", "closed-during"])
    def test_a_closed_queue_ends_the_window(self, close_after):
        """Nothing can arrive once the queue is closed: a drain dispatches
        what was gathered instead of sitting out ``max_wait``."""
        q = SolveQueue()
        leader, mate = entry(fingerprint="A"), entry(fingerprint="A")
        q.put(leader)
        q.put(mate)
        if close_after is None:
            q.close()
        else:
            threading.Timer(close_after, q.close).start()
        t0 = time.monotonic()
        out = Coalescer(q, max_batch=4, max_wait=5.0).next_group(
            poll_timeout=0.5
        )
        assert out.group == [leader, mate]
        assert time.monotonic() - t0 < 1.0


class TestDeadlines:
    def test_expired_leader_is_evicted_not_grouped(self):
        q = SolveQueue()
        dead = entry(deadline=time.monotonic() - 0.01)
        live = entry(deadline=time.monotonic() + 60)
        q.put(dead)
        q.put(live)
        out = Coalescer(q, max_batch=1, max_wait=0.0).next_group(
            poll_timeout=0
        )
        # One round: the sweep evicts the lapsed entry and the live one
        # is scheduled — never dropped, never grouped with the dead.
        assert out.expired == [dead]
        assert out.group == [live]

    def test_window_clipped_by_leader_deadline(self):
        q = SolveQueue()
        leader = entry(deadline=time.monotonic() + 0.05)
        q.put(leader)
        t0 = time.monotonic()
        out = Coalescer(q, max_batch=4, max_wait=5.0).next_group(
            poll_timeout=0.5
        )
        # Window must close at the deadline, not after max_wait.
        assert time.monotonic() - t0 < 1.0
        # The leader either made it (scheduled at the boundary) or
        # expired — it is never silently lost.
        assert (out.group == [leader]) != (leader in out.expired)


class TestKnobs:
    def test_bad_knobs_raise(self):
        q = SolveQueue()
        with pytest.raises(ValueError, match="max_batch"):
            Coalescer(q, max_batch=0)
        with pytest.raises(ValueError, match="max_wait"):
            Coalescer(q, max_wait=-1.0)

"""The coalescing policy: group compatible requests into one batch.

The scheduler's inner loop.  A *group* is a set of queued requests with
equal operator fingerprints (:mod:`repro.serve.request`) that one
batched multi-RHS solve can serve.  The policy has two knobs, the
classic throughput/latency trade (docs/serving.md, "Capacity tuning"):

``max_batch``
    Lanes per batched solve.  A group closes as soon as it holds this
    many requests (default :data:`DEFAULT_MAX_BATCH`).
``max_wait``
    The coalescing window in seconds.  After the *leader* (the first
    request of a group) is picked, the coalescer holds the batch open
    this long for compatible requests to arrive; an empty window adds
    exactly zero latency when traffic is dense (the batch fills first)
    and at most ``max_wait`` when it is sparse.

The window is also clipped by the leader's own deadline — a request is
never held coalescing past the point where it could still be answered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.serve.queue import QueuedRequest, SolveQueue

#: The group size every entry point defaults to: the spin x colour
#: sources of one propagator on one configuration (4 x 3), the paper's
#: unit of work — so a propagator is one batched solve.  Measured, not
#: tuned: 6 and 8 split twelve sources into two solves and read no
#: better than 4 (docs/serving.md, "Capacity tuning").
DEFAULT_MAX_BATCH = 12


@dataclass
class CoalesceOutcome:
    """What one scheduling round produced.

    Attributes
    ----------
    group:
        The coalesced batch (all same fingerprint; empty when the poll
        timed out idle).
    expired:
        Entries evicted because their deadline passed; the service fails
        these with :class:`~repro.serve.errors.DeadlineExpiredError`.
    waited_seconds:
        How long the coalescing window actually stayed open.
    window_opened_pc, window_closed_pc:
        ``time.perf_counter`` marks around the window (the
        ``coalesce_window`` trace span); ``None`` when no leader was
        popped this round.
    """

    group: list[QueuedRequest] = field(default_factory=list)
    expired: list[QueuedRequest] = field(default_factory=list)
    waited_seconds: float = 0.0
    window_opened_pc: float | None = None
    window_closed_pc: float | None = None


class Coalescer:
    """Forms same-fingerprint groups from a :class:`SolveQueue`
    (see the module docstring)."""

    def __init__(
        self,
        queue: SolveQueue,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait: float = 0.05,
    ) -> None:
        """Bind the policy to a queue.

        Args:
            queue: The admission queue to schedule from.
            max_batch: Lanes per batched solve (>= 1).
            max_wait: Coalescing window in seconds (>= 0; 0 disables
                waiting — only already-queued requests coalesce).

        Raises:
            ValueError: Non-positive ``max_batch`` or negative
                ``max_wait``.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.queue = queue
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)

    def next_group(self, poll_timeout: float | None = 0.1) -> CoalesceOutcome:
        """Run one scheduling round: sweep deadlines, pick a leader,
        hold the window, drain compatible requests.

        Args:
            poll_timeout: Seconds to wait for a leader when the queue is
                idle (``None`` waits until the queue closes).

        Returns:
            A :class:`CoalesceOutcome`; ``group`` is empty when the
            queue stayed idle for the whole poll.
        """
        expired = self.queue.expire_due()
        leader = self.queue.pop_next(timeout=poll_timeout)
        if leader is None:
            return CoalesceOutcome(expired=expired)
        if leader.expired():
            expired.append(leader)
            return CoalesceOutcome(expired=expired)

        group = [leader]
        fingerprint = leader.fingerprint
        window_opened_pc = time.perf_counter()
        window_start = time.monotonic()
        window_end = window_start + self.max_wait
        if leader.deadline is not None:
            window_end = min(window_end, leader.deadline)

        while len(group) < self.max_batch:
            group += self.queue.take_compatible(
                fingerprint, self.max_batch - len(group)
            )
            if len(group) >= self.max_batch:
                break
            remaining = window_end - time.monotonic()
            # A closed queue admits nothing more: a drain dispatches what
            # was gathered instead of sitting out the window.
            if remaining <= 0 or self.queue.closed:
                break
            self.queue.wait_for_arrival(remaining)
            # Re-check after every wake: a compatible request landed
            # (taken on the next loop), the window ran out or the queue
            # closed.
        waited = time.monotonic() - window_start
        window_closed_pc = time.perf_counter()

        # A deadline may have lapsed while the window was open; never
        # hand an expired request to the solver.
        still_good, lapsed = [], []
        for entry in group:
            (lapsed if entry.expired() else still_good).append(entry)
        expired += lapsed
        return CoalesceOutcome(
            group=still_good, expired=expired, waited_seconds=waited,
            window_opened_pc=window_opened_pc,
            window_closed_pc=window_closed_pc,
        )

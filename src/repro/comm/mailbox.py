"""In-process message passing between virtual ranks (the "MPI" layer).

The paper's implementation can sit on either MPI or QMP; here both map to
a :class:`Mailbox`, which moves numpy payloads between rank queues with
copy semantics (like a real interconnect: the receiver never aliases the
sender's buffer) and records flop-free cost to the active tally.

The mailbox serves two execution models (docs/architecture.md, "Execution
model"):

* the *global-view driver* (one thread iterating all ranks) uses the
  default non-blocking :meth:`recv` — a missing message there is a
  programming error and raises immediately with a dump of the pending
  queues;
* the *SPMD backends* (:mod:`repro.comm.backends`) run one rank program
  per thread and use ``recv(block=True)``, which waits on a condition
  variable until a matching message arrives (or a timeout expires, which
  again raises with the pending-queue dump instead of hanging — the
  deadlock diagnostic the threaded backend's tests rely on).

All queue mutation happens under one lock, so a mailbox may be shared
freely between rank threads.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.util.counters import record


class Mailbox:
    """Point-to-point queues plus reductions for ``size`` virtual ranks."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("mailbox needs at least one rank")
        self.size = size
        self._queues: dict[tuple[int, int, object], deque] = {}
        self._cond = threading.Condition()

    def _queue(self, src: int, dst: int, tag) -> deque:
        key = (src, dst, tag)
        if key not in self._queues:
            self._queues[key] = deque()
        return self._queues[key]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range (size {self.size})")

    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        payload: np.ndarray,
        tag=0,
        nbytes: int | None = None,
    ) -> None:
        """Copy ``payload`` into the (src, dst, tag) queue.

        The sender's tally is charged one message and its *wire* bytes:
        ``nbytes`` when given (reduced-precision halos travel smaller
        than their physical carrier array), the physical bytes otherwise.
        """
        self._check_rank(src)
        self._check_rank(dst)
        data = np.array(payload, copy=True)
        with self._cond:
            self._queue(src, dst, tag).append(data)
            self._cond.notify_all()
        record(
            comm_bytes=data.nbytes if nbytes is None else int(nbytes),
            messages=1,
        )

    def recv(
        self,
        dst: int,
        src: int,
        tag=0,
        block: bool = False,
        timeout: float | None = None,
    ) -> np.ndarray:
        """Pop the oldest matching message.

        Non-blocking by default (the global-view driver guarantees every
        receive is already satisfied); raises with a dump of the pending
        queues if none matches.  With ``block=True`` the call waits on the
        mailbox's condition variable until a matching message is sent —
        the behavior SPMD rank threads need — and a ``timeout`` (seconds)
        turns a genuine deadlock into the same diagnostic instead of a
        hang.
        """
        self._check_rank(src)
        self._check_rank(dst)
        with self._cond:
            queue = self._queue(src, dst, tag)
            if block:
                deadline = None if timeout is None else time.monotonic() + timeout
                while not queue:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise RuntimeError(
                            self._deadlock_message(
                                src, dst, tag,
                                prefix=f"recv timed out after {timeout:g}s",
                            )
                        )
                    self._cond.wait(remaining)
            if not queue:
                raise RuntimeError(self._deadlock_message(src, dst, tag))
            return queue.popleft()

    def wait_any(
        self,
        dst: int,
        sources: list[tuple[int, object]],
        timeout: float | None = None,
    ) -> None:
        """Block on the condition variable until a message is pending from
        any ``(src, tag)`` in ``sources`` (the threads-backend half of
        :meth:`~repro.comm.communicator.Communicator.wait_any`).  The
        caller pops the message afterwards; like :meth:`recv`, a timeout
        raises the pending-queue diagnostic instead of hanging."""
        self._check_rank(dst)
        for src, _ in sources:
            self._check_rank(src)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not any(
                self._queues.get((src, dst, tag)) for src, tag in sources
            ):
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    awaited = ", ".join(
                        f"{src}->{dst} tag={tag!r}" for src, tag in sources
                    )
                    raise RuntimeError(
                        f"wait_any timed out after {timeout:g}s awaiting "
                        f"[{awaited}]; pending queues:\n"
                        f"{self.pending_summary()}"
                    )
                self._cond.wait(remaining)

    def probe(self, dst: int, src: int, tag=0) -> bool:
        """Whether a matching message is pending (no side effects)."""
        self._check_rank(src)
        self._check_rank(dst)
        with self._cond:
            q = self._queues.get((src, dst, tag))
            return bool(q)

    def pending(self) -> int:
        """Total undelivered messages (tests assert 0 after an exchange)."""
        with self._cond:
            return sum(len(q) for q in self._queues.values())

    def pending_summary(self) -> str:
        """Human-readable dump of every non-empty queue: ``src->dst``, tag
        and message count — the first thing to read when an exchange
        deadlocks with mismatched sends and receives."""
        with self._cond:
            lines = [
                f"  {src} -> {dst}  tag={tag!r}  ({len(q)} message"
                f"{'s' if len(q) != 1 else ''})"
                for (src, dst, tag), q in sorted(
                    self._queues.items(), key=lambda kv: str(kv[0])
                )
                if q
            ]
        if not lines:
            return "  (no pending messages)"
        return "\n".join(lines)

    def _deadlock_message(self, src: int, dst: int, tag, prefix: str = "") -> str:
        head = prefix or "recv deadlock"
        return (
            f"{head}: no message from {src} to {dst} with tag {tag!r}; "
            f"pending queues:\n{self.pending_summary()}"
        )

    # ------------------------------------------------------------------
    def allreduce_sum(self, contributions: list):
        """Global sum over per-rank scalar (or small-array) contributions."""
        if len(contributions) != self.size:
            raise ValueError(
                f"allreduce needs one contribution per rank "
                f"({len(contributions)} != {self.size})"
            )
        # A real allreduce moves each rank's contribution over the wire —
        # charge one payload AND one message per participating rank (the
        # same per-rank share the SPMD communicators charge), alongside
        # the single collective reduction.
        nbytes = np.asarray(contributions[0]).nbytes
        record(
            reductions=1,
            comm_bytes=nbytes * self.size,
            messages=self.size,
        )
        return sum(contributions[1:], start=contributions[0])

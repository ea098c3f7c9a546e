"""Thread-safe bounded priority queue with deadlines and backpressure.

The admission layer of the solve service.  Three properties the
coalescing dispatcher builds on:

* **bounded with rejecting backpressure** — :meth:`SolveQueue.put` on a
  full queue raises :class:`~repro.serve.errors.QueueFullError`
  immediately; a client is never silently blocked into the queue;
* **priority with FIFO ties** — higher ``priority`` dequeues first, and
  requests of equal priority dequeue in arrival order (a monotone
  sequence number breaks ties), so no starvation within a priority
  band;
* **deadline eviction** — every entry may carry an absolute deadline
  (``monotonic`` clock); :meth:`SolveQueue.expire_due` sweeps and
  returns the expired entries so the dispatcher can fail their tickets
  with a typed :class:`~repro.serve.errors.DeadlineExpiredError`.

One lock + condition protects the store; all waiting (the dispatcher's
idle poll and the coalescing window) happens on that condition, so a
``put`` wakes both.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.serve.errors import (
    QueueFullError,
    ServiceClosedError,
)


class Ticket:
    """The caller's handle on one submitted request (a minimal future).

    The submitting thread parks in :meth:`result`; the dispatcher
    fulfills the ticket with either a result object or a typed error.
    """

    def __init__(self) -> None:
        self._done = threading.Event()
        self._result = None
        self._error: BaseException | None = None

    def set_result(self, value) -> None:
        """Fulfill the ticket with a result and wake the waiter."""
        self._result = value
        self._done.set()

    def set_error(self, error: BaseException) -> None:
        """Fail the ticket with a (typed) error and wake the waiter."""
        self._error = error
        self._done.set()

    @property
    def done(self) -> bool:
        """Whether the ticket has been fulfilled or failed."""
        return self._done.is_set()

    def result(self, timeout: float | None = None):
        """Block until the ticket resolves and return (or raise) it.

        Args:
            timeout: Seconds to wait; ``None`` waits forever.

        Returns:
            The result object the dispatcher set.

        Raises:
            TimeoutError: The ticket did not resolve within ``timeout``.
            ServeError: Whatever typed error the dispatcher set
                (queue-full, deadline, shutdown, solve failure).
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"no result within {timeout}s (request still queued or "
                "solving)"
            )
        if self._error is not None:
            raise self._error
        return self._result


@dataclass
class QueuedRequest:
    """One admitted request: the wire request, its ticket, and the
    queueing metadata the scheduler orders by.

    Attributes
    ----------
    request:
        The validated :class:`~repro.serve.request.ServiceRequest`.
    ticket:
        The :class:`Ticket` the submitter waits on.
    seq:
        Admission sequence number (FIFO tie-break within a priority).
    enqueued_at:
        ``time.monotonic()`` at admission (latency accounting).
    deadline:
        Absolute ``monotonic`` eviction time, or ``None``.
    trace:
        The request's :class:`~repro.serve.tracing.RequestTrace`
        lifecycle marks (perf_counter clock), or ``None`` when the
        entry was built outside :meth:`SolveService.submit`.
    decode_seconds:
        Seconds spent turning the request's wire bytes into a lane so
        far (parse, validation, rhs build) — the
        ``serve_decode_seconds`` sample.
    """

    request: object
    ticket: Ticket
    seq: int = 0
    enqueued_at: float = field(default_factory=time.monotonic)
    deadline: float | None = None
    trace: object | None = None
    decode_seconds: float = 0.0

    @property
    def priority(self) -> int:
        """The request's priority (higher dequeues first)."""
        return self.request.priority

    @property
    def fingerprint(self) -> str:
        """The request's operator fingerprint (the coalescing key)."""
        return self.request.fingerprint

    def expired(self, now: float | None = None) -> bool:
        """Whether the deadline has passed at ``now`` (default: current
        monotonic time)."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline


class SolveQueue:
    """The bounded, priority-ordered, deadline-aware request queue
    (see the module docstring).
    """

    def __init__(self, capacity: int = 64) -> None:
        """Create an empty queue.

        Args:
            capacity: Maximum admitted-but-unscheduled requests; further
                :meth:`put` calls are rejected with
                :class:`~repro.serve.errors.QueueFullError`.

        Raises:
            ValueError: ``capacity < 1``.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._items: list[QueuedRequest] = []
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def put(self, entry: QueuedRequest) -> None:
        """Admit one request, or reject it immediately.

        Args:
            entry: The queued request (its ``seq`` is assigned here).

        Raises:
            ServiceClosedError: The queue is closed (service draining or
                stopped).
            QueueFullError: The queue is at capacity — backpressure is a
                typed rejection, never a block.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "service is shutting down; request rejected"
                )
            if len(self._items) >= self.capacity:
                raise QueueFullError(
                    f"queue full ({self.capacity} requests); retry with "
                    "backoff or raise --queue-limit"
                )
            entry.seq = self._seq
            self._seq += 1
            self._items.append(entry)
            self._nonempty.notify_all()

    def close(self) -> None:
        """Stop admitting; already-queued requests remain for draining."""
        with self._lock:
            self._closed = True
            self._nonempty.notify_all()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._lock:
            return self._closed

    @property
    def depth(self) -> int:
        """Requests currently queued (admitted, not yet scheduled)."""
        with self._lock:
            return len(self._items)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _best_index(self) -> int | None:
        """Index of the (highest-priority, oldest) entry, or ``None``."""
        if not self._items:
            return None
        return min(
            range(len(self._items)),
            key=lambda i: (-self._items[i].priority, self._items[i].seq),
        )

    def pop_next(self, timeout: float | None = None) -> QueuedRequest | None:
        """Remove and return the next entry by (priority, FIFO) order.

        Blocks up to ``timeout`` seconds for an entry to arrive.

        Args:
            timeout: Seconds to wait when empty; ``None`` waits forever
                (until :meth:`close`).

        Returns:
            The dequeued entry, or ``None`` on timeout / closed-empty.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not self._items:
                if self._closed:
                    return None
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._nonempty.wait(remaining)
            return self._items.pop(self._best_index())

    def take_compatible(self, fingerprint: str, limit: int) -> list[QueuedRequest]:
        """Remove up to ``limit`` queued entries with the given
        fingerprint, in (priority, FIFO) order.

        Args:
            fingerprint: The coalescing key to match.
            limit: Maximum entries to take (``<= 0`` takes none).

        Returns:
            The removed entries (possibly empty).
        """
        if limit <= 0:
            return []
        with self._lock:
            matches = [
                e for e in self._items if e.fingerprint == fingerprint
            ]
            matches.sort(key=lambda e: (-e.priority, e.seq))
            taken = matches[:limit]
            if taken:
                taken_set = set(id(e) for e in taken)
                self._items = [
                    e for e in self._items if id(e) not in taken_set
                ]
            return taken

    def wait_for_arrival(self, timeout: float) -> None:
        """Park the caller until a ``put`` lands, the queue closes or
        ``timeout`` elapses (the coalescing-window wait).

        Args:
            timeout: Seconds to wait (non-positive returns at once, as
                does a closed queue: nothing can arrive).
        """
        if timeout <= 0:
            return
        with self._lock:
            if not self._closed:
                self._nonempty.wait(timeout)

    def expire_due(self, now: float | None = None) -> list[QueuedRequest]:
        """Remove every entry whose deadline has passed.

        Args:
            now: Monotonic timestamp to evaluate against (defaults to
                the current time).

        Returns:
            The evicted entries; the caller fails their tickets with
            :class:`~repro.serve.errors.DeadlineExpiredError`.
        """
        now = time.monotonic() if now is None else now
        with self._lock:
            expired = [e for e in self._items if e.expired(now)]
            if expired:
                gone = set(id(e) for e in expired)
                self._items = [e for e in self._items if id(e) not in gone]
            return expired

    def drain_all(self) -> list[QueuedRequest]:
        """Remove and return everything queued (non-graceful shutdown)."""
        with self._lock:
            items, self._items = self._items, []
            return items

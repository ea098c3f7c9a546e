"""The rank-local communication interface of the SPMD execution model.

The paper's scaling rests on SPMD execution: every GPU runs the *same*
rank-local program, and all inter-rank data movement goes through a
message-passing interface (MPI or QMP).  A :class:`Communicator` is this
reproduction's equivalent of an ``MPI_Comm`` handle: a *per-rank
endpoint* exposing

* ``rank`` / ``size`` — who am I, how many of us are there,
* ``isend`` / ``irecv`` / ``wait`` / ``wait_any`` — non-blocking
  point-to-point messages (sends are eager and buffered, so posting
  every send before any receive can never deadlock — the discipline the
  halo engine follows; receives are genuinely posted at ``irecv`` time
  and completed by ``wait``/``test``/``wait_any``),
* ``allreduce_sum`` — the global reduction Krylov inner products need,
  summed in a *fixed rank order* so every backend produces bit-identical
  scalars,
* ``barrier`` — a full synchronization point.

Rank programs (:mod:`repro.multigpu.rank_halo`,
:mod:`repro.core.spmd`) are written against this protocol only; the
interchangeable backends in :mod:`repro.comm.backends` (sequential /
threads / processes) supply concrete endpoints.

Cost accounting convention (merged per-rank tallies are the cost of the
whole collective, the same numbers
:meth:`repro.comm.mailbox.Mailbox.allreduce_sum` charges in one call):

* every point-to-point send charges ``messages=1`` and its *wire* bytes
  to the sender's tally — the logical ``CommEvent.nbytes`` when an event
  is attached (reduced-precision halos carry fewer bytes on the wire
  than their physical numpy carrier holds), the physical payload bytes
  otherwise; the ``comm_bytes_total`` metric counter uses the same rule,
  so metric and tally always agree;
* an allreduce charges each participant its own wire share
  (``comm_bytes = nbytes``, ``messages = 1``) while the single collective
  ``reductions=1`` is charged to rank 0 — summing the per-rank tallies
  therefore gives ``reductions=1, messages=size, comm_bytes=nbytes*size``
  per collective.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.comm.mailbox import Mailbox
from repro.comm.traffic import CommEvent
from repro.metrics.registry import current_registry
from repro.metrics.straggler import ALLREDUCE_WAIT, BARRIER_WAIT, RECV_WAIT
from repro.util.counters import record

#: Names of the interchangeable SPMD backends (see repro.comm.backends).
BACKENDS = ("sequential", "threads", "processes")


def reduce_in_rank_order(parts: list):
    """The canonical allreduce fold: ``((p0 + p1) + p2) + ...``.

    Every backend (and
    :meth:`~repro.comm.mailbox.Mailbox.allreduce_sum`) combines per-rank
    contributions with this exact left fold, which is what makes residual
    histories bit-identical across sequential, threaded and multiprocess
    execution.
    """
    return sum(parts[1:], start=parts[0])


def wire_nbytes(payload, event: CommEvent | None) -> int:
    """Bytes a send puts on the wire: the event's logical byte count when
    one is attached (reduced-precision halos travel smaller than their
    physical numpy carrier), the physical payload bytes otherwise."""
    if event is not None:
        return int(event.nbytes)
    return int(np.asarray(payload).nbytes)


def record_collective(rank: int, value) -> None:
    """Charge one rank's share of an allreduce to the active tally (see
    the accounting convention in the module docstring)."""
    nbytes = np.asarray(value).nbytes
    record(
        comm_bytes=nbytes,
        messages=1,
        reductions=1 if rank == 0 else 0,
    )


@dataclass
class SendHandle:
    """Handle of a posted (eager, already-buffered) send."""

    dst: int
    tag: Any = 0
    complete: bool = True

    def wait(self) -> None:
        return None


@dataclass
class RecvHandle:
    """Handle of a posted receive.

    The receive is *posted* at :meth:`Communicator.irecv` time; arrival
    is checked without blocking by :meth:`test`, and :meth:`wait` blocks
    only for the remaining in-flight time (through
    :meth:`Communicator.wait_any`, so the recv-wait histogram measures
    the true completion wait, not the whole transfer)."""

    comm: "Communicator"
    src: int
    tag: Any = 0
    _data: np.ndarray | None = field(default=None, repr=False)
    _done: bool = False

    @property
    def complete(self) -> bool:
        return self._done

    def test(self) -> bool:
        """Whether the message has arrived (pulls it in if so; never
        blocks)."""
        if not self._done:
            self.comm._try_complete(self)
        return self._done

    def wait(self) -> np.ndarray:
        if not self._done:
            self.comm.wait_any([self])
        return self._data


class Communicator(abc.ABC):
    """Per-rank endpoint of the SPMD message-passing interface."""

    rank: int
    size: int

    # -- point to point --------------------------------------------------
    @abc.abstractmethod
    def isend(
        self, dst: int, payload: np.ndarray, tag=0,
        event: CommEvent | None = None,
    ) -> SendHandle:
        """Post an eager (buffered) send; never blocks."""

    def irecv(self, src: int, tag=0) -> RecvHandle:
        """Post a receive; complete it with ``wait``/``test``/``wait_any``
        (an already-arrived message is claimed without blocking)."""
        return RecvHandle(self, src, tag)

    def wait(self, handle):
        """Complete a send or receive handle (returns the payload for
        receives, ``None`` for sends)."""
        return handle.wait()

    def wait_any(self, handles: list) -> int:
        """Block until one incomplete receive handle completes; returns
        its index into ``handles``.

        Completes exactly one handle per call (the lowest-index ready one
        — deterministic whenever arrival state is), and observes exactly
        one recv-wait histogram sample covering only the time this call
        actually blocked.  Completing N handles therefore costs N
        observations whichever path claimed them — blocking ``recv``,
        ``wait`` or ``wait_any`` — which keeps wait-observation counts
        backend-invariant.
        """
        reg = current_registry()
        if reg is None:
            return self._wait_any(handles)
        start = time.perf_counter()
        index = self._wait_any(handles)
        reg.histogram(RECV_WAIT, rank=self.rank).observe(
            time.perf_counter() - start
        )
        return index

    def _wait_any(self, handles: list) -> int:
        raise NotImplementedError  # pragma: no cover - endpoint-specific

    def _try_complete(self, handle: RecvHandle) -> bool:
        raise NotImplementedError  # pragma: no cover - endpoint-specific

    @abc.abstractmethod
    def recv(self, src: int, tag=0) -> np.ndarray:
        """Blocking receive (``wait(irecv(...))`` shorthand)."""

    def send(self, dst: int, payload: np.ndarray, tag=0,
             event: CommEvent | None = None) -> None:
        """Blocking send (sends are eager, so this is just ``isend``)."""
        self.wait(self.isend(dst, payload, tag, event=event))

    # -- collectives -----------------------------------------------------
    @abc.abstractmethod
    def allreduce_sum(self, value):
        """Global sum of one per-rank contribution, folded in rank order;
        every rank receives the identical result."""

    @abc.abstractmethod
    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""


class MailboxCommunicator(Communicator):
    """A rank endpoint over a shared in-process :class:`Mailbox`.

    Two modes:

    * ``blocking=False`` (default) — the *driver* mode used by
      :class:`~repro.multigpu.halo.HaloExchanger`, whose single thread
      orders all sends before the matching receives; a missing message
      is a bug and raises immediately.
    * ``blocking=True`` — the threaded SPMD mode: ``recv`` waits on the
      mailbox's condition variable (bounded by ``timeout``).

    Collectives need a rendezvous object shared by all ranks
    (:class:`repro.comm.backends.ReduceState`); driver-mode endpoints are
    created without one and raise if a collective is attempted (the
    driver reduces through ``Mailbox.allreduce_sum`` directly).
    """

    def __init__(
        self,
        mailbox: Mailbox,
        rank: int,
        blocking: bool = False,
        timeout: float | None = None,
        reducer=None,
        scheduler=None,
    ):
        if not 0 <= rank < mailbox.size:
            raise ValueError(f"rank {rank} out of range for {mailbox.size}")
        self.mailbox = mailbox
        self.rank = rank
        self.size = mailbox.size
        self.blocking = blocking
        self.timeout = timeout
        self.reducer = reducer
        self.scheduler = scheduler

    # -- point to point --------------------------------------------------
    def isend(self, dst, payload, tag=0, event=None) -> SendHandle:
        reg = current_registry()
        if reg is not None:
            reg.counter("comm_messages_total", rank=self.rank).inc()
            reg.counter("comm_bytes_total", rank=self.rank).inc(
                wire_nbytes(payload, event)
            )
        self.mailbox.send(self.rank, dst, payload, tag=tag, event=event)
        if self.scheduler is not None:
            self.scheduler.notify(self.rank)
        return SendHandle(dst, tag)

    def recv(self, src, tag=0) -> np.ndarray:
        reg = current_registry()
        if reg is None:
            return self._recv(src, tag)
        start = time.perf_counter()
        data = self._recv(src, tag)
        reg.histogram(RECV_WAIT, rank=self.rank).observe(
            time.perf_counter() - start
        )
        return data

    def _recv(self, src, tag=0) -> np.ndarray:
        if self.scheduler is not None:
            # Sequential backend: yield the baton until the message is in,
            # then pop it without blocking.
            self.scheduler.wait_for(
                self.rank,
                lambda: self.mailbox.probe(self.rank, src, tag),
                describe=lambda: self.mailbox._deadlock_message(
                    src, self.rank, tag
                ),
            )
            return self.mailbox.recv(self.rank, src, tag)
        return self.mailbox.recv(
            self.rank, src, tag, block=self.blocking, timeout=self.timeout
        )

    def _try_complete(self, handle) -> bool:
        """Claim a posted receive's message if it has arrived (no block)."""
        if handle._done:
            return True
        if self.mailbox.probe(self.rank, handle.src, handle.tag):
            handle._data = self.mailbox.recv(self.rank, handle.src, handle.tag)
            handle._done = True
            return True
        return False

    def _wait_any(self, handles: list) -> int:
        pending = [(i, h) for i, h in enumerate(handles) if not h._done]
        if not pending:
            raise ValueError("wait_any: every handle is already complete")

        def ready() -> bool:
            # Side-effect free: the baton scheduler evaluates waiting
            # ranks' predicates from *other* ranks' threads, so the pop
            # must happen on the owning thread, after the wake-up.
            return any(
                self.mailbox.probe(self.rank, h.src, h.tag)
                for _, h in pending
            )

        def describe() -> str:
            faces = ", ".join(f"{h.src}->{self.rank} tag={h.tag!r}"
                              for _, h in pending)
            return (
                f"wait_any blocked on {len(pending)} posted receive(s) "
                f"[{faces}]; pending queues:\n"
                f"{self.mailbox.pending_summary()}"
            )

        if self.scheduler is not None:
            # Sequential backend: yield the baton until a message is in.
            self.scheduler.wait_for(self.rank, ready, describe=describe)
        elif self.blocking:
            self.mailbox.wait_any(
                self.rank,
                [(h.src, h.tag) for _, h in pending],
                timeout=self.timeout,
            )
        for i, h in pending:
            if self._try_complete(h):
                return i
        # Driver mode reaches here when no posted message exists — the
        # single-threaded driver can never make one appear.
        raise RuntimeError(f"recv deadlock: {describe()}")

    # -- collectives -----------------------------------------------------
    def _require_reducer(self):
        if self.reducer is None:
            raise RuntimeError(
                "this endpoint has no collective rendezvous (driver-mode "
                "MailboxCommunicator); use an SPMD backend from "
                "repro.comm.backends for allreduce/barrier"
            )
        return self.reducer

    def _rendezvous(self, value, describe_what: str):
        """Deposit + collect one collective generation, measuring the
        rendezvous wait (deposit until every rank's contribution is in)."""
        reducer = self._require_reducer()
        reg = current_registry()
        start = time.perf_counter() if reg is not None else 0.0
        gen = reducer.deposit(self.rank, value)
        if self.scheduler is not None:
            self.scheduler.wait_for(
                self.rank,
                lambda: reducer.ready(gen),
                describe=lambda: (
                    f"{describe_what} #{gen} stalled: {reducer.describe(gen)}"
                ),
            )
            result = reducer.collect(self.rank, gen, timeout=0)
        else:
            result = reducer.collect(self.rank, gen, timeout=self.timeout)
        if reg is not None:
            name = (
                ALLREDUCE_WAIT if describe_what == "allreduce"
                else BARRIER_WAIT
            )
            reg.histogram(name, rank=self.rank).observe(
                time.perf_counter() - start
            )
        return result

    def allreduce_sum(self, value):
        result = self._rendezvous(value, "allreduce")
        record_collective(self.rank, value)
        return result

    def barrier(self) -> None:
        self._rendezvous(np.int64(0), "barrier")

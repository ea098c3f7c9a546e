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
  to the sender's tally — the ``nbytes`` the caller passes (reduced-
  precision halos carry fewer bytes on the wire than their physical
  numpy carrier holds), the physical payload bytes otherwise; the tally
  is the one place a message is counted;
* an allreduce charges each participant its own wire share
  (``comm_bytes = nbytes``, ``messages = 1``) while the single collective
  ``reductions=1`` is charged to rank 0 — summing the per-rank tallies
  therefore gives ``reductions=1, messages=size, comm_bytes=nbytes*size``
  per collective;
* every blocking call — ``recv``, ``wait_any``, ``allreduce_sum``,
  ``barrier`` — charges the seconds it blocked, once, to the rank's
  tally as a wait (:attr:`repro.util.counters.Tally.wait_seconds`).
  The base class times them; an endpoint supplies only the transport
  (``_recv``, ``_wait_any``, ``_try_complete``, ``_collective``).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.comm.mailbox import Mailbox
from repro.util.counters import (
    ALLREDUCE_WAIT,
    BARRIER_WAIT,
    RECV_WAIT,
    record,
    record_wait,
)

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
    :meth:`Communicator.wait_any`, so the recv wait measures the true
    completion wait, not the whole transfer)."""

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
        self, dst: int, payload: np.ndarray, tag=0, nbytes: int | None = None,
    ) -> SendHandle:
        """Post an eager (buffered) send; never blocks.  ``nbytes`` is the
        wire size charged to the tally (default: the payload's bytes)."""

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
        — deterministic whenever arrival state is), and charges exactly
        one recv wait covering only the time this call actually blocked.
        Completing N handles therefore costs N waits whichever path
        claimed them — blocking ``recv``, ``wait`` or ``wait_any`` —
        which keeps wait counts backend-invariant.
        """
        start = time.perf_counter()
        index = self._wait_any(handles)
        record_wait(self.rank, RECV_WAIT, time.perf_counter() - start)
        return index

    def recv(self, src: int, tag=0) -> np.ndarray:
        """Blocking receive (``wait(irecv(...))`` shorthand)."""
        start = time.perf_counter()
        data = self._recv(src, tag)
        record_wait(self.rank, RECV_WAIT, time.perf_counter() - start)
        return data

    @abc.abstractmethod
    def _recv(self, src: int, tag=0) -> np.ndarray:
        """The endpoint's raw blocking receive (charges no wait)."""

    @abc.abstractmethod
    def _wait_any(self, handles: list) -> int:
        """The endpoint's raw ``wait_any`` (charges no wait)."""

    @abc.abstractmethod
    def _try_complete(self, handle: RecvHandle) -> bool:
        """Claim a posted receive's message if it has arrived (never
        blocks)."""

    def send(self, dst: int, payload: np.ndarray, tag=0,
             nbytes: int | None = None) -> None:
        """Blocking send (sends are eager, so this is just ``isend``)."""
        self.wait(self.isend(dst, payload, tag, nbytes=nbytes))

    # -- collectives -----------------------------------------------------
    def allreduce_sum(self, value):
        """Global sum of one per-rank contribution, folded in rank order;
        every rank receives the identical result."""
        start = time.perf_counter()
        result = self._collective(value, "allreduce")
        record_wait(self.rank, ALLREDUCE_WAIT, time.perf_counter() - start)
        record_collective(self.rank, value)
        return result

    def barrier(self) -> None:
        """Block until every rank has entered the barrier (an allreduce
        nobody reads — and charges nothing but its wait)."""
        start = time.perf_counter()
        self._collective(np.int64(0), "barrier")
        record_wait(self.rank, BARRIER_WAIT, time.perf_counter() - start)

    @abc.abstractmethod
    def _collective(self, value, what: str):
        """The endpoint's raw rank-ordered sum over every rank's
        ``value``; ``what`` names the collective in diagnostics."""


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
    def isend(self, dst, payload, tag=0, nbytes=None) -> SendHandle:
        self.mailbox.send(self.rank, dst, payload, tag=tag, nbytes=nbytes)
        if self.scheduler is not None:
            self.scheduler.notify(self.rank)
        return SendHandle(dst, tag)

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

    def _collective(self, value, what: str):
        """Deposit + collect one collective generation."""
        reducer = self._require_reducer()
        gen = reducer.deposit(self.rank, value)
        if self.scheduler is None:
            return reducer.collect(self.rank, gen, timeout=self.timeout)
        self.scheduler.wait_for(
            self.rank,
            lambda: reducer.ready(gen),
            describe=lambda: (
                f"{what} #{gen} stalled: {reducer.describe(gen)}"
            ),
        )
        return reducer.collect(self.rank, gen, timeout=0)

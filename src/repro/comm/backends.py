"""Interchangeable SPMD execution backends: sequential / threads / processes.

:func:`run_rank_programs` launches one *rank program* — a plain function
``program(comm, payload) -> value`` written against the
:class:`~repro.comm.communicator.Communicator` protocol — per virtual
rank and returns the per-rank outcomes, merging each rank's cost tally
(and trace events) into the caller's at join.  Three backends execute
the same program:

``sequential``
    Rank programs run on gated threads, but a *baton scheduler* admits
    exactly one at a time and passes control round-robin at blocking
    communication points (receive with no matching message, allreduce,
    barrier).  Execution is fully deterministic — the same interleaving
    every run — which makes this the bit-reproducible reference backend
    for tests, and an all-ranks-blocked cycle is detected immediately and
    reported with the mailbox's pending-queue dump.

``threads``
    Rank programs run on free threads over a blocking
    :class:`~repro.comm.mailbox.Mailbox`; numpy kernels release the GIL,
    so stencil applications genuinely overlap.  Receives are bounded by
    ``timeout`` and raise the pending-queue diagnostic instead of
    hanging.

``processes``
    Rank programs run in forked worker processes; message payloads move
    through POSIX shared memory (:mod:`repro.comm.shm`), giving true
    core-level parallelism for the compute-bound stencils.  Requires the
    ``fork`` start method (POSIX); :func:`process_backend_available`
    reports whether it can be used.

All three produce bit-identical numerics for a deterministic program:
each rank's arithmetic depends only on its inputs and received messages,
and collectives fold contributions in fixed rank order
(:func:`~repro.comm.communicator.reduce_in_rank_order`).
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.comm.communicator import (
    BACKENDS,
    MailboxCommunicator,
    reduce_in_rank_order,
)
from repro.comm.mailbox import Mailbox
from repro.trace import TraceEvent, active_tracer
from repro.util.counters import Tally, current_tally, tally


class SPMDError(RuntimeError):
    """A rank program failed (or deadlocked); carries per-rank detail."""


class DeadlockError(SPMDError):
    """Every live rank is blocked — the SPMD program cannot progress."""


# ----------------------------------------------------------------------
# collective rendezvous (sequential + threaded backends)
# ----------------------------------------------------------------------
class ReduceState:
    """Generation-numbered allreduce slots shared by in-process ranks.

    Each rank deposits its contribution for its next collective
    *generation* (ranks of one SPMD program execute the same sequence of
    collectives, so generation numbers line up by construction); once all
    ``size`` contributions for a generation are in, the result is the
    rank-ordered fold, computed once and handed to every caller.
    """

    def __init__(self, size: int):
        self.size = size
        self.cond = threading.Condition()
        self._slots: dict[int, dict] = {}
        self._next_gen = [0] * size

    def deposit(self, rank: int, value) -> int:
        with self.cond:
            gen = self._next_gen[rank]
            self._next_gen[rank] += 1
            slot = self._slots.setdefault(gen, {"parts": {}, "read": set()})
            slot["parts"][rank] = value
            self.cond.notify_all()
            return gen

    def ready(self, gen: int) -> bool:
        with self.cond:
            slot = self._slots.get(gen)
            return slot is not None and len(slot["parts"]) == self.size

    def describe(self, gen: int) -> str:
        with self.cond:  # re-entrant: collect() calls this holding it
            slot = self._slots.get(gen, {"parts": {}})
            missing = sorted(set(range(self.size)) - set(slot["parts"]))
            return f"waiting on contributions from ranks {missing}"

    def collect(self, rank: int, gen: int, timeout: float | None = None):
        with self.cond:
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                slot = self._slots.get(gen)
                if slot is not None and len(slot["parts"]) == self.size:
                    break
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise DeadlockError(
                        f"allreduce #{gen} timed out: {self.describe(gen)}"
                    )
                self.cond.wait(remaining)
            if "result" not in slot:
                slot["result"] = reduce_in_rank_order(
                    [slot["parts"][r] for r in range(self.size)]
                )
            result = slot["result"]
            slot["read"].add(rank)
            if len(slot["read"]) == self.size:
                del self._slots[gen]
            return result


# ----------------------------------------------------------------------
# the deterministic baton scheduler (sequential backend)
# ----------------------------------------------------------------------
class BatonScheduler:
    """Round-robin cooperative scheduler for the sequential backend.

    Exactly one rank thread runs at any moment — the one holding the
    *baton*.  A thread gives the baton up only at a blocking
    communication point (:meth:`wait_for`) or when its program ends; the
    scheduler then passes it to the next runnable rank in cyclic order.
    Because hand-off points and order are fixed, execution (and therefore
    trace/event ordering) is fully deterministic.  If every live rank is
    blocked on an unsatisfied predicate, the deadlock is reported
    immediately with the blocking ranks' own diagnostics.
    """

    def __init__(self, size: int):
        self.size = size
        self._cond = threading.Condition()
        self._turn = 0
        self._done = [False] * size
        self._waiting: list = [None] * size  # (pred, describe) when blocked
        self._failure: BaseException | None = None

    # -- thread lifecycle ------------------------------------------------
    def start(self, rank: int) -> None:
        """Block until this rank first receives the baton."""
        with self._cond:
            while self._turn != rank and self._failure is None:
                self._cond.wait()
            self._check_failure()

    def finish(self, rank: int) -> None:
        """Mark this rank's program complete and hand the baton on."""
        with self._cond:
            self._done[rank] = True
            if not all(self._done):
                self._advance(rank)

    def fail(self, rank: int, exc: BaseException) -> None:
        """Record a failure and release every waiting thread."""
        with self._cond:
            if self._failure is None:
                self._failure = exc
            self._done[rank] = True
            self._cond.notify_all()

    def notify(self, rank: int) -> None:
        """No-op hook (predicates are re-evaluated at every hand-off)."""

    # -- the yield point -------------------------------------------------
    def wait_for(self, rank: int, pred: Callable[[], bool],
                 describe: Callable[[], str]) -> None:
        """Hold the baton until ``pred()`` is true, yielding it meanwhile."""
        with self._cond:
            while not pred():
                self._check_failure()
                self._waiting[rank] = (pred, describe)
                self._advance(rank)  # may raise DeadlockError
                while self._turn != rank and self._failure is None:
                    self._cond.wait()
                self._check_failure()
                self._waiting[rank] = None

    def _check_failure(self) -> None:
        if self._failure is not None:
            raise SPMDError(
                f"aborted: another rank failed ({self._failure})"
            ) from self._failure

    def _advance(self, rank: int) -> None:
        """Pass the baton to the next runnable rank after ``rank``."""
        for step in range(1, self.size + 1):
            r = (rank + step) % self.size
            if self._done[r]:
                continue
            waiting = self._waiting[r]
            if waiting is None or waiting[0]():
                self._waiting[r] = None
                self._turn = r
                self._cond.notify_all()
                return
        if all(self._done[r] or self._waiting[r] is not None
               for r in range(self.size)) and not all(self._done):
            blocked = [
                f"rank {r}: {self._waiting[r][1]()}"
                for r in range(self.size)
                if not self._done[r] and self._waiting[r] is not None
            ]
            raise DeadlockError(
                "SPMD deadlock: every live rank is blocked\n"
                + "\n".join(f"  {b}" for b in blocked)
            )


# ----------------------------------------------------------------------
# outcomes + the runner
# ----------------------------------------------------------------------
@dataclass
class RankOutcome:
    """What one rank program produced: its return value, its cost tally
    (waits included), its trace events, and (on failure) the formatted
    error."""

    rank: int
    value: Any = None
    tally: Tally = field(default_factory=Tally)
    events: list = field(default_factory=list)
    error: str | None = None


def describe_error(exc: BaseException) -> str:
    """The one-line ``Type: message`` text a failed rank reports."""
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_rank_job(program, comm, payload, tracer, at_once: int | None = None):
    """Run one rank program under its own tally — when ``tracer`` is
    given, under it inside a ``rank_program`` span.  Every backend runs
    its ranks through here.  Never raises: returns ``(value, tally,
    exception-or-None)``.

    ``at_once`` ranks run at the same time (``comm.size`` unless said:
    the ``sequential`` backend runs one), and the rank program's compiled
    calls share ONE team of at most its share of the allowed CPUs
    (:func:`repro.kernels.c_backend.solve_team`), joined when it returns:
    two ranks on two CPUs start no helper thread, one rank at a time
    uses them all."""
    from repro.kernels.c_backend import solve_team
    from repro.trace import span, tracing

    cpus = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    share = max(1, cpus // (at_once or comm.size))
    value = error = None
    with tally() as t, solve_team(threads=share):
        try:
            if tracer is None:
                value = program(comm, payload)
            else:
                with tracing(tracer), span(
                    "rank_program", kind="rank", rank=comm.rank,
                    stream="compute",
                ):
                    value = program(comm, payload)
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            error = exc
    return value, t, error


def _merge_outcomes(outcomes: list[RankOutcome]) -> None:
    """Fold per-rank tallies into the caller's, in rank order
    (deterministic merge — the join side of the SPMD accounting)."""
    parent = current_tally()
    if parent is not None:
        for outcome in outcomes:
            parent.merge(outcome.tally)


def _raise_on_errors(outcomes: list[RankOutcome], mailbox: Mailbox | None):
    failed = [o for o in outcomes if o.error is not None]
    if not failed:
        return
    detail = "\n".join(f"  rank {o.rank}: {o.error}" for o in failed)
    pending = (
        f"\npending messages:\n{mailbox.pending_summary()}"
        if mailbox is not None
        else ""
    )
    raise SPMDError(
        f"{len(failed)} of {len(outcomes)} rank programs failed:\n"
        f"{detail}{pending}"
    )


def _run_in_threads(
    program, size, payloads, timeout, sequential: bool,
) -> tuple[list[RankOutcome], Mailbox]:
    mailbox = Mailbox(size)
    reducer = ReduceState(size)
    scheduler = BatonScheduler(size) if sequential else None
    tracer = active_tracer()
    outcomes = [RankOutcome(rank=r) for r in range(size)]

    def entry(rank: int):
        # Exceptions never escape the rank thread: they are recorded on
        # the rank's outcome (and broadcast through the scheduler) and
        # re-raised as one SPMDError by the caller.
        comm = MailboxCommunicator(
            mailbox, rank,
            blocking=not sequential,
            timeout=timeout,
            reducer=reducer,
            scheduler=scheduler,
        )
        outcome = outcomes[rank]
        try:
            if scheduler is not None:
                scheduler.start(rank)
            outcome.value, outcome.tally, error = run_rank_job(
                program, comm, payloads[rank], tracer,
                at_once=1 if sequential else size,
            )
            if error is not None:
                raise error
        except BaseException as exc:  # noqa: BLE001
            outcome.error = describe_error(exc)
            if scheduler is not None:
                scheduler.fail(rank, exc)
        else:
            if scheduler is not None:
                try:
                    scheduler.finish(rank)
                except BaseException as exc:  # noqa: BLE001
                    # e.g. the remaining ranks form a deadlock cycle
                    outcomes[rank].error = str(exc)
                    scheduler.fail(rank, exc)

    threads = [
        threading.Thread(target=entry, args=(r,), name=f"spmd-rank-{r}",
                         daemon=True)
        for r in range(size)
    ]
    for t in threads:
        t.start()
    join_deadline = None if timeout is None else time.monotonic() + 4 * timeout
    for t in threads:
        remaining = (
            None if join_deadline is None
            else max(join_deadline - time.monotonic(), 0.1)
        )
        t.join(remaining)
        if t.is_alive():
            raise SPMDError(
                f"rank thread {t.name} failed to terminate; pending "
                f"messages:\n{mailbox.pending_summary()}"
            )
    return outcomes, mailbox


def process_backend_available() -> bool:
    """Whether the multiprocess backend can run (POSIX fork + shared
    memory)."""
    import multiprocessing

    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def run_rank_programs(
    program: Callable,
    size: int,
    payloads: list | None = None,
    backend: str = "sequential",
    timeout: float | None = 60.0,
) -> list[RankOutcome]:
    """Execute ``program(comm, payloads[rank])`` on every rank.

    Returns the per-rank :class:`RankOutcome` list (rank order).  Each
    rank's tally is merged into the caller's active tally, and each
    rank's trace events land on the caller's active tracer — so a
    ``with tally() ... tracing(...)`` around this call observes the whole
    SPMD execution, with genuinely concurrent rank timelines under the
    threaded and multiprocess backends.

    Raises :class:`SPMDError` (with per-rank detail and the pending-queue
    dump) if any rank program fails or deadlocks.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if size < 1:
        raise ValueError("need at least one rank")
    if payloads is None:
        payloads = [None] * size
    if len(payloads) != size:
        raise ValueError(f"need {size} payloads, got {len(payloads)}")

    if backend == "processes":
        if not process_backend_available():
            raise SPMDError(
                "the multiprocess backend needs the POSIX 'fork' start "
                "method; use backend='threads' or 'sequential' instead"
            )
        from repro.comm.shm import run_in_processes

        mailbox = None
        outcomes = run_in_processes(program, size, payloads, timeout)
        tracer = active_tracer()
        if tracer is not None:
            for outcome in outcomes:
                for ev in outcome.events:
                    tracer.emit(ev)
    else:
        outcomes, mailbox = _run_in_threads(
            program, size, payloads, timeout,
            sequential=(backend == "sequential"),
        )
    _raise_on_errors(outcomes, mailbox)
    _merge_outcomes(outcomes)
    return outcomes


__all__ = [
    "BACKENDS",
    "BatonScheduler",
    "DeadlockError",
    "RankOutcome",
    "ReduceState",
    "SPMDError",
    "process_backend_available",
    "run_rank_programs",
]

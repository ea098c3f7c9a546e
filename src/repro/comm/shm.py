"""Shared-memory multiprocess backend for SPMD rank programs.

The threaded backend overlaps only numpy's GIL-releasing kernels; this
backend forks one worker process per rank so the compute-bound stencils
run truly core-parallel.  Message envelopes (src, tag, payload
descriptor) travel through one ``multiprocessing.Queue`` inbox per rank,
while payloads above a small inline threshold move through POSIX shared
memory (``multiprocessing.shared_memory``) — the sender copies the array
into a fresh segment and the receiver copies it out and unlinks it, so
payload bytes cross process boundaries exactly once and never go through
pickle.

Lifecycle of a segment (and the resource-tracker discipline that keeps
Python 3.10–3.12 from spewing leak warnings): the *sender* creates the
segment, immediately ``unregister``\\ s it from its own resource tracker
(ownership is being transferred), and closes its mapping; the *receiver*
attaches (which registers it), copies the data out, closes, and unlinks
(which unregisters).  A message that is never received therefore leaks
its segment until the machine reclaims ``/dev/shm`` — rank-program
failures are surfaced loudly for exactly this reason.

Workers come from a *persistent rank pool*: the first processes-backend
call forks one long-lived worker per rank, and later calls dispatch
pickled ``(program, payload)`` jobs to the same workers — repeated solves
pay the fork + warm-up cost once.  A job that cannot be pickled (rank
programs that are closures over live numpy arrays) falls back to the
original fork-per-call path, which inherits the closure through ``fork``;
a job that errors or times out retires its pool, since a failed rank
program may leave undelivered messages behind.  Requires the POSIX
``fork`` start method; availability is reported by
:func:`repro.comm.backends.process_backend_available`.
"""

from __future__ import annotations

import time
from collections import deque
from queue import Empty

import numpy as np

from repro.comm.communicator import (
    Communicator,
    SendHandle,
    record_collective,
    reduce_in_rank_order,
    wire_nbytes,
)
from repro.metrics.registry import current_registry
from repro.metrics.straggler import ALLREDUCE_WAIT, BARRIER_WAIT, RECV_WAIT
from repro.util.counters import record

#: Payloads at or below this many bytes ride inline in the queue envelope
#: (a shared-memory segment per tiny scalar message would cost more than
#: it saves).
INLINE_LIMIT = 1 << 16


def _unregister_segment(seg) -> None:
    """Detach a segment from this process's resource tracker (no-op if the
    tracker refuses)."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(getattr(seg, "_name", seg.name),
                                    "shared_memory")
    except Exception:  # pragma: no cover - tracker quirks vary by version
        pass


def _pack(arr: np.ndarray):
    """Build the queue envelope payload descriptor for one array."""
    arr = np.asarray(arr)
    shape = arr.shape  # before ascontiguousarray, which promotes 0-d to 1-d
    arr = np.ascontiguousarray(arr)
    if arr.nbytes <= INLINE_LIMIT:
        return ("inline", arr.dtype.str, shape, arr.tobytes())
    from multiprocessing import shared_memory

    seg = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    view = np.ndarray(shape, dtype=arr.dtype, buffer=seg.buf)
    view[...] = arr.reshape(shape)
    del view
    _unregister_segment(seg)  # ownership transfers to the receiver
    seg.close()
    return ("shm", seg.name, arr.dtype.str, arr.shape)


def _unpack(descriptor) -> np.ndarray:
    """Materialize (and retire) the payload behind a descriptor."""
    kind = descriptor[0]
    if kind == "inline":
        _, dtype, shape, raw = descriptor
        return np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(shape).copy()
    _, name, dtype, shape = descriptor
    from multiprocessing import shared_memory

    seg = shared_memory.SharedMemory(name=name)
    try:
        data = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf).copy()
    finally:
        seg.close()
        seg.unlink()
    return data


class ShmCommunicator(Communicator):
    """A rank endpoint whose wire is queues + POSIX shared memory.

    Unlike the in-process mailbox, one inbox queue carries messages from
    *all* sources, so arrivals that don't match the receive currently
    being serviced are parked in per-(src, tag) local buffers — the
    standard unexpected-message queue of an MPI implementation.
    """

    def __init__(self, rank: int, size: int, inboxes, timeout: float | None = None):
        self.rank = rank
        self.size = size
        self.inboxes = inboxes
        self.timeout = timeout
        self._unexpected: dict[tuple, deque] = {}
        self._collective_gen = 0

    # -- point to point --------------------------------------------------
    def _post(self, dst: int, payload, tag, record_cost: bool,
              event=None) -> int:
        arr = np.asarray(payload)
        self.inboxes[dst].put((self.rank, tag, _pack(arr)))
        nbytes = wire_nbytes(arr, event)
        if record_cost:
            record(comm_bytes=nbytes, messages=1)
        return nbytes

    def isend(self, dst, payload, tag=0, event=None) -> SendHandle:
        reg = current_registry()
        if reg is not None:
            reg.counter("comm_messages_total", rank=self.rank).inc()
            reg.counter("comm_bytes_total", rank=self.rank).inc(
                wire_nbytes(payload, event)
            )
        self._post(dst, payload, tag, record_cost=True, event=event)
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
        """The raw receive.  Collective internals call this directly so
        their constituent messages don't pollute the per-rank recv-wait
        histogram (each backend then observes exactly one wait per
        user-level ``recv``/``allreduce``/``barrier`` call)."""
        key = (src, tag)
        buffered = self._unexpected.get(key)
        if buffered:
            return _unpack(buffered.popleft())
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        inbox = self.inboxes[self.rank]
        while True:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise RuntimeError(self._timeout_message(src, tag))
            try:
                got_src, got_tag, descriptor = inbox.get(
                    timeout=None if remaining is None else min(remaining, 0.5)
                )
            except Empty:
                continue
            if (got_src, got_tag) == key:
                return _unpack(descriptor)
            self._unexpected.setdefault((got_src, got_tag), deque()).append(
                descriptor
            )

    def _drain_inbox_nowait(self) -> bool:
        """Park every already-delivered envelope into the unexpected-message
        buffers without blocking; returns whether anything was drained."""
        inbox = self.inboxes[self.rank]
        drained = False
        while True:
            try:
                got_src, got_tag, descriptor = inbox.get_nowait()
            except Empty:
                return drained
            self._unexpected.setdefault((got_src, got_tag), deque()).append(
                descriptor
            )
            drained = True

    def _try_complete(self, handle) -> bool:
        """Claim a posted receive's message if it has arrived (no block)."""
        if handle._done:
            return True
        self._drain_inbox_nowait()
        buffered = self._unexpected.get((handle.src, handle.tag))
        if buffered:
            handle._data = _unpack(buffered.popleft())
            handle._done = True
            return True
        return False

    def _wait_any(self, handles: list) -> int:
        pending = [(i, h) for i, h in enumerate(handles) if not h._done]
        if not pending:
            raise ValueError("wait_any: every handle is already complete")
        # Lowest-index-first over the local buffers, then the inbox in
        # delivery order: arrivals that match none of the pending handles
        # are parked exactly like in _recv.
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        inbox = self.inboxes[self.rank]
        while True:
            for i, h in pending:
                buffered = self._unexpected.get((h.src, h.tag))
                if buffered:
                    h._data = _unpack(buffered.popleft())
                    h._done = True
                    return i
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                awaited = ", ".join(
                    f"{h.src}->{self.rank} tag={h.tag!r}" for _, h in pending
                )
                raise RuntimeError(
                    f"wait_any timed out after {self.timeout:g}s awaiting "
                    f"[{awaited}]; locally buffered messages:\n"
                    f"{self._buffered_summary()}"
                )
            try:
                got_src, got_tag, descriptor = inbox.get(
                    timeout=None if remaining is None else min(remaining, 0.5)
                )
            except Empty:
                continue
            self._unexpected.setdefault((got_src, got_tag), deque()).append(
                descriptor
            )

    def _buffered_summary(self) -> str:
        lines = [
            f"  {s} -> {self.rank}  tag={t!r}  ({len(q)} message"
            f"{'s' if len(q) != 1 else ''})"
            for (s, t), q in sorted(
                self._unexpected.items(), key=lambda kv: str(kv[0])
            )
            if q
        ]
        return "\n".join(lines) if lines else "  (none)"

    def _timeout_message(self, src, tag) -> str:
        return (
            f"recv timed out after {self.timeout:g}s: no message from {src} "
            f"to {self.rank} with tag {tag!r}; locally buffered messages:\n"
            f"{self._buffered_summary()}"
        )

    # -- collectives -----------------------------------------------------
    def allreduce_sum(self, value):
        result = self._timed_collective(value, ALLREDUCE_WAIT)
        record_collective(self.rank, value)
        return result[()] if result.ndim == 0 else result

    def barrier(self) -> None:
        # A barrier is an allreduce nobody reads — and charges nothing.
        self._timed_collective(np.int64(0), BARRIER_WAIT)

    def _timed_collective(self, value, wait_metric: str) -> np.ndarray:
        reg = current_registry()
        if reg is None:
            return self._gather_fold_broadcast(value)
        start = time.perf_counter()
        result = self._gather_fold_broadcast(value)
        reg.histogram(wait_metric, rank=self.rank).observe(
            time.perf_counter() - start
        )
        return result

    def _gather_fold_broadcast(self, value) -> np.ndarray:
        """Gather-to-root, rank-ordered fold, broadcast.  The constituent
        sends and receives are raw (uncharged, unobserved): the
        collective's cost is charged once, per the convention in
        :mod:`repro.comm.communicator`, and its wait is observed once by
        :meth:`_timed_collective`."""
        gen = self._collective_gen
        self._collective_gen += 1
        up, down = ("__coll__", gen, "up"), ("__coll__", gen, "down")
        if self.rank == 0:
            parts = [np.asarray(value)]
            parts += [self._recv(r, up) for r in range(1, self.size)]
            result = np.asarray(reduce_in_rank_order(parts))
            for r in range(1, self.size):
                self._post(r, result, down, record_cost=False)
            return result
        self._post(0, value, up, record_cost=False)
        return self._recv(0, down)


# ----------------------------------------------------------------------
# the process runner
# ----------------------------------------------------------------------
def _run_rank_job(comm, program, payload, epoch, metrics_on):
    """Run one rank program in this worker via the shared
    :func:`~repro.comm.backends.run_rank_job`; returns the picklable
    ``(value, tally, trace events, error text, metrics snapshot)``."""
    from repro.comm.backends import describe_error, run_rank_job
    from repro.trace import Tracer

    tracer = None
    if epoch is not None:
        tracer = Tracer()
        # perf_counter is CLOCK_MONOTONIC system-wide on Linux, so
        # rebasing to the parent's epoch puts child spans on the
        # parent's timeline.
        tracer.epoch = epoch
    value, t, exc, registry = run_rank_job(
        program, comm, payload, tracer, metrics_on
    )
    return (
        value,
        t,
        tracer.events if tracer is not None else [],
        None if exc is None else describe_error(exc),
        registry.to_dict() if registry is not None else None,
    )


def _child_main(program, rank, size, inboxes, payload, epoch, timeout,
                metrics_on, results):
    """Fork-per-call worker entry (the legacy path, kept for rank
    programs that cannot be pickled into the persistent pool)."""
    comm = ShmCommunicator(rank, size, inboxes, timeout=timeout)
    results.put(
        (rank, *_run_rank_job(comm, program, payload, epoch, metrics_on))
    )


def _pool_worker(rank, size, inboxes, jobs, results):
    """Persistent pool worker: one long-lived communicator serving a
    stream of pickled jobs until the ``None`` shutdown sentinel.

    The communicator (its unexpected-message buffers and collective
    generation counter) deliberately persists across jobs: an eager rank
    may start job N+1 and send while a peer is still finishing job N, and
    that early arrival must be parked, not dropped with a fresh endpoint.
    """
    import pickle

    comm = ShmCommunicator(rank, size, inboxes)
    while True:
        blob = jobs.get()
        if blob is None:
            return
        job_id, program, payload, epoch, timeout, metrics_on = (
            pickle.loads(blob)
        )
        comm.timeout = timeout
        results.put(
            (job_id, rank,
             *_run_rank_job(comm, program, payload, epoch, metrics_on))
        )


class _RankPool:
    """A persistent set of forked rank workers (one per rank) reused
    across solves, so repeated SPMD runs pay the fork + interpreter
    warm-up once instead of per call."""

    def __init__(self, size: int):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.size = size
        self.inboxes = [ctx.Queue() for _ in range(size)]
        self.jobs = [ctx.Queue() for _ in range(size)]
        self.results = ctx.Queue()
        self.next_job = 0
        self.procs = [
            ctx.Process(
                target=_pool_worker,
                args=(r, size, self.inboxes, self.jobs[r], self.results),
                name=f"spmd-pool-{r}",
                daemon=True,
            )
            for r in range(size)
        ]
        for p in self.procs:
            p.start()

    def alive(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    def shutdown(self) -> None:
        for q in self.jobs:
            try:
                q.put_nowait(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        for p in self.procs:
            p.join(timeout=2.0)
            if p.is_alive():  # pragma: no cover - defensive
                p.terminate()


#: Live pools keyed by rank count.  A pool is discarded (and rebuilt on
#: next use) whenever a job errors or times out: a failed rank program may
#: leave undelivered messages or skewed collective generations behind, and
#: a fresh fork is the only state known to be clean.
_pools: dict[int, _RankPool] = {}
_atexit_registered = False


def _get_pool(size: int) -> _RankPool:
    global _atexit_registered
    pool = _pools.get(size)
    if pool is not None and not pool.alive():
        _discard_pool(size)
        pool = None
    if pool is None:
        pool = _RankPool(size)
        _pools[size] = pool
        if not _atexit_registered:
            import atexit

            atexit.register(shutdown_pools)
            _atexit_registered = True
    return pool


def _discard_pool(size: int) -> None:
    pool = _pools.pop(size, None)
    if pool is not None:
        pool.shutdown()


def shutdown_pools() -> None:
    """Tear down every persistent rank pool (also runs at interpreter
    exit)."""
    for size in list(_pools):
        _discard_pool(size)


def pool_worker_pids(size: int) -> list[int] | None:
    """PIDs of the live pool for ``size`` ranks (``None`` if no pool) —
    lets tests assert worker reuse across solves."""
    pool = _pools.get(size)
    if pool is None or not pool.alive():
        return None
    return [p.pid for p in pool.procs]


def run_in_processes(program, size, payloads, timeout: float | None,
                     metrics_on: bool = False):
    """Run ``program(comm, payloads[rank])`` in ``size`` worker processes
    and return the per-rank outcomes (rank order).

    Dispatches to a persistent rank pool when the jobs pickle (the normal
    case: module-level rank programs with array payloads); falls back to
    the legacy fork-per-call path for closure programs, which fork can
    inherit but a queue cannot carry.
    """
    import pickle

    from repro.trace import active_tracer

    tracer = active_tracer()
    epoch = tracer.epoch if tracer is not None else None
    try:
        pool = _get_pool(size)
        job_id = pool.next_job
        pool.next_job += 1
        blobs = [
            pickle.dumps(
                (job_id, program, payloads[r], epoch, timeout, metrics_on)
            )
            for r in range(size)
        ]
    except (pickle.PicklingError, AttributeError, TypeError):
        return _run_forked(program, size, payloads, timeout, metrics_on,
                           epoch)
    for r in range(size):
        pool.jobs[r].put(blobs[r])

    outcomes = _drain_results(
        size, timeout,
        lambda remaining: pool.results.get(timeout=remaining),
        pool.procs,
        expect_job=job_id,
        on_timeout=lambda: _discard_pool(size),
    )
    if any(o.error for o in outcomes):
        # A failed rank program may have left messages in flight or
        # collective generations skewed — retire the pool.
        _discard_pool(size)
    return outcomes


def _run_forked(program, size, payloads, timeout, metrics_on, epoch):
    """The original fork-per-call path."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    inboxes = [ctx.Queue() for _ in range(size)]
    results = ctx.Queue()

    procs = [
        ctx.Process(
            target=_child_main,
            args=(program, r, size, inboxes, payloads[r], epoch, timeout,
                  metrics_on, results),
            name=f"spmd-rank-{r}",
            daemon=True,
        )
        for r in range(size)
    ]
    for p in procs:
        p.start()

    # Drain results BEFORE joining: a child blocks in its queue feeder
    # until the parent reads its (potentially large) result.
    outcomes = _drain_results(
        size, timeout,
        lambda remaining: results.get(timeout=remaining),
        procs,
    )
    for p in procs:
        p.join(timeout=5.0)
        if p.is_alive():  # pragma: no cover - defensive
            p.terminate()
    return outcomes


def _drain_results(size, timeout, get, procs, expect_job=None,
                   on_timeout=None):
    """Collect one result per rank from a results queue, surfacing dead
    workers and enforcing the 4x-timeout deadline."""
    from repro.comm.backends import RankOutcome, SPMDError
    from repro.metrics.registry import MetricsRegistry
    from repro.util.counters import Tally

    outcomes = {r: None for r in range(size)}
    deadline = None if timeout is None else time.monotonic() + 4 * timeout
    while any(o is None for o in outcomes.values()):
        try:
            item = get(0.5)
        except Empty:
            missing = [r for r, o in outcomes.items() if o is None]
            dead = [
                r for r in missing
                if procs[r].exitcode is not None and procs[r].exitcode != 0
            ]
            for r in dead:
                outcomes[r] = RankOutcome(
                    rank=r,
                    error=(
                        f"worker process died with exit code "
                        f"{procs[r].exitcode} before reporting a result"
                    ),
                    tally=Tally(),
                )
            missing = [r for r, o in outcomes.items() if o is None]
            if missing and deadline is not None and time.monotonic() > deadline:
                if on_timeout is not None:
                    on_timeout()
                else:
                    for p in procs:
                        if p.is_alive():
                            p.terminate()
                raise SPMDError(
                    f"process backend timed out waiting for ranks {missing}"
                )
            continue
        if expect_job is not None:
            job_id, rank, value, t, events, error, metrics_doc = item
            if job_id != expect_job:  # pragma: no cover - stale straggler
                continue
        else:
            rank, value, t, events, error, metrics_doc = item
        outcomes[rank] = RankOutcome(
            rank=rank,
            value=value,
            tally=t if t is not None else Tally(),
            events=events,
            error=error,
            metrics=(
                MetricsRegistry.from_dict(metrics_doc)
                if metrics_doc is not None
                else None
            ),
        )
    return [outcomes[r] for r in range(size)]


__all__ = [
    "INLINE_LIMIT",
    "ShmCommunicator",
    "pool_worker_pids",
    "run_in_processes",
    "shutdown_pools",
]

"""Flop, byte and reduction accounting.

Every numerical kernel in this library (Dirac operator applications, BLAS
operations, halo exchanges) reports its cost to the *current tally*, a
thread-local stack of :class:`Tally` objects.  The performance model
(:mod:`repro.perfmodel`) consumes these tallies to convert measured
algorithmic work (e.g. "BiCGstab needed 412 operator applications and 3.1
GFLOP of BLAS") into modeled wall-clock time on the paper's hardware.

Flop counts use the community-standard numbers (the same ones QUDA and MILC
report performance against), not the count of arithmetic numpy happens to
perform; see :mod:`repro.perfmodel.kernels` for the per-operator constants.

Relation to tracing (:mod:`repro.trace`): tallies are *scalar* — they sum
costs over a region but discard when each cost occurred.  The
:func:`timed` context manager bridges the two systems: one
``perf_counter`` measurement is charged to the current tally's
``kernel_seconds`` *and* emitted as a trace span (when a tracer is
active), so per-kernel trace totals reproduce ``Tally.kernel_seconds``
exactly rather than approximately.  Paper-section map of the ``timed``
call sites: ``wilson_dslash``/``*_dslash`` are the Sec. 4/6.2 stencil
kernels, ``halo_exchange`` is the Sec. 6.1/6.3 ghost-zone machinery.

Relation to the SPMD communicators (:mod:`repro.comm`): a tally also
holds each rank's *waits* (:attr:`Tally.wait_seconds`) — the seconds a
rank spent blocked in a receive, an allreduce or a barrier, and the
overlapped halo's hidden window — so the per-rank wait table of a solve
report, like its operation counts, is merged at SPMD join from the
ranks' tallies.

Both the tally stack and the active tracer are thread-local; with neither
installed, :func:`record`/:func:`timed` cost one attribute check.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.trace.core import active_tracer, emit_complete

#: Wait kinds of :attr:`Tally.wait_seconds`.  Seconds a rank spent
#: blocked in a receive (``recv``, or ``wait_any`` on posted receives)
#: before the message was there.
RECV_WAIT = "spmd_recv_wait_seconds"
#: Seconds a rank spent in an allreduce, from its contribution to the
#: result — the global inner-product synchronization cost.
ALLREDUCE_WAIT = "spmd_allreduce_wait_seconds"
#: Seconds a rank spent in ``barrier`` — arrival skew.
BARRIER_WAIT = "spmd_barrier_wait_seconds"
#: An overlapped halo exchange's window, post to last face in: the time
#: communication had to hide under the interior kernel (one count per
#: exchange).
OVERLAP_WINDOW = "halo_overlap_window_seconds"
#: The part of that window the rank spent blocked in ``wait_any``.
OVERLAP_WAIT = "halo_overlap_wait_seconds"


@dataclass
class Tally:
    """Accumulated cost counters for a region of computation.

    Attributes
    ----------
    flops:
        Floating-point operations, using standard lattice-QCD counting.
    bytes_moved:
        Bytes of field data read+written by kernels (device-memory traffic
        in the GPU analogy).
    comm_bytes:
        Bytes exchanged between ranks of the virtual cluster (halo faces).
    messages:
        Number of point-to-point messages exchanged.
    reductions:
        Number of global reduction operations (inner products / norms that
        require an allreduce across the process grid).
    local_reductions:
        Reductions restricted to a single Schwarz domain — "the reductions
        required in each of the domain-specific linear solvers are
        restricted to that domain only" (Sec. 8.1) — which therefore cost
        no inter-GPU communication.
    operator_applications:
        Count of full Dirac-operator applications, keyed by operator name.
    seconds:
        Measured wall-clock seconds spent inside :func:`timed` kernel
        regions (the hot-path instrumentation the perf trajectory
        benchmarks track).  Only *leaf* kernels (dslash stencils, halo
        exchanges) are instrumented, so the total does not double-count
        nested regions.
    kernel_seconds:
        The same wall-clock seconds, keyed by kernel name.
    wait_seconds:
        Measured seconds and a count per ``(rank, wait kind)`` — the
        kinds are the module's ``*_WAIT`` / ``OVERLAP_*`` names —
        charged by the SPMD communicators around each blocking call and
        by the overlapped halo exchange.  Not part of ``seconds``.
    """

    flops: int = 0
    bytes_moved: int = 0
    comm_bytes: int = 0
    messages: int = 0
    reductions: int = 0
    local_reductions: int = 0
    operator_applications: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    kernel_seconds: dict[str, float] = field(default_factory=dict)
    wait_seconds: dict[tuple[int, str], list] = field(default_factory=dict)

    def add(
        self,
        flops: int = 0,
        bytes_moved: int = 0,
        comm_bytes: int = 0,
        messages: int = 0,
        reductions: int = 0,
        local_reductions: int = 0,
        seconds: float = 0.0,
    ) -> None:
        self.flops += int(flops)
        self.bytes_moved += int(bytes_moved)
        self.comm_bytes += int(comm_bytes)
        self.messages += int(messages)
        self.reductions += int(reductions)
        self.local_reductions += int(local_reductions)
        self.seconds += float(seconds)

    def add_operator(self, name: str, count: int = 1) -> None:
        self.operator_applications[name] = (
            self.operator_applications.get(name, 0) + count
        )

    def add_seconds(self, name: str, seconds: float) -> None:
        self.seconds += float(seconds)
        self.kernel_seconds[name] = (
            self.kernel_seconds.get(name, 0.0) + float(seconds)
        )

    def add_wait(self, rank: int, kind: str, seconds: float,
                 count: int = 1) -> None:
        entry = self.wait_seconds.setdefault((rank, kind), [0.0, 0])
        entry[0] += float(seconds)
        entry[1] += int(count)

    def to_dict(self) -> dict:
        """JSON-ready snapshot; :meth:`from_dict` round-trips it exactly
        (the ``tally`` block of a :class:`~repro.metrics.SolveReport`)."""
        return {
            "flops": self.flops,
            "bytes_moved": self.bytes_moved,
            "comm_bytes": self.comm_bytes,
            "messages": self.messages,
            "reductions": self.reductions,
            "local_reductions": self.local_reductions,
            "operator_applications": dict(self.operator_applications),
            "seconds": self.seconds,
            "kernel_seconds": dict(self.kernel_seconds),
            "wait_seconds": _nest_waits(self.wait_seconds),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Tally":
        return cls(
            flops=int(data.get("flops", 0)),
            bytes_moved=int(data.get("bytes_moved", 0)),
            comm_bytes=int(data.get("comm_bytes", 0)),
            messages=int(data.get("messages", 0)),
            reductions=int(data.get("reductions", 0)),
            local_reductions=int(data.get("local_reductions", 0)),
            operator_applications={
                str(k): int(v)
                for k, v in data.get("operator_applications", {}).items()
            },
            seconds=float(data.get("seconds", 0.0)),
            kernel_seconds={
                str(k): float(v)
                for k, v in data.get("kernel_seconds", {}).items()
            },
            wait_seconds={
                (int(rank), str(kind)): [float(m["seconds"]), int(m["count"])]
                for rank, kinds in data.get("wait_seconds", {}).items()
                for kind, m in kinds.items()
            },
        )

    def merge(self, other: "Tally") -> None:
        self.flops += other.flops
        self.bytes_moved += other.bytes_moved
        self.comm_bytes += other.comm_bytes
        self.messages += other.messages
        self.reductions += other.reductions
        self.local_reductions += other.local_reductions
        self.seconds += other.seconds
        for name, count in other.operator_applications.items():
            self.add_operator(name, count)
        for name, secs in other.kernel_seconds.items():
            self.kernel_seconds[name] = (
                self.kernel_seconds.get(name, 0.0) + secs
            )
        for (rank, kind), (secs, count) in other.wait_seconds.items():
            self.add_wait(rank, kind, secs, count)


def _nest_waits(waits: dict) -> dict:
    """``{(rank, kind): [seconds, count]}`` as JSON:
    ``{"<rank>": {kind: {"seconds", "count"}}}``, ranks and kinds
    sorted."""
    out: dict[str, dict] = {}
    for (rank, kind), (secs, count) in sorted(waits.items()):
        out.setdefault(str(rank), {})[kind] = {
            "seconds": secs, "count": count,
        }
    return out


class _TallyStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[Tally] = []
        self.local_scope_depth: int = 0
        self.timed_depth: int = 0


_STACK = _TallyStack()


def current_tally() -> Tally | None:
    """Return the innermost active tally, or ``None`` outside any ``tally()``."""
    return _STACK.stack[-1] if _STACK.stack else None


def record(
    flops: int = 0,
    bytes_moved: int = 0,
    comm_bytes: int = 0,
    messages: int = 0,
    reductions: int = 0,
    seconds: float = 0.0,
) -> None:
    """Add counts to the current tally (no-op when no tally is active).

    Inside a :func:`domain_local` scope, reduction counts are redirected to
    ``local_reductions`` (they need no inter-GPU communication).
    """
    t = current_tally()
    if t is None:
        return
    if reductions and _STACK.local_scope_depth > 0:
        t.add(flops, bytes_moved, comm_bytes, messages, 0, reductions, seconds)
    else:
        t.add(
            flops, bytes_moved, comm_bytes, messages, reductions,
            seconds=seconds,
        )


def record_wait(rank: int, kind: str, seconds: float) -> None:
    """Charge one measured wait of ``rank`` to the current tally."""
    t = current_tally()
    if t is not None:
        t.add_wait(rank, kind, seconds)


def record_seconds(name: str, seconds: float) -> None:
    """Charge measured wall-clock time to the named kernel."""
    t = current_tally()
    if t is not None:
        t.add_seconds(name, seconds)


def timing() -> bool:
    """Whether a timed region would be recorded anywhere right now."""
    return current_tally() is not None or active_tracer() is not None


def record_timed(name: str, kind: str, start: float, elapsed: float) -> None:
    """Charge an interval measured elsewhere — a leaf clocked by the
    native code that ran it — to the tally and the trace, as :func:`timed`
    charges the ones it measures."""
    record_seconds(name, elapsed)
    emit_complete(name, kind, start, elapsed, source="timed")


@contextmanager
def timed(name: str, kind: str = "kernel", rank: int | None = None,
          stream: str | None = None):
    """Measure the wall-clock time of a kernel region.

    Wraps a leaf kernel (a dslash stencil, a halo exchange) and charges
    ``time.perf_counter()`` elapsed seconds to the current tally under
    ``kernel_seconds[name]``.  The *same* measurement is also emitted as a
    trace span (kind/rank/stream tag it for the timeline viewer; rank and
    stream inherit from the enclosing span when ``None``) whenever a
    :func:`repro.trace.tracing` scope is active — so trace totals and
    tally totals cannot disagree.  A no-op-cost passthrough when neither a
    tally nor a tracer is active.  Do not nest timed regions: totals
    would double-count.  With ``REPRO_DEBUG_TIMING=1`` in the environment
    a nested region raises immediately; otherwise it is tolerated but its
    trace span carries ``nested: true`` so the summary can flag it.
    """
    has_tally = current_tally() is not None
    if not has_tally and active_tracer() is None:
        yield
        return
    nested = _STACK.timed_depth > 0
    if nested and os.environ.get("REPRO_DEBUG_TIMING") == "1":
        raise RuntimeError(
            f"nested timed() region {name!r}: kernel-seconds totals would "
            "double-count (REPRO_DEBUG_TIMING=1)"
        )
    _STACK.timed_depth += 1
    start = time.perf_counter()
    try:
        yield
    finally:
        _STACK.timed_depth -= 1
        elapsed = time.perf_counter() - start
        if has_tally:
            record_seconds(name, elapsed)
        if nested:
            emit_complete(
                name, kind, start, elapsed, rank=rank, stream=stream,
                source="timed", nested=True,
            )
        else:
            emit_complete(
                name, kind, start, elapsed, rank=rank, stream=stream,
                source="timed",
            )


@contextmanager
def domain_local():
    """Mark a region as domain-local: its reductions involve no communication.

    Used by the additive Schwarz preconditioner, whose block solves perform
    inner products restricted to one GPU's sub-domain.
    """
    _STACK.local_scope_depth += 1
    try:
        yield
    finally:
        _STACK.local_scope_depth -= 1


def record_operator(name: str, count: int = 1) -> None:
    t = current_tally()
    if t is not None:
        t.add_operator(name, count)


@contextmanager
def tally():
    """Context manager collecting kernel costs.

    Nested tallies each observe the work performed inside them: on exit an
    inner tally's totals are merged into its parent, so an outer tally sees
    the sum of everything.

    >>> with tally() as t:
    ...     some_kernel()
    >>> t.flops
    """
    t = Tally()
    _STACK.stack.append(t)
    try:
        yield t
    finally:
        _STACK.stack.pop()
        parent = current_tally()
        if parent is not None:
            parent.merge(t)

"""Span-based structured tracing of the virtual-cluster execution.

The paper's evidence for its design is a *timeline* (Fig. 4 and Secs.
6-8): gather kernels, PCI-E/IB transfers, the interior kernel and the
per-dimension exterior kernels overlapping on nine CUDA streams.  Scalar
tallies (:mod:`repro.util.counters`) can say *how much* work happened but
not *when*; this module records *spans* — named intervals with a rank, a
stream, a kind (the track family: ``gather``/``comm``/``scatter``/
``interior``/``exterior``/``reduction``/``solver``/...) and free-form
attributes — so the emulated execution can be rendered by a real timeline
viewer (:mod:`repro.trace.perfetto`) and compared against the modeled
Fig. 4 schedule (:mod:`repro.trace.model`).

Like the tally stack, the active :class:`Tracer` is *thread-local*: it is
installed with the :func:`tracing` context manager and :func:`span` is a
zero-cost passthrough (one thread-local attribute check, no allocation)
when no tracer is active — tracing off is the default and must not
perturb the hot-path benchmarks.

Spans nest: they are opened/closed strictly LIFO within a thread (enforced
by the context-manager protocol), and a span with no explicit ``rank`` or
``stream`` inherits them from its enclosing span, so e.g. the
``wilson_dslash`` kernel span emitted deep inside an interior-kernel
application lands on the correct rank's track without the operator
knowing which virtual rank it runs for.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

#: Pseudo-rank used for *modeled* (rather than measured) events — the
#: Fig. 4 :class:`~repro.perfmodel.streams.DslashTimeline` track that
#: :mod:`repro.trace.model` emits alongside the measured spans.
MODEL_RANK = -1


@dataclass
class TraceEvent:
    """One completed span.

    ``start``/``duration`` are seconds relative to the owning tracer's
    epoch.  ``rank`` is the virtual GPU rank the work belongs to (``None``
    for host/driver-level work such as outer-solver bookkeeping,
    :data:`MODEL_RANK` for modeled events); ``stream`` names the track
    within the rank, mirroring the paper's CUDA streams ("compute", or
    "comm X+"-style transfer streams).
    """

    name: str
    kind: str
    start: float
    duration: float
    rank: int | None = None
    stream: str | None = None
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class Tracer:
    """An event sink with its own time epoch.

    Thread-safe on the emit path (a tracer may be shared between threads,
    each installing it with :func:`tracing`); ordering of ``events`` is
    completion order, which for single-threaded emulation is the LIFO
    close order of the spans.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.epoch = clock()
        self.events: list[TraceEvent] = []
        self._lock = threading.Lock()

    def now(self) -> float:
        """Seconds since this tracer was created."""
        return self._clock() - self.epoch

    def emit(self, event: TraceEvent) -> None:
        with self._lock:
            self.events.append(event)


class _OpenSpan:
    __slots__ = ("name", "kind", "rank", "stream", "start", "args")

    def __init__(self, name, kind, rank, stream, start, args):
        self.name = name
        self.kind = kind
        self.rank = rank
        self.stream = stream
        self.start = start
        self.args = args


class _TraceState(threading.local):
    def __init__(self) -> None:
        self.stack: list[Tracer] = []
        self.spans: list[_OpenSpan] = []


_STATE = _TraceState()


def active_tracer() -> Tracer | None:
    """The innermost tracer installed on *this thread*, or ``None``."""
    return _STATE.stack[-1] if _STATE.stack else None


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Install a tracer on the current thread for the duration of the block.

    >>> with tracing() as tr:
    ...     run_solve()
    >>> write_chrome_trace("trace.json", tr.events)
    """
    tr = tracer if tracer is not None else Tracer()
    _STATE.stack.append(tr)
    try:
        yield tr
    finally:
        _STATE.stack.pop()


#: What :func:`span` returns untraced: a context that does nothing (it
#: holds no state, so every caller on every thread shares it).
_UNTRACED = nullcontext()


def span(
    name: str,
    kind: str = "kernel",
    rank: int | None = None,
    stream: str | None = None,
    **attrs,
):
    """Record a named interval on the active tracer (no-op when disabled:
    a shared do-nothing context, so an untraced span costs a call).

    ``rank`` and ``stream`` default to the values of the enclosing open
    span, if any.  Keyword attributes are stored on the event's ``args``.
    """
    tr = active_tracer()
    if tr is None:
        return _UNTRACED
    return _span(tr, name, kind, rank, stream, attrs)


@contextmanager
def _span(tr: Tracer, name: str, kind: str, rank, stream, attrs: dict):
    parent = _STATE.spans[-1] if _STATE.spans else None
    if parent is not None:
        if rank is None:
            rank = parent.rank
        if stream is None:
            stream = parent.stream
    rec = _OpenSpan(name, kind, rank, stream, tr.now(), attrs)
    _STATE.spans.append(rec)
    try:
        yield rec
    finally:
        _STATE.spans.pop()
        tr.emit(
            TraceEvent(
                name=rec.name,
                kind=rec.kind,
                start=rec.start,
                duration=tr.now() - rec.start,
                rank=rec.rank,
                stream=rec.stream,
                args=rec.args,
            )
        )


def emit_complete(
    name: str,
    kind: str,
    start: float,
    duration: float,
    rank: int | None = None,
    stream: str | None = None,
    **attrs,
) -> None:
    """Emit a pre-measured interval (used by :func:`repro.util.counters.timed`
    to report the *same* elapsed measurement to both the tally and the
    trace, so per-kernel trace totals agree with ``Tally.kernel_seconds``
    exactly).  ``start`` is an absolute clock reading; it is rebased to
    the tracer's epoch.  No-op when tracing is disabled.
    """
    tr = active_tracer()
    if tr is None:
        return
    parent = _STATE.spans[-1] if _STATE.spans else None
    if parent is not None:
        if rank is None:
            rank = parent.rank
        if stream is None:
            stream = parent.stream
    tr.emit(
        TraceEvent(
            name=name,
            kind=kind,
            start=start - tr.epoch,
            duration=duration,
            rank=rank,
            stream=stream,
            args=attrs,
        )
    )


def instant(name: str, kind: str = "mark", rank: int | None = None, **attrs) -> None:
    """Record a zero-duration marker (e.g. a restart boundary)."""
    tr = active_tracer()
    if tr is None:
        return
    parent = _STATE.spans[-1] if _STATE.spans else None
    if rank is None and parent is not None:
        rank = parent.rank
    tr.emit(
        TraceEvent(
            name=name,
            kind=kind,
            start=tr.now(),
            duration=0.0,
            rank=rank,
            stream=parent.stream if parent is not None else None,
            args=attrs,
        )
    )

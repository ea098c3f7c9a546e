"""Request-lifecycle tracing for the solve service.

Every admitted request carries a :class:`RequestTrace` — its
``request_id`` plus ``time.perf_counter()`` marks at each life stage —
through the queue, the coalescer and the dispatcher.  When the service
owns a :class:`~repro.trace.core.Tracer`, the dispatcher emits three
span kinds into the same trace stream the solver kernels use, so one
Perfetto export (:mod:`repro.trace.perfetto`) shows a request's full
lifecycle on the serve track beside the per-rank solve tracks:

``queue_wait``
    One span per request: admission -> the dispatcher picking its batch
    up.  ``args.request_id`` correlates it with the client's
    ``X-Request-Id`` header and the response document.
``coalesce_window``
    One span per batch: how long the coalescing window stayed open.
    ``args.request_ids`` lists every member of the batch.
``batched_solve``
    One span per batch: the single batched multi-RHS solve that served
    the group.  The solver's own kernel/solver spans nest under the same
    export because the dispatcher runs the solve with the service tracer
    installed.

All serve spans live on ``rank=None`` (the host track in the Perfetto
export) with ``stream="serve"`` so they render as one dedicated row.

Clock discipline: the queue's scheduling logic runs on
``time.monotonic`` (deadlines), but tracers rebase against
``time.perf_counter`` epochs — so :class:`RequestTrace` records its own
perf_counter marks and never mixes the two clocks.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field

from repro.trace.core import emit_complete

#: The stream name of every serve-lifecycle span (one Perfetto row).
SERVE_STREAM = "serve"

#: The span kind of every serve-lifecycle span (its Perfetto category).
SERVE_KIND = "serve"


def new_request_id() -> str:
    """A fresh globally unique request id (``req-<12 hex chars>``).

    Used by :class:`~repro.serve.client.ServeClient` for payloads that
    do not carry their own ``id``, so client logs, the ``X-Request-Id``
    header and the server's trace spans all correlate.
    """
    return f"req-{uuid.uuid4().hex[:12]}"


@dataclass
class RequestTrace:
    """One request's lifecycle marks (``time.perf_counter`` seconds).

    Attributes
    ----------
    request_id:
        The request's id (assigned at admission, echoed in spans).
    submitted_pc:
        perf_counter at admission into the queue.
    scheduled_pc:
        perf_counter when the dispatcher picked the request's batch up
        (end of the ``queue_wait`` span), or ``None`` while queued.
    solve_start_pc, solve_end_pc:
        perf_counter around the batched solve, or ``None``.
    """

    request_id: str = ""
    submitted_pc: float = field(default_factory=time.perf_counter)
    scheduled_pc: float | None = None
    solve_start_pc: float | None = None
    solve_end_pc: float | None = None


def emit_queue_wait(trace: RequestTrace) -> None:
    """Emit one request's ``queue_wait`` span on the active tracer
    (no-op when tracing is disabled or the request was never scheduled).
    """
    if trace.scheduled_pc is None:
        return
    emit_complete(
        "queue_wait",
        kind=SERVE_KIND,
        start=trace.submitted_pc,
        duration=trace.scheduled_pc - trace.submitted_pc,
        rank=None,
        stream=SERVE_STREAM,
        request_id=trace.request_id,
    )


def emit_coalesce_window(
    request_ids: list[str], opened_pc: float, closed_pc: float
) -> None:
    """Emit one batch's ``coalesce_window`` span on the active tracer.

    Args:
        request_ids: Ids of every request in the coalesced batch.
        opened_pc: perf_counter when the window opened (leader popped).
        closed_pc: perf_counter when the window closed (batch sealed).
    """
    emit_complete(
        "coalesce_window",
        kind=SERVE_KIND,
        start=opened_pc,
        duration=max(0.0, closed_pc - opened_pc),
        rank=None,
        stream=SERVE_STREAM,
        request_ids=list(request_ids),
    )


def emit_batched_solve(
    request_ids: list[str],
    start_pc: float,
    end_pc: float,
    lanes: int,
    occupancy: int,
) -> None:
    """Emit one batch's ``batched_solve`` span on the active tracer.

    Args:
        request_ids: Ids of every request served by this solve.
        start_pc: perf_counter just before the batched solve call.
        end_pc: perf_counter just after it returned.
        lanes: Lanes solved.
        occupancy: Requests in the batch (equal to ``lanes``: batches
            are not padded).
    """
    emit_complete(
        "batched_solve",
        kind=SERVE_KIND,
        start=start_pc,
        duration=max(0.0, end_pc - start_pc),
        rank=None,
        stream=SERVE_STREAM,
        request_ids=list(request_ids),
        lanes=lanes,
        occupancy=occupancy,
    )

"""The solve service: queue -> coalescer -> one batched solve per group.

``SolveService`` is the long-running daemon behind ``python -m repro
serve``: a bounded admission queue (:mod:`repro.serve.queue`), a
coalescing scheduler (:mod:`repro.serve.coalescer`) and a single
dispatcher thread that turns each same-fingerprint group into **one**
batched multi-RHS :func:`repro.core.api.solve` call — the serving layer
the paper's economics ask for: many small solves become one big,
well-scheduled computation, with operator setup (gauge construction,
asqtad link fattening) cached across requests.

**Bit-reproducibility contract.**  A lane's result is independent of
the batch shape: every batched kernel and solver treats the batch axis
as elementwise lanes, so a lane is bitwise insensitive to how many
other lanes ride with it, to what they contain and to its position
among them (asserted per served configuration in
``tests/dirac/test_batched_lanes.py``).  The result a request receives
is therefore bitwise identical whether it was coalesced with neighbors
or served alone — and equal to a solo ``solve(SolveRequest)`` call on
a batch of one holding that right-hand side.

Every served request carries the full flight-recorder
:class:`~repro.metrics.SolveReport` of its batch, and the service
maintains a long-lived :class:`~repro.metrics.MetricsRegistry` (queue
depth, coalesce ratio, batch occupancy, end-to-end latency histograms,
merged per-solve wait metrics) exported through the existing Prometheus
text format (``GET /metrics`` on the HTTP front).
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from repro.metrics.registry import MetricsRegistry, histogram_quantile
from repro.metrics.export import to_prometheus
from repro.serve.coalescer import (
    DEFAULT_MAX_BATCH,
    Coalescer,
    CoalesceOutcome,
)
from repro.serve.errors import (
    DeadlineExpiredError,
    RequestValidationError,
    ServeError,
    ServiceClosedError,
    SolveFailedError,
)
from repro.serve.queue import QueuedRequest, SolveQueue, Ticket
from repro.serve.request import ServiceRequest, encode_array
from repro.serve.tracing import (
    RequestTrace,
    emit_batched_solve,
    emit_coalesce_window,
    emit_queue_wait,
)
from repro.trace.core import tracing

#: Batch-occupancy histogram buckets (lanes per executed batch).
OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _finite_or_none(value):
    """A JSON-ready value with every NaN / infinity replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_none(v) for v in value]
    return value


@dataclass
class ServedResult:
    """One request's slice of a completed batched solve.

    Attributes
    ----------
    request:
        The originating :class:`~repro.serve.request.ServiceRequest`.
    x:
        The solution lane (numpy array).
    converged, iterations, residual:
        This lane's outcome (scalars).
    breakdown:
        The solver's ``extras["breakdown"]`` for this lane: ``False``,
        ``True`` (a vanishing coefficient) or ``"non-finite"``.  That, or
        a non-finite ``residual``, is the lane having *diverged*
        (:attr:`diverged`): the solver ended it on a NaN or infinite
        reduction, its batch-mates untouched.
    lane:
        Which lane of the batch carried this request.
    occupancy:
        Requests in the batch (the lanes solved).
    report:
        The batch's shared :class:`~repro.metrics.SolveReport`.
    queue_seconds, coalesce_wait_seconds, solve_seconds,
    latency_seconds:
        The request's life stages: admission->scheduling,
        window-open time, the batched solve, and submit->result
        end-to-end.
    """

    request: ServiceRequest
    x: np.ndarray
    converged: bool
    iterations: int
    residual: float
    lane: int
    occupancy: int
    report: object
    queue_seconds: float
    coalesce_wait_seconds: float
    solve_seconds: float
    latency_seconds: float
    breakdown: object = False

    @property
    def diverged(self) -> bool:
        """Whether the solver ended this lane on a NaN or infinite
        reduction, or its residual came back NaN or infinite (a lane
        leaves the batch with the last ``x`` it had, which may still be
        finite)."""
        return self.breakdown == "non-finite" or not math.isfinite(self.residual)

    def to_wire(self, packed: bool = False) -> dict:
        """The JSON-ready response object for this result.

        Args:
            packed: The array form of the solution
                (:func:`~repro.serve.request.encode_array`); the HTTP
                front takes it from the request's ``Accept`` header.

        Returns:
            A dict with ``status="ok"``, the per-lane outcome, batch
            placement (``lane``/``occupancy``/``lanes``/``coalesced``),
            timings, the operator fingerprint, the full solve report —
            and, when the request asked for it, the solution array.  A
            :attr:`diverged` lane is ``status="diverged"`` instead, with
            ``converged=False``, ``residual=None``,
            ``breakdown="non-finite"`` and never a solution: no
            non-finite number goes on the wire, where JSON has no
            spelling for one.
        """
        diverged = self.diverged
        doc = {
            "id": self.request.id,
            "status": "diverged" if diverged else "ok",
            "converged": bool(self.converged) and not diverged,
            "iterations": int(self.iterations),
            "residual": None if diverged else float(self.residual),
            "batch": {
                "lane": self.lane,
                "occupancy": self.occupancy,
                "lanes": self.occupancy,
                "coalesced": self.occupancy > 1,
            },
            "timing": {
                "queue_seconds": self.queue_seconds,
                "coalesce_wait_seconds": self.coalesce_wait_seconds,
                "solve_seconds": self.solve_seconds,
                "latency_seconds": self.latency_seconds,
            },
            "fingerprint": self.request.fingerprint,
            "report": self.report.to_dict() if self.report else None,
        }
        if diverged:
            doc["breakdown"] = "non-finite"
        elif self.request.return_solution:
            doc["solution"] = encode_array(self.x, packed)
        return doc


class SolveService:
    """The coalescing solve daemon (see the module docstring)."""

    def __init__(
        self,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait: float = 0.05,
        capacity: int = 64,
        default_timeout: float | None = None,
        tracer=None,
    ) -> None:
        """Configure the service (call :meth:`start` to run it).

        Args:
            max_batch: Lanes per batched solve; a group closes when it
                holds this many requests.
            max_wait: Coalescing window seconds — how long a batch stays
                open for compatible requests after its leader arrives.
            capacity: Bounded queue size; submits beyond it are rejected
                with :class:`~repro.serve.errors.QueueFullError`.
            default_timeout: Deadline applied to requests that carry no
                ``timeout_seconds`` of their own (``None`` = none).
            tracer: Optional :class:`~repro.trace.core.Tracer`; when
                set, the dispatcher emits ``queue_wait`` /
                ``coalesce_window`` / ``batched_solve`` lifecycle spans
                and runs every batched solve under this tracer, so the
                solver's kernel spans land in the same Perfetto export
                (docs/serving.md, "Request lifecycle").
        """
        self.queue = SolveQueue(capacity=capacity)
        self.coalescer = Coalescer(
            self.queue, max_batch=max_batch, max_wait=max_wait
        )
        self.default_timeout = default_timeout
        self.tracer = tracer
        self._gauges: dict[str, tuple] = {}
        self._asqtad_links: dict[str, object] = {}
        self._registry = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        self._id_lock = threading.Lock()
        self._next_id = 0
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SolveService":
        """Start the dispatcher thread (idempotent).

        Returns:
            This service, for chaining
            (``service = SolveService(...).start()``).
        """
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="serve-dispatcher",
                daemon=True,
            )
            self._started_at = time.monotonic()
            self._thread.start()
        return self

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service.

        New submissions are rejected immediately with
        :class:`~repro.serve.errors.ServiceClosedError`.  With
        ``drain=True`` (graceful), everything already admitted — queued
        *and* in-flight — is still solved before the dispatcher exits;
        with ``drain=False``, queued requests fail with the typed
        shutdown error and only the in-flight batch completes.

        Args:
            drain: Finish queued work before stopping.
            timeout: Seconds to wait for the dispatcher to exit.
        """
        self.queue.close()
        if not drain:
            for entry in self.queue.drain_all():
                entry.ticket.set_error(
                    ServiceClosedError("service shut down before solving")
                )
                self._count_request("rejected_closed")
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def running(self) -> bool:
        """Whether the dispatcher thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, request, decode_seconds: float = 0.0) -> Ticket:
        """Admit one request and return the ticket to wait on.

        Args:
            request: A decoded wire payload (``dict``) or an
                already-validated
                :class:`~repro.serve.request.ServiceRequest`.
            decode_seconds: What the caller already spent decoding this
                request (the HTTP front's ``json.loads``); validation
                and the rhs build are added to it and the sum is
                observed once, in ``serve_decode_seconds``.

        Returns:
            A :class:`~repro.serve.queue.Ticket`; ``ticket.result()``
            yields a :class:`ServedResult`.

        Raises:
            RequestValidationError: Malformed payload (names the field).
            QueueFullError: The bounded queue is at capacity.
            ServiceClosedError: The service is draining or stopped.
        """
        if not isinstance(request, ServiceRequest):
            t0 = time.perf_counter()
            try:
                request = ServiceRequest.from_wire(request)
            except RequestValidationError:
                self._count_request("invalid")
                raise
            decode_seconds += time.perf_counter() - t0
        if request.id is None:
            with self._id_lock:
                request.id = f"req-{self._next_id}"
                self._next_id += 1
        ticket = Ticket()
        timeout = request.timeout_seconds
        if timeout is None:
            timeout = self.default_timeout
        entry = QueuedRequest(
            request=request,
            ticket=ticket,
            deadline=(
                None if timeout is None else time.monotonic() + timeout
            ),
            trace=RequestTrace(request_id=request.id),
            decode_seconds=decode_seconds,
        )
        try:
            self.queue.put(entry)
        except ServeError as exc:
            self._count_request(
                "rejected_full"
                if exc.code == "queue_full"
                else "rejected_closed"
            )
            raise
        self._count_request("accepted")
        with self._metrics_lock:
            self._registry.gauge("serve_queue_depth").set(self.queue.depth)
        return ticket

    def solve_sync(self, payload, timeout: float | None = None) -> ServedResult:
        """Submit and wait: the one-call in-process client.

        Args:
            payload: Wire payload dict or
                :class:`~repro.serve.request.ServiceRequest`.
            timeout: Seconds to wait for the result.

        Returns:
            The :class:`ServedResult`.

        Raises:
            ServeError: Any typed admission or solve failure.
            TimeoutError: No result within ``timeout``.
        """
        return self.submit(payload).result(timeout)

    # ------------------------------------------------------------------
    # the dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Scheduler body: coalesce, execute, account — until drained."""
        while True:
            outcome = self.coalescer.next_group(poll_timeout=0.05)
            for entry in outcome.expired:
                entry.ticket.set_error(
                    DeadlineExpiredError(
                        f"request {entry.request.id} expired after "
                        f"{time.monotonic() - entry.enqueued_at:.3f}s in "
                        "queue (deadline passed before a batch picked it up)",
                        request_id=entry.request.id,
                    )
                )
                self._count_request("expired")
            if outcome.group:
                scope = (
                    tracing(self.tracer)
                    if self.tracer is not None
                    else nullcontext()
                )
                try:
                    with scope:
                        self._execute(outcome)
                except Exception as exc:  # noqa: BLE001 - fail the batch
                    for entry in outcome.group:
                        if not entry.ticket.done:
                            entry.ticket.set_error(
                                SolveFailedError(
                                    f"batched solve failed: {exc!r}",
                                    request_id=entry.request.id,
                                )
                            )
                    self._count_request("failed", len(outcome.group))
            with self._metrics_lock:
                self._registry.gauge("serve_queue_depth").set(
                    self.queue.depth
                )
            if not outcome.group and self.queue.closed \
                    and self.queue.depth == 0:
                return

    def _execute(self, outcome: CoalesceOutcome) -> None:
        """Serve one coalesced group with a single batched solve."""
        from repro.core.api import SolveRequest, solve
        from repro.dirac.base import BoundarySpec

        group, waited = outcome.group, outcome.waited_seconds
        sched_pc = time.perf_counter()
        for entry in group:
            if entry.trace is not None:
                entry.trace.scheduled_pc = sched_pc
                emit_queue_wait(entry.trace)
        if outcome.window_opened_pc is not None:
            emit_coalesce_window(
                [e.request.id for e in group],
                outcome.window_opened_pc,
                outcome.window_closed_pc,
            )

        spec_request: ServiceRequest = group[0].request
        gauge, geometry = self._gauge_for(spec_request)
        sched_time = time.monotonic()

        lanes: list[np.ndarray] = []
        good: list[QueuedRequest] = []
        for entry in group:
            t0 = time.perf_counter()
            try:
                lanes.append(entry.request.materialize_rhs(geometry))
            except ServeError as exc:
                exc.request_id = entry.request.id
                entry.ticket.set_error(exc)
                self._count_request("invalid")
                continue
            entry.decode_seconds += time.perf_counter() - t0
            good.append(entry)
        if not good:
            return

        n_real = len(lanes)
        rhs = np.stack(lanes)

        solve_gauge = gauge
        if spec_request.operator == "asqtad":
            solve_gauge = self._links_for(spec_request, gauge)
        grid = None
        if spec_request.precond != "none":
            from repro.comm.grid import choose_grid

            grid = choose_grid(
                spec_request.precond_blocks, (3, 2, 1, 0), geometry.dims
            )
        request = SolveRequest(
            operator=spec_request.operator,
            gauge=solve_gauge,
            rhs=rhs,
            mass=spec_request.mass,
            csw=spec_request.csw,
            method=spec_request.method,
            tol=spec_request.tol,
            maxiter=spec_request.maxiter,
            boundary=BoundarySpec(tuple(spec_request.boundary)),
            even_odd=spec_request.even_odd,
            inner_precision=spec_request.precision_object(),
            u0=spec_request.u0,
            kernel=spec_request.kernel,
            grid=grid,
            precond=spec_request.precond,
            precond_steps=spec_request.precond_steps,
            precond_overlap=spec_request.precond_overlap,
        )
        t0 = time.perf_counter()
        result = solve(request)
        t1 = time.perf_counter()
        solve_seconds = t1 - t0
        emit_batched_solve(
            [e.request.id for e in good], t0, t1,
            lanes=n_real, occupancy=n_real,
        )

        breakdown = result.extras.get("breakdown", [False] * n_real)
        batch_report = result.report
        if batch_report is not None and (
            not np.all(np.isfinite(result.residuals))
            or "non-finite" in list(breakdown)
        ):
            # The report folds every lane into its summary rows (the
            # batch's worst residual, the per-iteration history): a
            # diverged lane's NaN must not ride to its batch-mates'
            # lines, which are still plain JSON.
            batch_report = dc_replace(
                batch_report,
                solve=_finite_or_none(batch_report.solve),
                residual_history=_finite_or_none(
                    batch_report.residual_history
                ),
            )

        now = time.monotonic()
        for lane, entry in enumerate(good):
            if entry.trace is not None:
                entry.trace.solve_start_pc = t0
                entry.trace.solve_end_pc = t1
            queue_seconds = sched_time - entry.enqueued_at
            latency_seconds = now - entry.enqueued_at
            report = batch_report
            if report is not None:
                # Each request gets its own copy of the batch report
                # carrying its lifecycle breakdown (the same numbers as
                # the wire ``timing`` block and the trace spans).
                report = dc_replace(
                    report,
                    serve={
                        "request_id": entry.request.id,
                        "queue_seconds": queue_seconds,
                        "coalesce_window_seconds": waited,
                        "solve_seconds": solve_seconds,
                        "latency_seconds": latency_seconds,
                        "lane": lane,
                        "occupancy": n_real,
                    },
                )
            served = ServedResult(
                request=entry.request,
                x=np.array(result.x[lane]),
                converged=bool(result.converged[lane]),
                iterations=int(result.iterations[lane]),
                residual=float(result.residuals[lane]),
                lane=lane,
                occupancy=n_real,
                report=report,
                queue_seconds=queue_seconds,
                coalesce_wait_seconds=waited,
                solve_seconds=solve_seconds,
                latency_seconds=latency_seconds,
                breakdown=breakdown[lane],
            )
            self._count_request(
                "diverged" if served.diverged else "completed"
            )
            entry.ticket.set_result(served)
        self._record_batch(
            good, n_real, solve_seconds, waited, now, sched_time, result
        )

    # ------------------------------------------------------------------
    # cached operator setup
    # ------------------------------------------------------------------
    def _gauge_for(self, request: ServiceRequest) -> tuple:
        """The (cached) gauge configuration a request's spec describes.

        Returns:
            ``(GaugeField, Geometry)``; repeated requests against the
            same spec reuse the constructed field.
        """
        import json as _json

        from repro.lattice import GaugeField, Geometry

        key = _json.dumps(request.gauge, sort_keys=True)
        cached = self._gauges.get(key)
        if cached is not None:
            return cached
        spec = request.gauge
        if spec["kind"] == "file":
            from repro import io as repro_io

            gauge, _ = repro_io.load_gauge(spec["path"])
            geometry = gauge.geometry
        else:
            geometry = Geometry(tuple(spec["dims"]))
            if spec["kind"] == "weak":
                gauge = GaugeField.weak(
                    geometry, epsilon=spec["epsilon"], rng=spec["seed"]
                )
            elif spec["kind"] == "hot":
                gauge = GaugeField.hot(geometry, rng=spec["seed"])
            else:
                gauge = GaugeField.unit(geometry)
        self._gauges[key] = (gauge, geometry)
        return gauge, geometry

    def _links_for(self, request: ServiceRequest, gauge):
        """Cached asqtad fat/long links for (gauge spec, u0) — the
        expensive per-operator setup reused across requests."""
        import json as _json

        from repro.gauge.asqtad import build_asqtad_links

        key = _json.dumps(
            {"gauge": request.gauge, "u0": request.u0}, sort_keys=True
        )
        links = self._asqtad_links.get(key)
        if links is None:
            links = build_asqtad_links(gauge, u0=request.u0)
            self._asqtad_links[key] = links
        return links

    # ------------------------------------------------------------------
    # metrics / stats
    # ------------------------------------------------------------------
    def _count_request(self, outcome: str, n: int = 1) -> None:
        """Bump ``serve_requests_total{outcome=...}`` by ``n``."""
        with self._metrics_lock:
            self._registry.counter(
                "serve_requests_total", outcome=outcome
            ).inc(n)

    def _record_batch(
        self, good, n_real, solve_seconds, waited, now, sched_time, result
    ) -> None:
        """Account one executed batch into the service registry."""
        with self._metrics_lock:
            reg = self._registry
            reg.counter("serve_batches_total").inc()
            reg.counter("serve_batched_requests_total").inc(n_real)
            reg.histogram(
                "serve_batch_occupancy", buckets=OCCUPANCY_BUCKETS
            ).observe(n_real)
            reg.histogram("serve_batch_solve_seconds").observe(solve_seconds)
            reg.histogram("serve_coalesce_wait_seconds").observe(waited)
            for entry in good:
                reg.histogram("serve_queue_wait_seconds").observe(
                    max(0.0, sched_time - entry.enqueued_at)
                )
                reg.histogram("serve_request_latency_seconds").observe(
                    now - entry.enqueued_at
                )
                reg.histogram("serve_decode_seconds").observe(
                    entry.decode_seconds
                )
            report = getattr(result, "report", None)
            if report is not None and report.metrics:
                reg.merge(MetricsRegistry.from_dict(report.metrics))

    def observe_encode(self, seconds: float) -> None:
        """Record what one response cost to put on the wire
        (``to_wire`` + ``json.dumps``, timed by the front that did it)
        in ``serve_encode_seconds``."""
        with self._metrics_lock:
            self._registry.histogram("serve_encode_seconds").observe(seconds)

    def _percentiles(self, name: str) -> dict | None:
        """p50/p90/p99 of one serve histogram, or ``None`` before any
        observation landed (caller holds the metrics lock)."""
        hist = None
        for _, h in self._registry.histograms.items():
            if h.name == name:
                hist = h
                break
        if hist is None or hist.count == 0:
            return None
        return {
            f"p{int(q * 100)}": histogram_quantile(hist, q)
            for q in (0.5, 0.9, 0.99)
        }

    def prometheus(self) -> str:
        """The service registry in Prometheus text exposition format
        (what ``GET /metrics`` serves)."""
        with self._metrics_lock:
            self._registry.gauge("serve_queue_depth").set(self.queue.depth)
            return to_prometheus(self._registry)

    def stats(self) -> dict:
        """A JSON-ready operational snapshot (``GET /v1/stats``).

        Returns:
            Queue depth/capacity, the coalescing knobs, per-outcome
            request counts, batch counts, the **coalesce ratio**
            (requests served per batched solve; > 1 means coalescing is
            happening), and a ``latency`` block with p50/p90/p99 for
            queue wait, solve time and end-to-end latency, derived from
            the serve histograms by bucket interpolation.
        """
        with self._metrics_lock:
            outcomes = {
                c.labels.get("outcome", "?"): int(c.value)
                for _, c in sorted(self._registry.counters.items())
                if c.name == "serve_requests_total"
            }
            batches = sum(
                c.value
                for _, c in self._registry.counters.items()
                if c.name == "serve_batches_total"
            )
            batched_requests = sum(
                c.value
                for _, c in self._registry.counters.items()
                if c.name == "serve_batched_requests_total"
            )
            latency = {
                label: self._percentiles(name)
                for label, name in (
                    ("queue_wait_seconds", "serve_queue_wait_seconds"),
                    ("solve_seconds", "serve_batch_solve_seconds"),
                    ("latency_seconds", "serve_request_latency_seconds"),
                )
            }
        return {
            "queue_depth": self.queue.depth,
            "capacity": self.queue.capacity,
            "max_batch": self.coalescer.max_batch,
            "max_wait_seconds": self.coalescer.max_wait,
            # Batches are never padded.  The key stays for /stats readers
            # that divide by it to get the fill of a batch (e2e_bench).
            "pad_to": self.coalescer.max_batch,
            "requests": outcomes,
            "batches_total": int(batches),
            "batched_requests_total": int(batched_requests),
            "coalesce_ratio": (
                batched_requests / batches if batches else None
            ),
            "latency": latency,
            "draining": self.queue.closed,
            "running": self.running,
            "uptime_seconds": (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            ),
        }

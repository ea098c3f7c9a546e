"""The HTTP/JSONL front of the solve service.

A deliberately small, stdlib-only JSON-over-HTTP surface (one
``ThreadingHTTPServer``, no web framework) in front of
:class:`~repro.serve.service.SolveService`:

``POST /v1/solve``
    One JSON request -> one JSON response.  The handler thread parks on
    the ticket while the dispatcher coalesces and solves; concurrent
    clients with compatible requests therefore land in one batch.
``POST /v1/solve/jsonl``
    One request per line, **all submitted before any is awaited** — the
    natural way for a single client to get its own requests coalesced.
    Responses come back as JSONL in request order; a bad line yields an
    error object on that line without failing the rest.
``GET /metrics``
    The service registry in Prometheus text exposition format.
``GET /v1/stats``
    Operational snapshot (queue depth, coalesce ratio, outcome counts).
``GET /healthz``
    Liveness: 200 while accepting, 503 while draining.

A solve whose lane diverged (a NaN or infinite reduction) is still a
200: the line says ``"status": "diverged"`` with ``"residual": null`` and
no solution, and every response line is strict JSON (no ``NaN`` token).
Every typed :class:`~repro.serve.errors.ServeError` maps to its own
HTTP status (400 validation, 429 queue full, 503 draining, 504 deadline,
500 solve failure) with a JSON body carrying the machine-readable
``code``/``field``/``choices``.  A body that cannot be read — bytes that
are not JSON text (invalid UTF-8 included), or a ``Content-Length`` that
is not a non-negative integer — is a 400 ``invalid_request`` too; on the
JSONL route a line that does not decode gets its error object on its own
line.

**Array form.**  A solve response carries its solution as nested
``real``/``imag`` lists unless the request's ``Accept`` header names the
packed form with a media-type parameter — ``Accept:
application/json;arrays=base64`` (``application/jsonl;arrays=base64`` on
the JSONL route) — in which case every array of the response is
``{"b64", "dtype", "shape"}`` and the response ``Content-Type`` echoes
the parameter (:func:`~repro.serve.request.encode_array`;
docs/serving.md, "Arrays on the wire").

**Request correlation.**  ``POST /v1/solve`` accepts an
``X-Request-Id`` header as an id fallback when the body carries no
``id``, and every solve response — success or typed error — echoes the
request's id back as ``X-Request-Id``; error payloads additionally carry
``request_id``.  The same id labels the server's ``queue_wait`` /
``coalesce_window`` / ``batched_solve`` trace spans (docs/serving.md,
"Request lifecycle"), so client logs correlate with server traces.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.errors import ServeError
from repro.serve.request import PACKED_ARRAYS
from repro.serve.service import SolveService

#: Upper bound on how long one HTTP handler waits for its ticket; a
#: request that is admitted but unresolved past this (dispatcher wedged)
#: fails with 500 rather than holding the socket forever.
RESULT_TIMEOUT = 600.0


def _accepts_packed(accept: str | None) -> bool:
    """Whether an ``Accept`` header carries :data:`PACKED_ARRAYS` on any
    of its media ranges (absent or anything else: nested lists)."""
    return any(
        PACKED_ARRAYS in (p.strip().lower() for p in media.split(";")[1:])
        for media in (accept or "").split(",")
    )


def _media_type(base: str, packed: bool) -> str:
    """The response ``Content-Type``: the echo of what was negotiated."""
    return f"{base};{PACKED_ARRAYS}" if packed else base


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to the server's :class:`SolveService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Route access logs through the server's ``verbose`` switch."""
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def service(self) -> SolveService:
        """The solve service this server fronts."""
        return self.server.service

    def _send_json(self, status: int, doc, content_type="application/json",
                   request_id: str | None = None):
        body = (
            doc.encode()
            if isinstance(doc, str)
            else (json.dumps(doc) + "\n").encode()
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if request_id is not None:
            self.send_header("X-Request-Id", str(request_id))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        """The request body.

        Raises:
            ValueError: ``Content-Length`` is not a non-negative integer
                (nothing is read: the connection cannot be reused).
        """
        text = self.headers.get("Content-Length", "0")
        if not text.strip().isdecimal():
            raise ValueError(
                f"Content-Length is not a non-negative integer: {text!r}"
            )
        length = int(text)
        return self.rfile.read(length) if length else b""

    def _invalid(self, message: str, request_id: str | None = None) -> None:
        """A 400 ``invalid_request`` for a body the routes cannot read."""
        self._send_json(
            400,
            {"status": "error",
             "error": {"code": "invalid_request", "message": message}},
            request_id=request_id,
        )

    def _encode(self, result, packed: bool) -> str:
        """One served result as its response line, timed into
        ``serve_encode_seconds``.  Strict JSON: a NaN or infinity that
        ``to_wire`` let through raises here instead of reaching a
        client whose parser has no word for it."""
        t0 = time.perf_counter()
        line = json.dumps(result.to_wire(packed), allow_nan=False) + "\n"
        self.service.observe_encode(time.perf_counter() - t0)
        return line

    # -- routes --------------------------------------------------------
    def do_GET(self):  # noqa: N802 - stdlib naming
        """Serve the read-only routes: metrics, stats, health."""
        if self.path == "/metrics":
            self._send_json(
                200, self.service.prometheus(),
                content_type="text/plain; version=0.0.4",
            )
        elif self.path == "/v1/stats":
            self._send_json(200, self.service.stats())
        elif self.path == "/healthz":
            if self.service.queue.closed:
                self._send_json(503, {"status": "draining"})
            else:
                self._send_json(200, {"status": "ok"})
        else:
            self._send_json(
                404, {"error": {"code": "not_found",
                                "message": f"no route {self.path!r}"}}
            )

    def do_POST(self):  # noqa: N802 - stdlib naming
        """Serve the solve routes (single JSON and JSONL batch)."""
        if self.path in ("/v1/solve", "/v1/solve/jsonl"):
            try:
                raw = self._read_body()
            except ValueError as exc:
                self.close_connection = True
                self._invalid(str(exc), self.headers.get("X-Request-Id"))
                return
            if self.path == "/v1/solve":
                self._solve_one(raw)
            else:
                self._solve_jsonl(raw)
        else:
            self._send_json(
                404, {"error": {"code": "not_found",
                                "message": f"no route {self.path!r}"}}
            )

    # -- solve routes --------------------------------------------------
    def _solve_one(self, raw: bytes):
        header_id = self.headers.get("X-Request-Id")
        packed = _accepts_packed(self.headers.get("Accept"))
        t0 = time.perf_counter()
        try:
            payload = json.loads(raw)
        except ValueError as exc:  # not JSON, or not text (UnicodeDecodeError)
            self._invalid(f"body is not valid JSON: {exc}", header_id)
            return
        parse_seconds = time.perf_counter() - t0
        # The X-Request-Id header is an id fallback for payloads that do
        # not carry one in the body; the body's ``id`` wins on conflict.
        if isinstance(payload, dict) and header_id \
                and payload.get("id") is None:
            payload["id"] = header_id
        rid = payload.get("id") if isinstance(payload, dict) else header_id
        try:
            result = self.service.submit(payload, parse_seconds).result(
                RESULT_TIMEOUT
            )
        except ServeError as exc:
            if exc.request_id is None:
                exc.request_id = rid
            self._send_json(
                exc.http_status,
                {"id": rid, "status": "error", "error": exc.to_dict()},
                request_id=exc.request_id,
            )
            return
        except TimeoutError as exc:
            self._send_json(
                500,
                {"id": rid, "status": "error",
                 "error": {"code": "serve_error", "message": str(exc),
                           **({"request_id": rid} if rid else {})}},
                request_id=rid,
            )
            return
        self._send_json(
            200, self._encode(result, packed),
            content_type=_media_type("application/json", packed),
            request_id=result.request.id,
        )

    def _solve_jsonl(self, raw: bytes):
        # Split before decoding: a line that is not UTF-8 fails alone.
        lines = [ln for ln in raw.splitlines() if ln.strip()]
        packed = _accepts_packed(self.headers.get("Accept"))
        # Submit everything before awaiting anything: requests from one
        # client coalesce with each other (and with other clients').
        pending = []
        for ln in lines:
            t0 = time.perf_counter()
            try:
                payload = json.loads(ln.decode())
            except ValueError as exc:  # not JSON, or not UTF-8
                pending.append(
                    (None,
                     {"status": "error",
                      "error": {"code": "invalid_request",
                                "message": f"line is not valid JSON: {exc}"}})
                )
                continue
            parse_seconds = time.perf_counter() - t0
            rid = payload.get("id") if isinstance(payload, dict) else None
            try:
                pending.append(
                    (self.service.submit(payload, parse_seconds), rid)
                )
            except ServeError as exc:
                if exc.request_id is None:
                    exc.request_id = rid
                pending.append(
                    (None,
                     {"id": rid, "status": "error", "error": exc.to_dict()})
                )
        out = []
        for first, second in pending:
            if first is None:
                out.append(json.dumps(second) + "\n")
                continue
            try:
                out.append(self._encode(first.result(RESULT_TIMEOUT), packed))
            except ServeError as exc:
                if exc.request_id is None:
                    exc.request_id = second
                out.append(json.dumps(
                    {"id": second, "status": "error", "error": exc.to_dict()}
                ) + "\n")
            except TimeoutError as exc:
                out.append(json.dumps(
                    {"id": second, "status": "error",
                     "error": {"code": "serve_error", "message": str(exc)}}
                ) + "\n")
        self._send_json(
            200, "".join(out),
            content_type=_media_type("application/jsonl", packed),
        )


class ServeServer:
    """The HTTP server + its background thread, owning a service.

    >>> server = ServeServer(SolveService().start(),
    ...                      host="127.0.0.1", port=0)
    >>> server.start()
    >>> server.url
    'http://127.0.0.1:54321'
    >>> server.stop()          # drains the service, closes the socket
    """

    def __init__(
        self,
        service: SolveService,
        host: str = "127.0.0.1",
        port: int = 8787,
        verbose: bool = False,
    ) -> None:
        """Bind the socket (``port=0`` picks a free port).

        Args:
            service: The (started) :class:`SolveService` to front.
            host: Interface to bind.
            port: TCP port; ``0`` lets the OS choose (tests).
            verbose: Emit per-request access logs to stderr.
        """
        self.service = service
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.service = service
        self.httpd.verbose = verbose
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        """The server's base URL (with the actually-bound port)."""
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServeServer":
        """Serve in a background thread (idempotent).

        Returns:
            This server, for chaining.
        """
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self.httpd.serve_forever, name="serve-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Graceful shutdown: drain the service, then close the socket.

        Args:
            drain: Finish queued solves before stopping (see
                :meth:`SolveService.shutdown`).
            timeout: Seconds to wait for the service dispatcher.
        """
        self.service.shutdown(drain=drain, timeout=timeout)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (the daemon
        entry point used by ``python -m repro serve``)."""
        self.httpd.serve_forever()

"""A minimal stdlib HTTP client for the solve service.

``ServeClient`` wraps :mod:`urllib` so scripts and tests can talk to a
running ``python -m repro serve`` daemon without extra dependencies.
Wire errors are re-raised as the same typed
:class:`~repro.serve.errors.ServeError` hierarchy the server uses, so
in-process and over-the-wire callers handle failures identically:

>>> client = ServeClient("http://127.0.0.1:8787")
>>> doc = client.solve({"operator": "wilson_clover", "mass": -0.2,
...                     "gauge": {"kind": "weak", "dims": [4, 4, 4, 4],
...                               "seed": 7},
...                     "rhs": {"kind": "random", "seed": 1}})
>>> doc["converged"], doc["batch"]["occupancy"]
(True, 3)

The client always asks for the packed array form (``Accept:
...;arrays=base64``, docs/serving.md "Arrays on the wire") and returns
the response documents as received; ``decode_array(doc["solution"])``
turns either form into the array.  It sends packed too: a nested inline
``rhs`` goes out re-encoded (:func:`~repro.serve.wire.pack_inline_rhs`),
half the bytes and about a sixth of the client's encoding time.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from repro.serve.errors import ServeError, error_from_dict
from repro.serve.wire import PACKED_ARRAYS, pack_inline_rhs
from repro.serve.tracing import new_request_id


def _error_from_response(doc: dict) -> ServeError:
    """The typed error a wire response describes."""
    return error_from_dict(doc.get("error", {}))


class ServeClient:
    """HTTP client for one solve-service endpoint.

    Thread-safe in the trivial sense: every call opens its own
    connection (``urllib``), so one client may be shared across threads
    issuing concurrent solves — which is exactly how requests coalesce.
    """

    def __init__(self, base_url: str, timeout: float = 600.0) -> None:
        """Point the client at a daemon.

        Args:
            base_url: e.g. ``"http://127.0.0.1:8787"`` (no trailing
                slash required).
            timeout: Socket timeout in seconds for every call.
        """
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------
    def _request(self, path: str, body: bytes | None = None,
                 content_type: str = "application/json",
                 headers: dict | None = None) -> tuple[int, bytes]:
        """One HTTP round trip; returns ``(status, body)`` without
        raising on 4xx/5xx (the typed-error mapping happens above)."""
        all_headers = {"Content-Type": content_type} if body else {}
        if headers:
            all_headers.update(headers)
        req = urllib.request.Request(
            self.base_url + path,
            data=body,
            method="POST" if body is not None else "GET",
            headers=all_headers,
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    # -- solving -------------------------------------------------------
    def solve(self, payload: dict) -> dict:
        """Solve one request and return the response document.

        A payload without an ``id`` is assigned a fresh unique request
        id (:func:`~repro.serve.tracing.new_request_id`), sent both in
        the body and as the ``X-Request-Id`` header; the server echoes
        it back on the response and labels its trace spans with it, so
        client logs correlate with server traces end to end.

        Args:
            payload: The wire request (see docs/serving.md for the
                schema); a nested inline ``rhs`` is sent packed, and
                ``payload`` itself is never modified.

        Returns:
            The ``status="ok"`` response dict (converged, iterations,
            residual, batch placement, timing, report, and — when
            ``return_solution`` was set — the solution as a packed wire
            array for :func:`~repro.serve.wire.decode_array`), or
            the ``status="diverged"`` one (``residual`` ``None``,
            ``breakdown="non-finite"``, no solution): that is the
            request's outcome, not a failure to serve it.

        Raises:
            ServeError: The typed failure the server reported
                (validation, queue full, deadline, shutdown, solve);
                carries ``request_id`` when the server knew it.
        """
        payload = dict(payload)
        if payload.get("id") is None:
            payload["id"] = new_request_id()
        status, body = self._request(
            "/v1/solve", json.dumps(pack_inline_rhs(payload)).encode(),
            headers={"X-Request-Id": str(payload["id"]),
                     "Accept": f"application/json;{PACKED_ARRAYS}"},
        )
        doc = json.loads(body)
        if doc.get("status") == "error":
            raise _error_from_response(doc)
        return doc

    def solve_many(self, payloads: list[dict]) -> list[dict]:
        """Solve a batch of requests through the JSONL route.

        All requests are admitted before any is awaited, so they
        coalesce with each other (the coalesce ratio in ``stats()``
        shows it).  Unlike :meth:`solve`, failures do **not** raise:
        each response document is returned in request order with
        ``status="ok"``, ``status="diverged"`` or ``status="error"`` +
        the typed ``error`` object, so one bad request cannot mask the
        other results.

        Args:
            payloads: Wire request dicts (missing ``id`` fields are
                filled with fresh unique request ids, and nested inline
                ``rhs`` arrays sent packed, in the lines sent: the dicts
                themselves are never modified).

        Returns:
            One response document per request, in order.
        """
        payloads = [
            dict(p) if p.get("id") is not None
            else {**p, "id": new_request_id()}
            for p in payloads
        ]
        body = "".join(
            json.dumps(pack_inline_rhs(p)) + "\n" for p in payloads
        ).encode()
        _, raw = self._request(
            "/v1/solve/jsonl", body, content_type="application/jsonl",
            headers={"Accept": f"application/jsonl;{PACKED_ARRAYS}"},
        )
        return [
            json.loads(ln) for ln in raw.decode().splitlines() if ln.strip()
        ]

    # -- observability -------------------------------------------------
    def stats(self) -> dict:
        """The daemon's operational snapshot (``GET /v1/stats``)."""
        _, body = self._request("/v1/stats")
        return json.loads(body)

    def metrics_text(self) -> str:
        """The Prometheus text exposition (``GET /metrics``)."""
        _, body = self._request("/metrics")
        return body.decode()

    def health(self) -> dict:
        """Liveness document (``GET /healthz``): ``{"status": "ok"}``
        while accepting, ``{"status": "draining"}`` during shutdown."""
        _, body = self._request("/healthz")
        return json.loads(body)

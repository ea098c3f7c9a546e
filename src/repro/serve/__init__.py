"""repro.serve — the coalescing solve service (docs/serving.md).

A long-running daemon (``python -m repro serve``) that accepts
:class:`SolveRequest`-shaped wire requests over HTTP/JSONL, groups
compatible ones by operator fingerprint, and serves each group with one
batched multi-RHS solve — reusing cached operator setup and exporting
queue/batch/latency metrics through the Prometheus text format.

Layering (each module documents its own contract):

- :mod:`repro.serve.errors` — the typed 4xx/5xx error vocabulary;
- :mod:`repro.serve.wire` — the array codec (NumPy and errors only);
- :mod:`repro.serve.request` — wire schema, validation, fingerprint;
- :mod:`repro.serve.queue` — bounded priority queue with deadlines;
- :mod:`repro.serve.coalescer` — the batching window policy;
- :mod:`repro.serve.service` — dispatcher thread + batched execution;
- :mod:`repro.serve.http` — the stdlib HTTP/JSONL front;
- :mod:`repro.serve.client` — the stdlib HTTP client, on the codec
  alone: a client process loads no solver.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".client": ("ServeClient",),
    ".coalescer": ("CoalesceOutcome", "Coalescer"),
    ".errors": (
        "DeadlineExpiredError", "QueueFullError", "RequestValidationError",
        "ServeError", "ServiceClosedError", "SolveFailedError",
        "error_from_dict",
    ),
    ".http": ("ServeServer",),
    ".queue": ("QueuedRequest", "SolveQueue", "Ticket"),
    ".request": ("ServiceRequest",),
    ".wire": ("SERVABLE_OPERATORS", "decode_array", "encode_array"),
    ".service": ("ServedResult", "SolveService"),
})

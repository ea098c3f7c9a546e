"""Load harness for the solve daemon: requests/sec vs ``max_batch``.

The ROADMAP's end-to-end serve benchmark.  For each ``max_batch`` value
the harness boots a **real** :class:`~repro.serve.service.SolveService`
+ :class:`~repro.serve.http.ServeServer` on a loopback port, drives it
with ``concurrency`` client threads issuing fingerprint-compatible
solves through :class:`~repro.serve.client.ServeClient` (the full HTTP
path — admission, coalescing, batched solve, wire encode), and records

* **throughput** — completed requests per wall-clock second,
* **client-side latency** — p50/p99 over every request's round trip,
* **coalesce ratio** — requests served per batched solve, from the
  daemon's own ``/v1/stats``.

The points trace the classic throughput/latency trade of the coalescing
knobs (docs/serving.md, "Capacity tuning"): larger batches amortize the
solve but hold sparse traffic open for the window.  ``python -m repro
bench-serve`` (and ``scripts/bench_serve.sh``) emit the results as a
schema-valid ``BENCH_serve.json`` through
:mod:`repro.metrics.bench_schema`.
"""

from __future__ import annotations

import threading
import time

from repro.metrics.bench_schema import wrap_bench
from repro.serve.coalescer import DEFAULT_MAX_BATCH

#: The ``max_batch`` values ``bench-serve`` sweeps: powers of two up to
#: the daemon's default, then the default itself.
MAX_BATCH_SWEEP = (1, 2, 4, 8, DEFAULT_MAX_BATCH)


def quantile(values: list[float], q: float) -> float:
    """The ``q``-quantile of raw samples by linear interpolation.

    Args:
        values: Non-empty list of samples (any order).
        q: Quantile in ``[0, 1]``.

    Returns:
        The interpolated quantile of the sorted samples.

    Raises:
        ValueError: Empty ``values`` or ``q`` outside ``[0, 1]``.
    """
    if not values:
        raise ValueError("cannot take a quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _default_payload(dims, mass, epsilon, seed) -> dict:
    return {
        "operator": "wilson_clover",
        "method": "bicgstab",
        "mass": mass,
        "tol": 1e-5,
        "gauge": {
            "kind": "weak", "dims": list(dims),
            "epsilon": epsilon, "seed": seed,
        },
        "rhs": {"kind": "random", "seed": seed},
    }


def _drive_one(
    url: str, payload: dict, requests_per_client: int, latencies: list,
    errors: list, lock: threading.Lock,
) -> None:
    """One client thread: issue its requests, record round-trip times."""
    from repro.serve.client import ServeClient
    from repro.serve.errors import ServeError

    client = ServeClient(url)
    for i in range(requests_per_client):
        body = dict(payload)
        body["rhs"] = dict(payload["rhs"], seed=payload["rhs"]["seed"] + i)
        t0 = time.perf_counter()
        try:
            client.solve(body)
        except (ServeError, OSError) as exc:
            with lock:
                errors.append(repr(exc))
            continue
        dt = time.perf_counter() - t0
        with lock:
            latencies.append(dt)


def run_load_point(
    max_batch: int,
    concurrency: int,
    requests_per_client: int,
    payload: dict,
    max_wait: float = 0.02,
) -> dict:
    """Benchmark one ``max_batch`` value against a fresh daemon.

    Args:
        max_batch: Lanes per batched solve for this point.
        concurrency: Concurrent client threads.
        requests_per_client: Solves each client issues.
        payload: The wire request template (per-request rhs seeds vary
            so lanes differ while fingerprints coalesce).
        max_wait: Coalescing window seconds.

    Returns:
        One ``results`` entry: max_batch, requests, wall seconds,
        requests/sec, p50/p99 latency, coalesce ratio and error count.
    """
    from repro.serve.http import ServeServer
    from repro.serve.service import SolveService

    service = SolveService(
        max_batch=max_batch, max_wait=max_wait,
        capacity=max(64, 2 * concurrency * requests_per_client),
    ).start()
    server = ServeServer(service, host="127.0.0.1", port=0).start()
    latencies: list[float] = []
    errors: list[str] = []
    lock = threading.Lock()
    try:
        # One untimed request warms the gauge/operator caches so every
        # point pays setup once, outside its measurement.
        _drive_one(server.url, payload, 1, [], errors, lock)
        threads = [
            threading.Thread(
                target=_drive_one,
                args=(server.url, payload, requests_per_client,
                      latencies, errors, lock),
            )
            for _ in range(concurrency)
        ]
        t0 = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = time.perf_counter() - t0
        stats = service.stats()
    finally:
        server.stop(drain=True)
    n = len(latencies)
    return {
        "max_batch": max_batch,
        "concurrency": concurrency,
        "requests": n,
        "errors": len(errors),
        "wall_seconds": wall,
        "requests_per_second": (n / wall) if wall > 0 else 0.0,
        "p50_latency_seconds": quantile(latencies, 0.5) if n else None,
        "p99_latency_seconds": quantile(latencies, 0.99) if n else None,
        "coalesce_ratio": stats.get("coalesce_ratio"),
    }


def run_load_bench(
    dims: tuple[int, ...] = (4, 4, 4, 4),
    max_batch_values: tuple[int, ...] = MAX_BATCH_SWEEP,
    concurrency: int = 8,
    requests_per_client: int = 4,
    max_wait: float = 0.02,
    mass: float = -0.1,
    epsilon: float = 0.25,
    seed: int = 5,
    progress=None,
) -> dict:
    """Run the full load sweep and wrap it as a ``"serve"`` bench doc.

    Args:
        dims: Lattice of the served problem (small: the harness is a
            throughput benchmark, not a solver benchmark).
        max_batch_values: The ``max_batch`` settings to sweep.
        concurrency: Concurrent client threads per point.
        requests_per_client: Solves each client issues per point.
        max_wait: Coalescing window seconds.
        mass, epsilon, seed: Operator knobs of the served problem.
        progress: Optional callable invoked with one line per point.

    Returns:
        The schema-valid bench document (``bench="serve"``).
    """
    payload = _default_payload(dims, mass, epsilon, seed)
    results = []
    for mb in max_batch_values:
        entry = run_load_point(
            mb, concurrency, requests_per_client, payload, max_wait
        )
        results.append(entry)
        if progress is not None:
            p50 = entry["p50_latency_seconds"]
            p99 = entry["p99_latency_seconds"]
            progress(
                f"max_batch {mb:>3}: {entry['requests_per_second']:7.2f} "
                f"req/s, p50 {p50:.3f}s, p99 {p99:.3f}s, coalesce ratio "
                f"{entry['coalesce_ratio'] or 0:.2f}"
                if p50 is not None
                else f"max_batch {mb:>3}: all requests failed"
            )
    config = {
        "dims": list(dims),
        "max_batch_values": list(max_batch_values),
        "concurrency": concurrency,
        "requests_per_client": requests_per_client,
        "max_wait_seconds": max_wait,
        "mass": mass,
        "epsilon": epsilon,
        "seed": seed,
    }
    metrics: dict = {}
    for entry in results:
        mb = entry["max_batch"]
        metrics[f"rps_max_batch_{mb}"] = entry["requests_per_second"]
        metrics[f"p50_seconds_max_batch_{mb}"] = entry["p50_latency_seconds"]
        metrics[f"p99_seconds_max_batch_{mb}"] = entry["p99_latency_seconds"]
        metrics[f"coalesce_ratio_max_batch_{mb}"] = entry["coalesce_ratio"]
    return wrap_bench("serve", config, metrics, results=results)

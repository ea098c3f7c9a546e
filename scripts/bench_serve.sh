#!/usr/bin/env bash
# Solve-daemon load benchmark (docs/serving.md, "Load benchmarking").
#
# 1. Runs `python -m repro bench-serve`: for each max_batch value (1, 2,
#    4, 8 and the daemon's default, 12), boots a real SolveService + HTTP
#    front on a loopback port, drives it with twelve concurrent
#    ServeClient threads (one request per post: enough to fill a
#    group), and records requests/sec, client p50/p99 latency, and the
#    daemon's own coalesce ratio.  Writes the JSON report to
#    BENCH_serve.json at the repo root.
# 2. Verifies the invariants: every request on every point succeeded,
#    and coalescing actually engaged (ratio > 1) for the largest
#    max_batch under concurrent load.  Throughput targets are NOT
#    asserted — the report records host cpu_count so readers can judge
#    the numbers; a 1-core CI box must not fake a scaling win.
# 3. Runs the serve test suites in deterministic order.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m repro bench-serve \
    --dims 4 4 4 4 --concurrency 12 --requests-per-client 3 \
    --output BENCH_serve.json

python -m repro.metrics.bench_schema BENCH_serve.json

python - <<'PY'
import json

with open("BENCH_serve.json") as fh:
    report = json.load(fh)
results = report["results"]
assert results, "no load points recorded"
assert all(e["errors"] == 0 for e in results), "load requests failed"
assert all(e["requests"] > 0 for e in results)
widest = max(results, key=lambda e: e["max_batch"])
assert widest["coalesce_ratio"] and widest["coalesce_ratio"] > 1.0, (
    f"coalescing never engaged at max_batch={widest['max_batch']}"
)
print(
    f"bench-serve OK: {widest['requests_per_second']:.2f} req/s at "
    f"max_batch={widest['max_batch']} (coalesce ratio "
    f"{widest['coalesce_ratio']:.2f}, {report['host']['cpu_count']} cores)"
)
PY

python -m pytest -p no:randomly -q \
    tests/serve/test_tracing.py \
    tests/serve/test_service.py \
    tests/serve/test_http.py

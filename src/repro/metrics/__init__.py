"""Flight-recorder artifacts: the per-solve report (built from the
merged tally), the straggler summary over its per-rank waits, the bench
schema, and the serve daemon's labeled counters/gauges/histograms with
their Prometheus and JSONL exporters (see docs/observability.md)."""

from repro.metrics.bench_schema import (
    BENCH_SCHEMA_VERSION,
    host_info,
    validate_bench,
    validate_bench_file,
    wrap_bench,
)
from repro.metrics.export import to_jsonl, to_prometheus
from repro.metrics.registry import (
    DEFAULT_BUCKET_SPEC,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from repro.metrics.solve_report import (
    REPORT_SCHEMA_VERSION,
    SolveReport,
    build_solve_report,
    config_fingerprint,
    diff_reports,
    format_diff,
    render_report,
    validate_report,
)
from repro.metrics.straggler import (
    ALLREDUCE_WAIT,
    BARRIER_WAIT,
    RECV_WAIT,
    WAIT_METRICS,
    rank_wait_stats,
    straggler_summary,
)

__all__ = [
    "ALLREDUCE_WAIT",
    "BARRIER_WAIT",
    "BENCH_SCHEMA_VERSION",
    "Counter",
    "DEFAULT_BUCKET_SPEC",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RECV_WAIT",
    "REPORT_SCHEMA_VERSION",
    "SolveReport",
    "WAIT_METRICS",
    "build_solve_report",
    "config_fingerprint",
    "diff_reports",
    "format_diff",
    "host_info",
    "log_buckets",
    "rank_wait_stats",
    "render_report",
    "straggler_summary",
    "to_jsonl",
    "to_prometheus",
    "validate_bench",
    "validate_bench_file",
    "validate_report",
    "wrap_bench",
]

"""Flight-recorder artifacts: the per-solve report (built from the
merged tally), the straggler summary over its per-rank waits, the bench
schema, and the serve daemon's labeled counters/gauges/histograms with
their Prometheus and JSONL exporters (see docs/observability.md)."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".bench_schema": (
        "BENCH_SCHEMA_VERSION", "host_info", "validate_bench",
        "validate_bench_file", "wrap_bench",
    ),
    ".export": ("to_jsonl", "to_prometheus"),
    ".registry": (
        "DEFAULT_BUCKET_SPEC", "Counter", "Gauge", "Histogram",
        "MetricsRegistry", "log_buckets",
    ),
    ".solve_report": (
        "REPORT_SCHEMA_VERSION", "SolveReport", "build_solve_report",
        "config_fingerprint", "diff_reports", "format_diff",
        "render_report", "validate_report",
    ),
    ".straggler": (
        "ALLREDUCE_WAIT", "BARRIER_WAIT", "RECV_WAIT", "WAIT_METRICS",
        "rank_wait_stats", "straggler_summary",
    ),
})

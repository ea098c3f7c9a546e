"""Export a :class:`~repro.metrics.MetricsRegistry` as Prometheus text
format or JSONL.

The Prometheus exposition format
(https://prometheus.io/docs/instrumenting/exposition_formats/) is the
lingua franca of scrape-based monitoring: counters render as
``name{labels} value``, histograms as the cumulative ``_bucket`` series
plus ``_sum``/``_count``.  :func:`to_prometheus` produces the scrapable
page the serve daemon answers ``GET /metrics`` with.  :func:`to_jsonl` is the
line-oriented twin for log pipelines: one self-describing JSON object
per metric instance.
"""

from __future__ import annotations

import json

from repro.metrics.registry import MetricsRegistry


def _fmt_value(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{v}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def _fmt_le(edge: float) -> str:
    return repr(float(edge))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    seen_types: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for _, c in sorted(registry.counters.items()):
        type_line(c.name, "counter")
        lines.append(f"{c.name}{_fmt_labels(c.labels)} {_fmt_value(c.value)}")
    for _, g in sorted(registry.gauges.items()):
        type_line(g.name, "gauge")
        lines.append(f"{g.name}{_fmt_labels(g.labels)} {_fmt_value(g.value)}")
    for _, h in sorted(registry.histograms.items()):
        type_line(h.name, "histogram")
        cumulative = 0
        for edge, n in zip(h.edges, h.bucket_counts):
            cumulative += n
            lines.append(
                f"{h.name}_bucket"
                f"{_fmt_labels(h.labels, {'le': _fmt_le(edge)})} "
                f"{cumulative}"
            )
        lines.append(
            f"{h.name}_bucket{_fmt_labels(h.labels, {'le': '+Inf'})} "
            f"{h.count}"
        )
        lines.append(f"{h.name}_sum{_fmt_labels(h.labels)} {float(h.sum)!r}")
        lines.append(f"{h.name}_count{_fmt_labels(h.labels)} {h.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per metric instance, newline-delimited."""
    snapshot = registry.to_dict()
    lines = []
    for kind in ("counters", "gauges", "histograms"):
        for entry in snapshot[kind]:
            lines.append(
                json.dumps({"type": kind[:-1], **entry}, sort_keys=True)
            )
    return "\n".join(lines) + ("\n" if lines else "")

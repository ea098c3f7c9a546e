"""A registry of labeled counters, gauges and histograms.

The serve daemon's instrument (:class:`repro.serve.service.SolveService`):
durable, labeled **metrics** in the Prometheus data model — queue depth,
request outcomes, batch occupancy, latency histograms — rendered by
:mod:`repro.metrics.export` for ``GET /metrics`` and summarized by
``/v1/stats`` (docs/observability.md).  A solve's own cost never lands
here: it reaches the caller through the merged
:class:`~repro.util.counters.Tally` (per-rank waits included) and the
trace events.

Histograms use **fixed, deterministic, log-spaced buckets**
(:func:`log_buckets`): bucket edges are a pure function of the
``(low, high, per_decade)`` spec, so every histogram of one name has
the same layout.  Two histograms with the same name and labels but
different bucket layouts are a configuration error and raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Default histogram layout: 1e-7 s .. 100 s, 3 buckets per decade — wide
#: enough for microsecond wire costs and second-scale solves on one
#: deterministic axis.
DEFAULT_BUCKET_SPEC = (1e-7, 100.0, 3)


def log_buckets(
    low: float, high: float, per_decade: int = 3
) -> tuple[float, ...]:
    """Deterministic log-spaced bucket upper edges from ``low`` to ``high``.

    Edges are ``low * 10**(k / per_decade)`` for integer ``k``, computed
    from the spec alone — independently created histograms therefore get
    bit-identical layouts.
    """
    if low <= 0 or high <= low:
        raise ValueError(f"need 0 < low < high, got ({low}, {high})")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    n = int(math.ceil(per_decade * math.log10(high / low)))
    edges = [low * 10.0 ** (k / per_decade) for k in range(n + 1)]
    return tuple(edges)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


@dataclass
class Counter:
    """A monotonically increasing labeled value."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


@dataclass
class Gauge:
    """A labeled value that may go up or down."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: observation counts per log-spaced bucket,
    plus exact ``sum`` and ``count`` (the Prometheus histogram triple).

    ``bucket_counts[i]`` counts observations ``<= edges[i]``
    (non-cumulative storage; the exporter renders the cumulative ``le``
    series), with one final overflow bucket for values above the last
    edge (rendered as ``le="+Inf"``).
    """

    __slots__ = ("name", "labels", "edges", "bucket_counts", "count", "sum")

    def __init__(self, name: str, labels: dict, edges: tuple[float, ...]):
        self.name = name
        self.labels = labels
        self.edges = tuple(edges)
        self.bucket_counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        # Binary search would win for many edges; ~30 linear compares is
        # cheaper than the bisect call overhead at this size.
        idx = len(self.edges)
        for i, edge in enumerate(self.edges):
            if value <= edge:
                idx = i
                break
        self.bucket_counts[idx] += 1
        self.count += 1
        self.sum += value


class MetricsRegistry:
    """All metrics of one service, keyed by ``(name, sorted labels)``.

    Not locked: the owner serializes access (the service holds its
    metrics lock around every update and read).
    """

    def __init__(self) -> None:
        self.counters: dict[tuple, Counter] = {}
        self.gauges: dict[tuple, Gauge] = {}
        self.histograms: dict[tuple, Histogram] = {}

    # -- get-or-create ---------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        c = self.counters.get(key)
        if c is None:
            c = self.counters[key] = Counter(name, labels)
        return c

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        g = self.gauges.get(key)
        if g is None:
            g = self.gauges[key] = Gauge(name, labels)
        return g

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        key = (name, _label_key(labels))
        h = self.histograms.get(key)
        edges = (
            tuple(buckets)
            if buckets is not None
            else log_buckets(*DEFAULT_BUCKET_SPEC)
        )
        if h is None:
            h = self.histograms[key] = Histogram(name, labels, edges)
        elif buckets is not None and h.edges != edges:
            raise ValueError(
                f"histogram {name!r} {labels} already exists with a "
                f"different bucket layout"
            )
        return h

    # -- serialize ------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready snapshot (what :func:`~repro.metrics.to_jsonl`
        writes, one line per instance)."""
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for _, c in sorted(self.counters.items())
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for _, g in sorted(self.gauges.items())
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "edges": list(h.edges),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "sum": h.sum,
                }
                for _, h in sorted(self.histograms.items())
            ],
        }

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)


def histogram_quantile(hist: Histogram, q: float) -> float:
    """Estimate the ``q``-quantile of a :class:`Histogram` by linear
    interpolation within its bucket (the Prometheus
    ``histogram_quantile`` estimator on the fixed log-spaced buckets).

    Args:
        hist: A histogram with at least one observation.
        q: Quantile in ``[0, 1]`` (e.g. ``0.5`` for the median).

    Returns:
        The interpolated quantile.  Observations in the overflow bucket
        clamp to the last finite edge (as Prometheus does for ``+Inf``).

    Raises:
        ValueError: ``q`` outside ``[0, 1]`` or an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if hist.count == 0:
        raise ValueError("cannot take a quantile of an empty histogram")
    target = q * hist.count
    cumulative = 0
    for i, n in enumerate(hist.bucket_counts):
        cumulative += n
        if cumulative >= target and n > 0:
            if i >= len(hist.edges):  # overflow bucket: clamp
                return hist.edges[-1]
            lo = hist.edges[i - 1] if i > 0 else 0.0
            hi = hist.edges[i]
            frac = (target - (cumulative - n)) / n
            return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
    return hist.edges[-1]  # pragma: no cover - q=0 with empty head buckets

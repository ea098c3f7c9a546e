"""The metrics registry (the serve daemon's exporter): deterministic
buckets, labeled instances, the export formats and the quantile
estimator."""

import json

import pytest

from repro.metrics.export import to_jsonl, to_prometheus
from repro.metrics.registry import (
    DEFAULT_BUCKET_SPEC,
    MetricsRegistry,
    histogram_quantile,
    log_buckets,
)


class TestLogBuckets:
    def test_deterministic_pure_function_of_spec(self):
        assert log_buckets(1e-7, 100.0, 3) == log_buckets(1e-7, 100.0, 3)

    def test_edges_span_the_range(self):
        edges = log_buckets(1e-3, 10.0, 2)
        assert edges[0] == 1e-3
        assert edges[-1] >= 10.0

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 0.5)
        with pytest.raises(ValueError):
            log_buckets(1.0, 2.0, per_decade=0)


class TestCountersAndGauges:
    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("n").inc(-1.0)

    def test_labels_distinguish_instances(self):
        reg = MetricsRegistry()
        reg.counter("n", rank=0).inc()
        reg.counter("n", rank=1).inc(2.0)
        assert reg.counter("n", rank=0).value == 1.0
        assert reg.counter("n", rank=1).value == 2.0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("n", a=1, b=2).inc()
        reg.counter("n", b=2, a=1).inc()
        assert len(reg.counters) == 1
        assert reg.counter("n", a=1, b=2).value == 2.0


class TestHistogram:
    def test_observe_fills_the_right_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0))
        h.observe(0.5)   # <= 1.0
        h.observe(5.0)   # <= 10.0
        h.observe(50.0)  # overflow
        assert h.bucket_counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == 55.5

    def test_default_buckets_come_from_the_spec(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        assert h.edges == log_buckets(*DEFAULT_BUCKET_SPEC)

    def test_bucket_layout_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0), rank=0)
        with pytest.raises(ValueError, match="bucket layout"):
            reg.histogram("h", buckets=(1.0, 3.0), rank=0)


class TestSerialization:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("n", rank=0).inc(2.0)
        reg.gauge("g").set(-1.5)
        reg.histogram("h", buckets=(1.0, 10.0), rank=0).observe(0.5)
        return reg

    def test_bool_reflects_content(self):
        assert not MetricsRegistry()
        assert self._populated()


class TestExport:
    def test_prometheus_counter_and_type_line(self):
        reg = MetricsRegistry()
        reg.counter("solves_total", rank=0).inc(3.0)
        page = to_prometheus(reg)
        assert "# TYPE solves_total counter" in page
        assert 'solves_total{rank="0"} 3' in page

    def test_prometheus_histogram_series_is_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("wait_seconds", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        page = to_prometheus(reg)
        assert 'wait_seconds_bucket{le="1.0"} 1' in page
        assert 'wait_seconds_bucket{le="10.0"} 2' in page
        assert 'wait_seconds_bucket{le="+Inf"} 3' in page
        assert "wait_seconds_count 3" in page
        assert "wait_seconds_sum 55.5" in page

    def test_type_line_emitted_once_per_family(self):
        reg = MetricsRegistry()
        reg.counter("n", rank=0).inc()
        reg.counter("n", rank=1).inc()
        page = to_prometheus(reg)
        assert page.count("# TYPE n counter") == 1

    def test_jsonl_one_object_per_instance(self):
        reg = MetricsRegistry()
        reg.counter("n", rank=0).inc()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        lines = to_jsonl(reg).strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["type"] for d in docs] == ["counter", "histogram"]
        assert docs[0]["labels"] == {"rank": 0}

    def test_empty_registry_exports_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""
        assert to_jsonl(MetricsRegistry()) == ""


class TestHistogramQuantile:
    """The bucket-interpolation estimator behind /v1/stats percentiles."""

    def _hist(self, samples, buckets=(1.0, 2.0, 4.0)):
        h = MetricsRegistry().histogram("h", buckets=buckets)
        for s in samples:
            h.observe(s)
        return h

    def test_interpolates_within_a_bucket(self):
        # Four samples in (1, 2]: the median sits mid-bucket.
        h = self._hist([1.1, 1.4, 1.6, 1.9])
        assert histogram_quantile(h, 0.5) == pytest.approx(1.5)

    def test_spans_buckets_by_cumulative_count(self):
        h = self._hist([0.5, 0.5, 3.0, 3.0])
        assert histogram_quantile(h, 0.25) == pytest.approx(0.5)
        assert histogram_quantile(h, 1.0) == pytest.approx(4.0)

    def test_overflow_clamps_to_last_edge(self):
        h = self._hist([100.0])
        assert histogram_quantile(h, 0.5) == 4.0

    def test_monotone_in_q(self):
        h = self._hist([0.3, 1.5, 1.7, 3.0, 9.0])
        qs = [histogram_quantile(h, q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_rejects_empty_and_out_of_range(self):
        h = self._hist([])
        with pytest.raises(ValueError):
            histogram_quantile(h, 0.5)
        with pytest.raises(ValueError):
            histogram_quantile(self._hist([1.0]), -0.1)

import pytest

from repro.observe import MetricsRegistry
from repro.util.errors import ObserveError


class TestCounter:
    def test_inc_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("msgs", rank=0).inc()
        reg.counter("msgs", rank=0).inc(2)
        reg.counter("msgs", rank=1).inc(5)
        assert reg.counter_value("msgs", rank=0) == 3
        assert reg.counter_value("msgs") == 8  # sums across label sets

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("x", a=1, b=2).inc()
        reg.counter("x", b=2, a=1).inc()
        assert reg.counter_value("x", a=1, b=2) == 2

    def test_cannot_decrease(self):
        with pytest.raises(ObserveError, match="cannot decrease"):
            MetricsRegistry().counter("c").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").set(7)
        assert reg.gauge("depth").value == 7.0


class TestHistogram:
    def test_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.mean == 2.5
        assert h.percentile(50) == 2.0
        assert h.percentile(100) == 4.0
        assert h.summary()["p95"] == 4.0

    def test_empty_histogram(self):
        h = MetricsRegistry().histogram("lat")
        assert h.summary() == {"count": 0}
        with pytest.raises(ObserveError, match="no samples"):
            _ = h.mean
        with pytest.raises(ObserveError, match="no samples"):
            h.percentile(50)

    def test_percentile_bounds(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(1.0)
        with pytest.raises(ObserveError, match="outside"):
            h.percentile(101)

    def test_quantile_is_fractional_percentile(self):
        h = MetricsRegistry().histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.5) == h.percentile(50)
        assert h.quantile(0.99) == 99.0
        assert h.quantile(1.0) == 100.0
        with pytest.raises(ObserveError, match="outside"):
            h.quantile(1.5)


class TestRegistry:
    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(ObserveError, match="already registered"):
            reg.gauge("x")

    def test_kind_accessors_partition_in_key_order(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe(1.0)
        reg.counter("msgs", rank=1).inc()
        reg.gauge("depth").set(2)
        reg.counter("msgs", rank=0).inc()
        assert len(reg) == 4
        # sorted by (kind, name, labels): counters, gauges, histograms
        assert [(m.name, m.labels) for m in reg.all_metrics()] == [
            ("msgs", (("rank", "0"),)),
            ("msgs", (("rank", "1"),)),
            ("depth", ()),
            ("lat", ()),
        ]
        assert [m.labels for m in reg.counters()] == [(("rank", "0"),), (("rank", "1"),)]
        assert [m.name for m in reg.gauges()] == ["depth"]
        assert [m.name for m in reg.histograms()] == ["lat"]

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n", rank=0).inc(2)
        b.counter("n", rank=0).inc(3)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(2.0)
        merged = MetricsRegistry.merged([a, b])
        assert merged.counter_value("n", rank=0) == 5
        assert merged.gauge("g").value == 9.0
        assert merged.histogram("h").count == 2

    def test_to_json_schema(self):
        reg = MetricsRegistry()
        reg.counter("c", rank=0).inc()
        reg.gauge("g").set(2)
        reg.histogram("h").observe(1.5)
        out = reg.to_json()
        assert out["schema"] == "repro.observe.metrics/1"
        assert out["counters"] == [
            {"name": "c", "labels": {"rank": "0"}, "value": 1.0}
        ]
        assert out["gauges"][0]["value"] == 2.0
        assert out["histograms"][0]["count"] == 1

    def test_summary_keys(self):
        reg = MetricsRegistry()
        reg.counter("c", rank=0).inc(4)
        reg.counter("plain").inc()
        summary = reg.summary()
        assert summary["c{rank=0}"] == 4.0
        assert summary["plain"] == 1.0

    def test_render(self):
        reg = MetricsRegistry()
        reg.counter("c", rank=0).inc()
        reg.histogram("h").observe(1.0)
        text = reg.render()
        assert "rank=0" in text
        assert "n=1" in text

"""Unit tests for the metrics registry: instruments, exports, null objects."""

import json

import pytest

from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.utils.io import dump_jsonl, load_jsonl


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(2)
        assert c.value() == 3
        assert c.total() == 3

    def test_labels_are_independent_series(self):
        c = Counter("requests_total")
        c.inc(model="a")
        c.inc(model="a")
        c.inc(model="b")
        assert c.value(model="a") == 2
        assert c.value(model="b") == 1
        assert c.value(model="never") == 0
        assert c.total() == 3

    def test_label_order_is_canonical(self):
        c = Counter("x")
        c.inc(a="1", b="2")
        c.inc(b="2", a="1")
        assert c.value(a="1", b="2") == 2
        assert len(c.series()) == 1

    def test_negative_increment_rejected(self):
        c = Counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_int_increments_stay_ints(self):
        # Matters for the JSON round trip: json.loads never turns 3 into 3.0.
        c = Counter("x")
        c.inc(2, kind="prompt")
        assert isinstance(c.value(kind="prompt"), int)


class TestBoundHandles:
    """``bind(**labels)`` returns the instrument's update for one label set."""

    def test_counter_handle_equals_inc(self):
        bound, direct = Counter("x"), Counter("x")
        ok = bound.bind(model="m", status="ok")
        plain = bound.bind()
        numeric = bound.bind(shard=3, model="m")
        for amount in (1, 2, 0.5):
            ok(amount)
            direct.inc(amount, status="ok", model="m")
        plain()
        direct.inc()
        numeric(4)
        direct.inc(4, shard=3, model="m")
        assert bound.as_dict() == direct.as_dict()
        assert bound.render() == direct.render()
        with pytest.raises(ValueError):
            ok(-1)

    def test_histogram_handle_equals_observe(self):
        bound = Histogram("h", buckets=(1.0, 4.0))
        direct = Histogram("h", buckets=(1.0, 4.0))
        observe = bound.bind(model="m")
        for value in (0.5, 1.0, 3, 9):
            observe(value)
            direct.observe(value, model="m")
        assert bound.as_dict() == direct.as_dict()

    def test_handle_creates_no_series_before_first_update(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        histogram = reg.histogram("h", buckets=(1.0,))
        inc = counter.bind(kind="prompt")
        observe = histogram.bind(model="m")
        assert counter.series() == {} and histogram.as_dict()["series"] == []
        inc(0)
        observe(2.0)
        assert counter.series() == {(("kind", "prompt"),): 0}
        assert histogram.count(model="m") == 1

    def test_label_keys_canonical_whatever_the_value_types(self):
        c = Counter("x")
        c.inc(b="2", a=1)
        c.inc(a="1", b=2)
        c.bind(b="2", a="1")()
        assert c.series() == {(("a", "1"), ("b", "2")): 3}

    def test_null_handles_are_inert(self):
        reg = NullRegistry()
        reg.counter("c").bind(model="m")(3)
        reg.histogram("h").bind()(2.0)
        assert reg.as_dict() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5)
        assert g.value() == 5
        g.inc(2)
        g.dec()
        assert g.value() == 6

    def test_labels(self):
        g = Gauge("depth")
        g.set(1, queue="a")
        g.set(2, queue="b")
        assert g.value(queue="a") == 1
        assert g.value(queue="b") == 2


class TestHistogram:
    def test_bucket_assignment_le_semantics(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 4.0, 9.0):
            h.observe(value)
        d = h.as_dict()
        (series,) = d["series"]
        # 0.5 and 1.0 land in le=1, 1.5 in le=2, 4.0 in le=4, 9.0 overflows.
        assert series["counts"] == [2, 1, 1]
        assert series["overflow"] == 1
        assert series["count"] == 5
        assert series["sum"] == pytest.approx(16.0)

    def test_count_and_sum_per_labels(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(0.5, model="a")
        h.observe(0.5, model="a")
        assert h.count(model="a") == 2
        assert h.sum(model="a") == pytest.approx(1.0)
        assert h.count(model="b") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, float("inf")))

    def test_render_is_cumulative_with_inf(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        lines = h.render()
        assert 'lat_bucket{le="1.0"} 1' in lines
        assert 'lat_bucket{le="2.0"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 3' in lines
        assert "lat_count 3" in lines

    def test_as_dict_stays_finite(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(9.0)
        payload = json.dumps(h.as_dict())  # must not hit Infinity
        assert "Infinity" not in payload


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h", buckets=(1.0,)) is reg.histogram("h")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a", buckets=(1.0,))

    def test_contains_len_names(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert "a" in reg and "c" not in reg
        assert len(reg) == 2
        assert reg.names() == ["a", "b"]

    def test_as_dict_shape_and_sorting(self):
        reg = MetricsRegistry()
        reg.counter("z_total").inc(model="m")
        reg.gauge("depth").set(3)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        d = reg.as_dict()
        assert set(d) == {"counters", "gauges", "histograms"}
        assert list(d["counters"]) == ["z_total"]
        assert d["counters"]["z_total"] == [{"labels": {"model": "m"}, "value": 1}]
        assert d["gauges"]["depth"] == [{"labels": {}, "value": 3}]
        assert d["histograms"]["lat"]["buckets"] == [1.0]

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        snap = reg.snapshot()
        reg.counter("a").inc()
        assert snap["counters"]["a"][0]["value"] == 1
        assert reg.as_dict()["counters"]["a"][0]["value"] == 2

    def test_render_prometheus_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b_total", help="B.").inc(model="x")
            reg.counter("a_total").inc(5, model="y")
            reg.histogram("lat", buckets=(1.0, 2.0)).observe(1.5, model="x")
            return reg

        text = build().render_prometheus()
        assert text == build().render_prometheus()
        # families sorted by name; HELP/TYPE headers present
        assert text.index("a_total") < text.index("b_total")
        assert "# HELP b_total B." in text
        assert "# TYPE lat histogram" in text
        assert 'a_total{model="y"} 5' in text

    def test_empty_render_is_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_json_round_trip_through_io(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("pas_requests_total").inc(model="gpt-4-0613", status="ok")
        reg.counter("pas_tokens_total").inc(12, kind="prompt")
        reg.gauge("queue_depth").set(2, queue="main")
        reg.histogram("pas_attempts", buckets=(1.0, 2.0, 4.0)).observe(2, model="m")
        path = tmp_path / "metrics.jsonl"
        dump_jsonl([reg.as_dict()], path)
        (loaded,) = load_jsonl(path)
        assert loaded == reg.as_dict()

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.clear()
        assert len(reg) == 0


class TestNullRegistry:
    def test_surface_is_inert(self):
        reg = NullRegistry()
        assert not reg.enabled
        c = reg.counter("a")
        c.inc(5, model="m")
        assert c.value(model="m") == 0
        assert c.total() == 0
        reg.gauge("g").set(3)
        h = reg.histogram("h", buckets=(1.0,))
        h.observe(2.0)
        assert h.count() == 0 and h.sum() == 0
        assert "a" not in reg
        assert len(reg) == 0
        assert reg.names() == []
        assert reg.as_dict() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert reg.render_prometheus() == ""
        reg.clear()

    def test_singleton_exists(self):
        assert not NULL_REGISTRY.enabled

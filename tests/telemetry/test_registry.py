"""Metrics registry semantics: counters, gauges, histograms, export."""

import json

import pytest

from repro.errors import ConfigError
from repro.telemetry.quantiles import QuantileHistogram
from repro.telemetry.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.snapshot() == 5
        assert not hasattr(c, "set")  # counters only go up

    def test_registry_dedupes_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("swap.outs")
        b = reg.counter("swap.outs")
        assert a is b
        labelled = reg.counter("swap.outs", dimm=0)
        assert labelled is not a
        assert reg.counter("swap.outs", dimm=0) is labelled

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError):
            reg.gauge("x")


class TestReads:
    def test_value_and_totals_create_nothing(self):
        reg = MetricsRegistry()
        reg.counter("fleet.shed", reason="queue-full", tenant="t1").inc(2)
        reg.counter("fleet.shed", reason="deadline", tenant="t0").inc()
        reg.counter("fleet.shed", reason="queue-full", tenant="t0").inc(4)
        assert reg.value("fleet.shed", reason="deadline", tenant="t0") == 1
        assert reg.totals("fleet.shed", "tenant") == {"t0": 5, "t1": 2}
        assert list(reg.totals("fleet.shed", "reason")) == [
            "deadline", "queue-full"
        ]
        before = reg.snapshot()
        # A series that never fired reads as 0 and stays absent.
        assert reg.value("fleet.relocated_pages") == 0
        assert reg.value("fleet.shed", reason="quota", tenant="t0") == 0
        assert reg.totals("fleet.retry_budget", "event") == {}
        assert reg.snapshot() == before


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram("h", buckets=(10, 20, 30))
        for value in (5, 10, 11, 25, 31, 1000):
            h.observe(value)
        # <=10: 5, 10 | <=20: 11 | <=30: 25 | overflow: 31, 1000
        assert h.counts == [2, 1, 1, 2]
        assert h.total == 6
        assert h.sum == sum((5, 10, 11, 25, 31, 1000))

    def test_needs_buckets_on_first_use(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.histogram("h")
        h = reg.histogram("h", buckets=(1, 2))
        # Subsequent lookups may omit the bounds.
        assert reg.histogram("h") is h

    def test_empty_bounds_rejected(self):
        with pytest.raises(ConfigError):
            Histogram("h", buckets=())


class TestSnapshotExport:
    def test_snapshot_keys_include_labels(self):
        reg = MetricsRegistry()
        reg.counter("driver.mmio_writes", dimm=1).inc(7)
        reg.gauge("occupancy").set(0.5)
        snap = reg.snapshot()
        assert snap["driver.mmio_writes{dimm=1}"] == 7
        assert snap["occupancy"] == 0.5

    def test_field_view_folds_into_snapshot(self):
        class Owner:
            row_hits = 3

        reg = MetricsRegistry()
        owner = Owner()
        reg.bind_field("dram.row_hits", owner, "row_hits", rank=0)
        assert reg.snapshot()["dram.row_hits{rank=0}"] == 3
        owner.row_hits = 9  # point-in-time: next snapshot sees updates
        assert reg.snapshot()["dram.row_hits{rank=0}"] == 9

    def test_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.histogram("h", buckets=(1,)).observe(0.5)
        doc = json.loads(json.dumps(reg.snapshot()))
        assert doc["a"] == 2
        assert doc["h"]["counts"] == [1, 0]

class TestQuantileKind:
    def test_registry_dedupes_and_types_quantiles(self):
        reg = MetricsRegistry()
        q = reg.quantile("lat", op="store")
        assert isinstance(q, QuantileHistogram)
        assert reg.quantile("lat", op="store") is q
        assert reg.quantile("lat", op="load") is not q
        with pytest.raises(ConfigError):
            reg.counter("lat", op="store")  # kind conflict

    def test_snapshot_embeds_quantile_dict(self):
        reg = MetricsRegistry()
        reg.quantile("lat").observe(100.0)
        snap = reg.snapshot()["lat"]
        assert snap["kind"] == "quantile"
        assert snap["count"] == 1
        assert set(snap["quantiles"]) == {"p50", "p90", "p99", "p999"}


class TestCsvAndSnapshotDeterminism:
    """Snapshot shape guarantees: bucket order, overflow bin, stable
    label keys across repeated exports."""

    def test_histogram_rows_in_bucket_order_with_overflow_last(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(10, 20, 30))
        for value in (5, 15, 25, 31, 1000):
            h.observe(value)
        snap = reg.snapshot()["h"]
        assert snap["buckets"] == [10.0, 20.0, 30.0]
        assert snap["counts"] == [1, 1, 1, 2]
        assert snap["sum"] == 1076.0

    def test_label_keys_are_sorted_and_deterministic(self):
        reg = MetricsRegistry()
        # Construction order of labels must not leak into the key.
        reg.counter("c", zeta=1, alpha=2).inc()
        (key,) = [k for k in reg.snapshot() if k.startswith("c{")]
        assert key == "c{alpha=2,zeta=1}"
        assert reg.counter("c", alpha=2, zeta=1).value == 1

    def test_repeated_exports_are_identical(self):
        reg = MetricsRegistry()
        reg.counter("a", tier="xfm").inc(3)
        reg.histogram("h", buckets=(10,), tier="xfm").observe(50)
        reg.quantile("q", tier="xfm").observe(7.0)
        assert reg.snapshot() == reg.snapshot()


class TestMerge:
    def test_counters_sum_gauges_take_latest(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 9

    def test_histograms_sum_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(10, 20)).observe(5)
        b.histogram("h", buckets=(10, 20)).observe(15)
        a.merge(b)
        h = a.histogram("h")
        assert h.counts == [1, 1, 0]
        assert h.total == 2

    def test_histogram_bucket_bound_mismatch_raises(self):
        """Regression: merging histograms whose bucket bounds differ must
        raise ConfigError, never silently mis-fold counts."""
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(10, 20)).observe(5)
        b.histogram("h", buckets=(10, 30)).observe(5)
        with pytest.raises(ConfigError):
            a.merge(b)

    def test_quantiles_merge_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.quantile("q", tier="xfm").observe(10.0)
        b.quantile("q", tier="xfm").observe(1000.0)
        a.merge(b)
        q = a.quantile("q", tier="xfm")
        assert q.total == 2
        assert q.sum == 1010.0

    def test_quantile_config_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.quantile("q", relative_error=0.01).observe(1.0)
        b.quantile("q", relative_error=0.05).observe(1.0)
        with pytest.raises(ConfigError):
            a.merge(b)

    def test_merge_creates_missing_quantile_series(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.quantile("q", tier="dfm").observe(42.0)
        a.merge(b)
        assert a.quantile("q", tier="dfm").total == 1

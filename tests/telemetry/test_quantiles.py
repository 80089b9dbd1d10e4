"""QuantileHistogram: bounded error, merge semantics, flattening."""

import random

import pytest

from repro.errors import ConfigError
from repro.telemetry.quantiles import (
    STANDARD_QUANTILES,
    QuantileHistogram,
    collect_percentiles,
)
from repro.telemetry.registry import MetricsRegistry


class TestRecording:
    def test_empty_histogram_reports_zeros(self):
        h = QuantileHistogram("h")
        assert h.total == 0
        assert h.mean == 0.0
        assert h.value_at_quantile(0.5) == 0.0
        assert h.percentiles() == {
            label: 0.0 for label, _ in STANDARD_QUANTILES
        }

    def test_counts_sum_min_max(self):
        h = QuantileHistogram("h")
        for value in [1.0, 10.0, 100.0]:
            h.observe(value)
        assert h.total == 3
        assert h.sum == 111.0
        assert h.min == 1.0
        assert h.max == 100.0
        assert h.mean == pytest.approx(37.0)

    def test_values_at_or_below_min_value_share_bucket_zero(self):
        h = QuantileHistogram("h", min_value=10.0)
        for value in [0.001, 5.0, 10.0]:
            h.observe(value)
        assert h.counts == {0: 3}

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            QuantileHistogram("h", min_value=0)
        with pytest.raises(ConfigError):
            QuantileHistogram("h", relative_error=0)
        with pytest.raises(ConfigError):
            QuantileHistogram("h", relative_error=1.5)

    def test_quantile_out_of_range_rejected(self):
        h = QuantileHistogram("h")
        h.observe(1.0)
        with pytest.raises(ConfigError):
            h.value_at_quantile(1.5)


class TestAccuracy:
    def test_relative_error_bound_holds(self):
        """Every reported quantile is within relative_error of the exact
        same-rank order statistic."""
        rng = random.Random(7)
        values = [rng.lognormvariate(10, 1.5) for _ in range(5000)]
        h = QuantileHistogram("h", relative_error=0.01)
        for value in values:
            h.observe(value)
        ordered = sorted(values)
        for _, q in STANDARD_QUANTILES:
            exact = ordered[
                max(0, int(-(-q * len(ordered) // 1)) - 1)
            ]
            got = h.value_at_quantile(q)
            assert got == pytest.approx(exact, rel=0.011), q

    def test_extremes_clamped_to_observed_range(self):
        h = QuantileHistogram("h")
        for value in [5.0, 7.0, 9.0]:
            h.observe(value)
        assert h.value_at_quantile(0.0) >= 5.0
        assert h.value_at_quantile(1.0) <= 9.0

    def test_count_below(self):
        h = QuantileHistogram("h", min_value=1.0)
        for value in [1.0, 50.0, 5000.0]:
            h.observe(value)
        assert h.count_below(0.5) == 0  # bucket-0 representative is 1.0
        assert h.count_below(1.0) == 1
        assert h.count_below(100.0) == 2
        assert h.count_below(1e9) == 3


class TestMerge:
    def test_merge_sums_buckets_and_stats(self):
        a = QuantileHistogram("h")
        b = QuantileHistogram("h")
        for value in [10.0, 20.0]:
            a.observe(value)
        for value in [30.0, 40.0]:
            b.observe(value)
        a.merge_from(b)
        assert a.total == 4
        assert a.sum == 100.0
        assert a.min == 10.0
        assert a.max == 40.0
        assert a.value_at_quantile(0.5) == pytest.approx(20.0, rel=0.011)

    def test_merge_config_mismatch_raises(self):
        a = QuantileHistogram("h", relative_error=0.01)
        with pytest.raises(ConfigError):
            a.merge_from(QuantileHistogram("h", relative_error=0.05))
        with pytest.raises(ConfigError):
            a.merge_from(QuantileHistogram("h", min_value=2.0))

    def test_merge_is_exact_bucketwise(self):
        """Merging two halves equals observing the whole stream."""
        rng = random.Random(3)
        values = [rng.uniform(1, 1e6) for _ in range(400)]
        whole = QuantileHistogram("h")
        left, right = QuantileHistogram("h"), QuantileHistogram("h")
        for value in values:
            whole.observe(value)
        for value in values[:200]:
            left.observe(value)
        for value in values[200:]:
            right.observe(value)
        left.merge_from(right)
        assert left.counts == whole.counts
        assert left.total == whole.total


class TestSnapshotAndCollect:
    def test_snapshot_shape(self):
        h = QuantileHistogram("h")
        for value in [2.0, 4.0]:
            h.observe(value)
        snap = h.snapshot()
        assert snap["kind"] == "quantile"
        assert snap["count"] == 2
        assert snap["sum"] == 6.0
        assert set(snap["quantiles"]) == {
            label for label, _ in STANDARD_QUANTILES
        }

    def test_collect_percentiles_rows_sorted_and_labelled(self):
        reg = MetricsRegistry()
        reg.quantile("op_latency_ns", op="store", tier="xfm").observe(5.0)
        reg.quantile("op_latency_ns", op="load", tier="cpu").observe(3.0)
        reg.quantile("op_latency_ns", op="load", tier="xfm")  # empty
        reg.quantile("other_metric", op="load", tier="cpu").observe(1.0)
        rows = collect_percentiles(reg)
        assert [(r["op"], r["tier"]) for r in rows] == [
            ("load", "cpu"),
            ("store", "xfm"),
        ]
        assert rows[0]["count"] == 1
        assert "p999" in rows[0]

"""Stats: plain-field statistics objects and their registry views."""

import pytest

from repro.core.driver import DriverStats
from repro.errors import ConfigError
from repro.sfm.metrics import SwapStats
from repro.telemetry.registry import FieldCounter, MetricsRegistry
from repro.telemetry.stats import Stats


class _Demo(Stats):
    _PREFIX = "demo"
    _FIELDS = {"hits": 0, "misses": 0, "ratio_sum": 0.0}
    __slots__ = tuple(_FIELDS)


class TestFacadeSurface:
    def test_defaults_and_kwargs(self):
        s = _Demo(misses=3)
        assert s.hits == 0 and s.misses == 3

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            _Demo(nonexistent=1)

    def test_increment_and_decrement(self):
        s = _Demo()
        s.hits += 2
        s.hits -= 1
        assert s.hits == 1

    def test_values_live_in_registry(self):
        reg = MetricsRegistry()
        s = _Demo(registry=reg, labels={"dimm": 2})
        s.hits += 5
        assert reg.counter("demo.hits", dimm=2).value == 5
        assert reg.snapshot()["demo.hits{dimm=2}"] == 5

    def test_unbound_without_registry(self):
        a, b = _Demo(), _Demo()
        a.hits += 1
        assert b.hits == 0

    def test_fields_are_plain_slots(self):
        s = _Demo()
        assert not hasattr(s, "__dict__")
        for cls in (_Demo, SwapStats, DriverStats):
            for name in cls._FIELDS:
                assert type(vars(cls)[name]).__name__ == "member_descriptor"
        with pytest.raises(AttributeError):
            s.typo = 1


class TestMergeAsDict:
    def test_as_dict_order(self):
        assert list(_Demo().as_dict()) == ["hits", "misses", "ratio_sum"]

    def test_merge_sums_fields(self):
        total = _Demo(hits=1).merge(_Demo(hits=2, misses=3))
        assert total.as_dict() == {"hits": 3, "misses": 3, "ratio_sum": 0.0}

    def test_merged_classmethod(self):
        total = _Demo.merged([_Demo(hits=1), _Demo(hits=2), _Demo(misses=1)])
        assert (total.hits, total.misses) == (3, 1)

    def test_merge_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            SwapStats().merge(DriverStats())

    def test_swap_and_driver_stats_share_the_surface(self):
        swap = SwapStats(swap_outs=2)
        driver = DriverStats(mmio_writes=4)
        assert SwapStats.merged([swap, SwapStats(swap_outs=1)]).swap_outs == 3
        assert driver.as_dict()["mmio_writes"] == 4


class TestExistingCallSites:
    """The stats objects keep the historical dataclass behaviour."""

    def test_swap_stats_properties_still_work(self):
        stats = SwapStats(
            bytes_out_uncompressed=8192, bytes_out_compressed=2048
        )
        assert stats.mean_compression_ratio == 4.0

    def test_shared_registry_with_labels_keeps_series_apart(self):
        reg = MetricsRegistry()
        d0 = DriverStats(registry=reg, labels={"dimm": 0})
        d1 = DriverStats(registry=reg, labels={"dimm": 1})
        d0.mmio_writes += 1
        d1.mmio_writes += 10
        snap = reg.snapshot()
        assert snap["driver.mmio_writes{dimm=0}"] == 1
        assert snap["driver.mmio_writes{dimm=1}"] == 10


class TestRegistryViews:
    def test_binding_a_bound_series_is_config_error(self):
        # A second owner on the same (prefix, labels) must not silently
        # share, or reset, the first owner's counters.
        reg = MetricsRegistry()
        first = DriverStats(registry=reg, labels={"dimm": 0})
        first.mmio_writes += 3
        with pytest.raises(ConfigError, match="already registered"):
            DriverStats(registry=reg, labels={"dimm": 0})
        assert reg.snapshot()["driver.mmio_writes{dimm=0}"] == 3

    def test_binding_over_a_registry_counter_is_config_error(self):
        reg = MetricsRegistry()
        reg.counter("demo.hits").inc()
        with pytest.raises(ConfigError):
            _Demo(registry=reg)

    def test_views_are_read_only(self):
        reg = MetricsRegistry()
        _Demo(registry=reg)
        view = reg.counter("demo.hits")
        assert isinstance(view, FieldCounter)
        with pytest.raises(ConfigError, match="read-only"):
            view.inc()

    def test_snapshot_reads_the_field_at_snapshot_time(self):
        reg = MetricsRegistry()
        s = _Demo(registry=reg)
        assert reg.snapshot()["demo.hits"] == 0
        s.hits += 4
        s.ratio_sum += 0.5
        snap = reg.snapshot()
        assert (snap["demo.hits"], snap["demo.ratio_sum"]) == (4, 0.5)

    def test_merge_copies_view_values_into_plain_counters(self):
        reg = MetricsRegistry()
        s = _Demo(registry=reg, labels={"tier": "cpu"})
        s.misses += 2
        merged = MetricsRegistry().merge(reg).merge(reg)
        counter = merged.counter("demo.misses", tier="cpu")
        assert type(counter).__name__ == "Counter"
        assert counter.value == 4
        s.misses += 1  # the merged copy is a point-in-time sum
        assert counter.value == 4

    def test_merge_into_a_view_is_config_error(self):
        reg = MetricsRegistry()
        _Demo(registry=reg)
        with pytest.raises(ConfigError):
            reg.merge(reg)

"""Swap statistics and traffic tests."""

import pytest

from repro.sfm.metrics import (
    SwapStats,
    TrafficStats,
    gb_swapped_per_min,
    promotion_rate,
)
from repro.telemetry.registry import MetricsRegistry


class TestSwapStats:
    def test_mean_ratio(self):
        stats = SwapStats(
            bytes_out_uncompressed=8192, bytes_out_compressed=2048
        )
        assert stats.mean_compression_ratio == 4.0

    def test_mean_ratio_empty(self):
        assert SwapStats().mean_compression_ratio == 0.0

    def test_total_cycles(self):
        stats = SwapStats(cpu_compress_cycles=10.0, cpu_decompress_cycles=5.0)
        assert stats.total_cpu_cycles == 15.0

    def test_digest_cache_lookup_rate_cache_enabled_backend(self):
        """With the cache on, every backend swap-out attempt hashes the
        page first: one lookup per attempt."""
        from repro.sfm.backend import SfmBackend
        from repro.sfm.page import PAGE_SIZE, Page

        backend = SfmBackend(capacity_bytes=64 * PAGE_SIZE)
        for i in range(4):
            backend.swap_out(
                Page(vaddr=i * PAGE_SIZE, data=bytes([i % 3]) * PAGE_SIZE)
            )
        stats = backend.stats
        lookups = stats.digest_cache_hits + stats.digest_cache_misses
        assert lookups == stats.swap_outs + stats.rejected == 4
        assert stats.digest_cache_hits == 1  # page 3 == page 0

    def test_digest_cache_lookup_rate(self):
        """With the cache off, swap-outs hash no cache key: the lookup
        counters stay at zero while the attempts are still counted, so
        a lookup rate read from the exported counters is 0."""
        from repro.sfm.backend import SfmBackend
        from repro.sfm.page import PAGE_SIZE, Page

        backend = SfmBackend(capacity_bytes=64 * PAGE_SIZE, page_cache_entries=0)
        for i in range(4):
            backend.swap_out(
                Page(vaddr=i * PAGE_SIZE, data=bytes([i % 3]) * PAGE_SIZE)
            )
        exported = backend.stats.as_dict()
        assert exported["swap_outs"] + exported["rejected"] == 4
        assert exported["digest_cache_hits"] == 0
        assert exported["digest_cache_misses"] == 0

    def test_merge_and_as_dict(self):
        merged = SwapStats.merged(
            [SwapStats(swap_outs=2), SwapStats(swap_outs=3, swap_ins=1)]
        )
        assert merged.swap_outs == 5
        assert merged.as_dict()["swap_ins"] == 1


class TestTrafficStats:
    def test_totals(self):
        traffic = TrafficStats(
            channel_read_bytes=100, channel_write_bytes=50, nma_read_bytes=1000
        )
        assert traffic.channel_bytes == 150
        assert traffic.nma_bytes == 1000
        assert traffic.total_bytes == 1150

    def test_channel_bytes_excludes_nma(self):
        """The central XFM accounting rule: NMA traffic never crosses the
        DDR channel."""
        traffic = TrafficStats(channel_write_bytes=30, nma_write_bytes=999)
        assert traffic.channel_bytes == 30

    def test_exported_beside_the_swap_counters(self):
        registry = MetricsRegistry()
        traffic = TrafficStats(registry=registry, labels={"tier": "xfm"})
        traffic.nma_read_bytes += 4096
        snapshot = registry.snapshot()
        assert snapshot["swap.nma_read_bytes{tier=xfm}"] == 4096
        assert snapshot["swap.channel_write_bytes{tier=xfm}"] == 0


class TestPromotionRate:
    def test_eq1(self):
        assert gb_swapped_per_min(512.0, 0.2) == pytest.approx(102.4)

    def test_paper_example(self):
        """§2.1: 20% promotion on 512 GB = ~102 GB accessed per minute."""
        assert promotion_rate(102.4e9, 512e9) == pytest.approx(0.2)

    def test_zero_capacity(self):
        assert promotion_rate(100.0, 0.0) == 0.0

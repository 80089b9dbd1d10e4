"""Baseline CPU SFM backend tests."""

import pytest

from repro.compression import LzFastCodec
from repro.errors import ConfigError, SfmError
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page


def _pages(buffers):
    return [
        Page(vaddr=i * PAGE_SIZE, data=data) for i, data in enumerate(buffers)
    ]


@pytest.fixture
def backend():
    return SfmBackend(capacity_bytes=16 * PAGE_SIZE)


class TestSwapOut:
    def test_accepts_compressible_page(self, backend, json_pages):
        page = _pages(json_pages)[0]
        outcome = backend.swap_out(page)
        assert outcome.accepted
        assert outcome.compressed_len < PAGE_SIZE
        assert outcome.ratio > 1.0
        assert page.swapped and page.data is None
        assert backend.contains(page.vaddr)

    def test_rejects_incompressible_page(self, backend, random_pages):
        page = _pages(random_pages)[0]
        outcome = backend.swap_out(page)
        assert not outcome.accepted
        assert outcome.reason == "incompressible"
        assert not page.swapped
        assert backend.stats.rejected == 1

    def test_rejects_when_pool_full(self, json_pages):
        backend = SfmBackend(capacity_bytes=PAGE_SIZE)
        pages = _pages(json_pages * 4)
        reasons = [backend.swap_out(p).reason for p in pages]
        assert "pool-full" in reasons

    def test_double_swap_out_rejected(self, backend, json_pages):
        page = _pages(json_pages)[0]
        backend.swap_out(page)
        with pytest.raises(SfmError):
            backend.swap_out(page)

    def test_swap_out_without_data_rejected(self, backend):
        with pytest.raises(SfmError):
            backend.swap_out(Page(vaddr=0, data=None))

    def test_charges_cpu_cycles_and_channel_traffic(self, backend, json_pages):
        page = _pages(json_pages)[0]
        outcome = backend.swap_out(page)
        expected = backend.codec.spec.compress_cycles_per_byte * PAGE_SIZE
        assert backend.stats.cpu_compress_cycles == pytest.approx(expected)
        assert backend.traffic.channel_read_bytes == PAGE_SIZE
        assert backend.traffic.channel_write_bytes == outcome.compressed_len


class TestSwapIn:
    def test_content_preserved(self, backend, json_pages):
        pages = _pages(json_pages)
        for page in pages:
            backend.swap_out(page)
        for page, original in zip(pages, json_pages):
            assert backend.swap_in(page) == original
            assert not page.swapped

    def test_swap_in_not_swapped_rejected(self, backend, json_pages):
        page = _pages(json_pages)[0]
        with pytest.raises(SfmError):
            backend.swap_in(page)

    def test_pool_space_released(self, backend, json_pages):
        page = _pages(json_pages)[0]
        backend.swap_out(page)
        backend.swap_in(page)
        assert backend.stored_pages() == 0
        assert backend.zpool.stored_bytes() == 0


class TestAccounting:
    def test_effective_bytes_freed_positive_for_compressible(
        self, backend, json_pages
    ):
        for page in _pages(json_pages):
            backend.swap_out(page)
        assert backend.effective_bytes_freed() > 0

    def test_mean_compression_ratio(self, backend, json_pages):
        for page in _pages(json_pages):
            backend.swap_out(page)
        assert backend.stats.mean_compression_ratio > 1.5

    def test_swap_latency(self, backend):
        out = backend.swap_latency_s("out")
        into = backend.swap_latency_s("in")
        assert out > into > 0
        with pytest.raises(ConfigError):
            backend.swap_latency_s("sideways")

    def test_compact_charges_traffic(self, backend, json_pages):
        pages = _pages(json_pages)
        for page in pages:
            backend.swap_out(page)
        backend.swap_in(pages[0])
        before = backend.traffic.channel_bytes
        moved = backend.compact()
        assert backend.traffic.channel_bytes == before + 2 * moved

    def test_custom_codec(self, json_pages):
        backend = SfmBackend(
            capacity_bytes=8 * PAGE_SIZE, codec=LzFastCodec()
        )
        page = _pages(json_pages)[0]
        assert backend.swap_out(page).accepted
        assert backend.swap_in(page) == json_pages[0]

"""Multi-DIMM XFM system tests (functional multi-channel mode).

Multi-channel mode is :class:`XfmBackend` over several DIMMs: one NMA and
one driver per DIMM, each page striped across them and stored as one
blob of slot-padded segments.
"""

import pytest

from repro.core.backend import XfmBackend
from repro.core.nma import NearMemoryAccelerator
from repro.core.registers import Registers
from repro.errors import ConfigError, SfmError
from repro.sfm.page import PAGE_SIZE, Page
from repro.workloads.corpus import corpus_pages


def _pages(buffers):
    return [
        Page(vaddr=i * PAGE_SIZE, data=d) for i, d in enumerate(buffers)
    ]


@pytest.fixture
def backend():
    return XfmBackend(capacity_bytes=128 * PAGE_SIZE, num_dimms=4)


class TestStripedSwap:
    def test_round_trip_content(self, backend, json_pages):
        pages = _pages(json_pages)
        for page, original in zip(pages, json_pages):
            assert backend.swap_out(page).accepted
            assert page.swapped
        for page, original in zip(pages, json_pages):
            assert backend.swap_in(page) == original

    def test_round_trip_with_offload(self, backend, json_pages):
        pages = _pages(json_pages)
        for page in pages:
            backend.swap_out(page)
        for page, original in zip(pages, json_pages):
            assert backend.promote(page) == original
        # Swap counters count pages; the per-DIMM work is the drivers'.
        assert backend.stats.offloaded_decompressions == len(pages)
        for driver in backend.drivers:
            assert driver.stats.submissions == 2 * len(pages)

    def test_segments_land_on_every_dimm(self, backend, json_pages):
        backend.swap_out(_pages(json_pages)[0])
        for nma, driver in zip(backend.nmas, backend.drivers):
            assert driver.stats.submissions == 1
            assert nma.spm.admissions == 1

    def test_same_offset_fragmentation_tracked(self, backend, json_pages):
        page = _pages(json_pages)[0]
        backend.swap_out(page)
        # Same-offset placement: every segment padded to the largest.
        compressed = backend.layout.compress_page(json_pages[0])
        (record,) = backend.index.values()
        blob = backend.zpool.load(record.handle)
        assert len(blob) == compressed.stored_bytes
        assert backend.layout.unpack(blob) == [
            segment.ljust(len(blob) // 4, b"\0")
            for segment in compressed.segments
        ]
        backend.swap_in(page)
        assert backend.zpool.stored_bytes() == 0

    def test_incompressible_rejected(self, backend, random_pages):
        outcome = backend.swap_out(_pages(random_pages)[0])
        assert not outcome.accepted
        assert outcome.reason == "incompressible"
        assert backend.zpool.stored_bytes() == 0

    def test_pool_full_rolls_back_all_dimms(self, json_pages):
        backend = XfmBackend(capacity_bytes=4 * PAGE_SIZE, num_dimms=4)
        pages = _pages(corpus_pages("json-records", 16, seed=31))
        reasons = [backend.swap_out(p).reason for p in pages]
        assert "pool-full" in reasons
        # No partial stripes: a page is one blob or nothing, and no
        # DIMM keeps a reservation for a rejected page.
        assert len(backend.zpool) == backend.stored_pages()
        for nma, driver in zip(backend.nmas, backend.drivers):
            assert nma.spm.used_bytes == 0
            assert driver._inferred_spm_used == 0

    def test_offload_keeps_channel_clean(self, backend, json_pages):
        backend.swap_out(_pages(json_pages)[0])
        assert backend.traffic.channel_bytes == 0
        assert backend.traffic.nma_bytes > 0

    def test_cpu_gather_path_charges_channel(self, backend, json_pages):
        page = _pages(json_pages)[0]
        backend.swap_out(page)
        backend.swap_in(page)  # default CPU gather-decompress
        assert backend.traffic.channel_bytes > 0
        assert backend.stats.cpu_fallback_decompressions == 1


class TestStateMachine:
    def test_double_swap_out_rejected(self, backend, json_pages):
        page = _pages(json_pages)[0]
        backend.swap_out(page)
        with pytest.raises(SfmError):
            backend.swap_out(page)

    def test_swap_in_resident_rejected(self, backend, json_pages):
        with pytest.raises(SfmError):
            backend.swap_in(_pages(json_pages)[0])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            XfmBackend(capacity_bytes=PAGE_SIZE, num_dimms=0)
        with pytest.raises(ConfigError):
            XfmBackend(capacity_bytes=PAGE_SIZE + 1, num_dimms=2)
        # One way to supply accelerators: a multi-DIMM backend builds
        # its own, each with the per-DIMM window codec.
        with pytest.raises(ConfigError):
            XfmBackend(
                capacity_bytes=4 * PAGE_SIZE,
                num_dimms=4,
                nma=NearMemoryAccelerator(),
            )


class TestAccounting:
    def test_effective_ratio_below_single_dimm(self, json_pages):
        """Striping + same-offset placement costs ratio vs 1-DIMM mode."""

        def ratio(backend):
            for p in _pages(json_pages):
                backend.swap_out(p)
            return (
                backend.stored_pages() * PAGE_SIZE
                / backend.zpool.stored_bytes()
            )

        single = ratio(XfmBackend(capacity_bytes=128 * PAGE_SIZE))
        quad = ratio(XfmBackend(capacity_bytes=128 * PAGE_SIZE, num_dimms=4))
        assert single >= quad > 1.0

    def test_per_dimm_occupancy(self, backend, json_pages):
        pages = _pages(json_pages)
        for p in pages:
            backend.swap_out(p)
        snapshot = backend.registry.snapshot()
        for dimm, nma in enumerate(backend.nmas):
            assert snapshot[f"driver.submissions{{dimm={dimm}}}"] == len(
                pages
            )
            assert nma.spm.peak_used > 0
            assert nma.spm.used_bytes == 0

    def test_compact_runs_on_all_dimms(self, backend, json_pages):
        data = corpus_pages("json-records", 12, seed=37)
        pages = _pages(data)
        for p in pages:
            backend.swap_out(p)
        for p in pages[::2]:
            backend.swap_in(p)
        assert backend.compact() >= 0
        for p, original in zip(pages[1::2], data[1::2]):
            assert backend.promote(p) == original

    def test_dimm_regions_isolated(self, backend):
        assert backend.capacity_bytes == 128 * PAGE_SIZE
        regions = [
            (nma.registers[Registers.SFM_BASE], nma.registers[Registers.SFM_SIZE])
            for nma in backend.nmas
        ]
        assert sum(size for _, size in regions) == 128 * PAGE_SIZE
        bases = sorted(base for base, _ in regions)
        assert all(
            low + 32 * PAGE_SIZE <= high for low, high in zip(bases, bases[1:])
        )

    def test_dimm_builder(self):
        backend = XfmBackend(capacity_bytes=32 * PAGE_SIZE, num_dimms=4)
        registers = backend.nmas[2].registers
        assert registers[Registers.SFM_BASE] == 2 << 40
        assert registers[Registers.SFM_SIZE] == 8 * PAGE_SIZE
        assert len({id(nma) for nma in backend.nmas}) == 4
        for nma, driver in zip(backend.nmas, backend.drivers):
            assert driver.nma is nma
            assert nma.codec is backend.layout.codec
            assert nma.codec.window_size == 1024

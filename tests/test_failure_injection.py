"""Failure-injection tests: corruption, misuse, and resource exhaustion
must surface as typed errors, never as silent wrong answers."""

import pytest

from repro.compression import DeflateCodec, LzFastCodec, ZstdLikeCodec
from repro.core.backend import XfmBackend
from repro.errors import (
    CorruptStreamError,
    EntryNotFoundError,
    MmioError,
    ReproError,
    SfmError,
)
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page
from repro.workloads.corpus import corpus_pages


def _swap_one(backend, data):
    page = Page(vaddr=0, data=data)
    assert backend.swap_out(page).accepted
    return page


class TestPoolCorruption:
    """Bit flips inside the compressed pool must be detected on swap-in."""

    @pytest.mark.parametrize(
        "backend_cls", [SfmBackend, XfmBackend], ids=["baseline", "xfm"]
    )
    def test_corrupted_blob_detected(self, backend_cls, json_pages):
        backend = backend_cls(capacity_bytes=16 * PAGE_SIZE)
        page = _swap_one(backend, json_pages[0])
        entry = backend.zpool.entry(backend.index[page.vaddr].handle)
        slab = backend.zpool._slabs[entry.slab]
        # Flip a byte in the middle of the compressed stream.
        slab.buffer[entry.offset + entry.length // 2] ^= 0xFF
        with pytest.raises(ReproError):
            backend.swap_in(page)

    def test_truncation_detected_by_every_codec(self, json_pages):
        for codec in (DeflateCodec(), LzFastCodec(), ZstdLikeCodec()):
            blob = codec.compress(json_pages[0])
            for cut in (1, len(blob) // 3, len(blob) - 1):
                with pytest.raises(CorruptStreamError):
                    codec.decompress(blob[:cut])

    def test_header_length_mismatch_detected(self, json_pages):
        codec = LzFastCodec()
        blob = bytearray(codec.compress(json_pages[0]))
        # Corrupt the varint original-length field.
        blob[2] ^= 0x01
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(blob))


class TestIndexConsistency:
    def test_double_free_detected(self, json_pages):
        backend = SfmBackend(capacity_bytes=16 * PAGE_SIZE)
        page = _swap_one(backend, json_pages[0])
        handle = backend.index[page.vaddr].handle
        backend.zpool.free(handle)  # simulate an index/pool desync
        with pytest.raises(EntryNotFoundError):
            backend.swap_in(page)

    def test_stale_page_flag_detected(self, json_pages):
        backend = SfmBackend(capacity_bytes=16 * PAGE_SIZE)
        page = Page(vaddr=0, data=json_pages[0])
        page.swapped = True  # lies about being in far memory
        page.data = None
        with pytest.raises(EntryNotFoundError):
            backend.swap_in(page)

    @pytest.mark.parametrize(
        "backend_cls",
        [
            SfmBackend,
            XfmBackend,
            lambda capacity_bytes: XfmBackend(capacity_bytes, num_dimms=4),
        ],
        ids=["baseline", "xfm", "multichannel"],
    )
    def test_never_stored_vaddr_is_typed_on_every_backend(self, backend_cls):
        """Demand and promotion paths raise the index's typed error for a
        page that claims far memory but was never stored; the dropping
        and membership paths answer False."""
        backend = backend_cls(capacity_bytes=16 * PAGE_SIZE)
        page = Page(vaddr=5 * PAGE_SIZE, data=None)
        page.swapped = True
        for path in (backend.swap_in, backend.promote):
            with pytest.raises(EntryNotFoundError):
                path(page)
        assert not backend.invalidate(page.vaddr)
        assert not backend.contains(page.vaddr)


class TestDriverMisuse:
    def test_writing_device_registers_rejected(self):
        backend = XfmBackend(capacity_bytes=16 * PAGE_SIZE)
        from repro.core.registers import Registers

        with pytest.raises(MmioError):
            backend.nmas[0].registers.mmio_write(int(Registers.SP_CAPACITY), 0)

    def test_fallbacks_keep_system_functional_under_exhaustion(
        self, json_pages
    ):
        """With a 1-deep CRQ, most offloads fail — but every swap must
        still succeed via CPU_Fallback and contents stay intact."""
        from repro.core.nma import NearMemoryAccelerator, NmaConfig

        nma = NearMemoryAccelerator(NmaConfig(crq_depth=1, spm_bytes=PAGE_SIZE))
        backend = XfmBackend(capacity_bytes=64 * PAGE_SIZE, nma=nma)
        # Wedge the queue permanently.
        nma.submit(True, 0, None, PAGE_SIZE)
        data = corpus_pages("server-log", 6, seed=61)
        pages = [Page(vaddr=i * PAGE_SIZE, data=d) for i, d in enumerate(data)]
        for page in pages:
            assert backend.xfm_swap_out(page).accepted
        assert backend.stats.cpu_fallback_compressions == len(pages)
        for page, original in zip(pages, data):
            assert backend.swap_in(page) == original


class TestStateMachineMisuse:
    def test_swap_in_twice_rejected(self, json_pages):
        backend = SfmBackend(capacity_bytes=16 * PAGE_SIZE)
        page = _swap_one(backend, json_pages[0])
        backend.swap_in(page)
        with pytest.raises(SfmError):
            backend.swap_in(page)

    def test_interleaved_misuse_never_corrupts_others(self, json_pages):
        """Errors on one page must not damage other stored pages."""
        backend = SfmBackend(capacity_bytes=32 * PAGE_SIZE)
        pages = [
            Page(vaddr=i * PAGE_SIZE, data=d)
            for i, d in enumerate(json_pages)
        ]
        for page in pages:
            backend.swap_out(page)
        with pytest.raises(SfmError):
            backend.swap_out(pages[0])  # already swapped
        for page, original in zip(pages, json_pages):
            assert backend.swap_in(page) == original

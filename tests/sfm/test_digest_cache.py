"""Digest-keyed compressed-page cache: accounting and store-path wiring.

The cache is content-addressed, so correctness hinges on three facts:
identical content hits (and reuses the exact blob bytes), any mutation
misses (no invalidation protocol to get wrong), and the zswap
same-filled fast path never touches it (those pages bypass the backend
entirely, as in the kernel).
"""

import pytest

from repro.core.backend import XfmBackend
from repro.core.nma import NearMemoryAccelerator, NmaConfig
from repro.errors import ConfigError, CorruptedBlobError
from repro.sfm.backend import SfmBackend
from repro.resilience.integrity import (
    DIGEST_SIZE,
    content_digest,
    page_digest,
)
from repro.sfm.digest_cache import DIGEST_CYCLES_PER_BYTE, DigestPageCache
from repro.sfm.page import PAGE_SIZE, Page
from repro.sfm.zswap import ZswapFrontend
from repro.tiering.protocol import SwapOutcome


def _page(vaddr, data):
    return Page(vaddr=vaddr, data=data)


@pytest.fixture
def backend():
    return SfmBackend(capacity_bytes=64 * PAGE_SIZE)


class TestDigestPageCache:
    def test_digest_is_content_keyed(self):
        a = bytes(range(256)) * 16
        assert len(page_digest(a)) == DIGEST_SIZE
        assert page_digest(a) == page_digest(bytes(a))
        mutated = bytearray(a)
        mutated[100] ^= 1
        assert page_digest(a) != page_digest(bytes(mutated))

    def test_lru_eviction(self):
        cache = DigestPageCache(max_entries=2)
        cache.put(b"a", b"blob-a")
        cache.put(b"b", b"blob-b")
        assert cache.get(b"a") == b"blob-a"  # refreshes a's position
        cache.put(b"c", b"blob-c")  # evicts b, the LRU entry
        assert cache.get(b"b") is None
        assert cache.get(b"a") == b"blob-a"
        assert cache.get(b"c") == b"blob-c"

    def test_put_refreshes_existing_key(self):
        cache = DigestPageCache(max_entries=2)
        cache.put(b"a", b"old")
        cache.put(b"b", b"blob-b")
        cache.put(b"a", b"new")
        cache.put(b"c", b"blob-c")  # must evict b, not the refreshed a
        assert cache.get(b"a") == b"new"
        assert cache.get(b"b") is None

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            DigestPageCache(max_entries=0)


class TestBackendHitMissAccounting:
    def test_first_store_misses_then_identical_content_hits(
        self, backend, json_pages
    ):
        data = json_pages[0]
        backend.swap_out(_page(0, data))
        assert backend.stats.digest_cache_misses == 1
        assert backend.stats.digest_cache_hits == 0

        # A different page with byte-identical content: hit.
        backend.swap_out(_page(PAGE_SIZE, bytes(data)))
        assert backend.stats.digest_cache_misses == 1
        assert backend.stats.digest_cache_hits == 1

    def test_hit_reuses_exact_blob_and_skips_compressor(
        self, backend, json_pages
    ):
        data = json_pages[0]
        first = backend.swap_out(_page(0, data))
        compresses = []
        original = backend._compress
        backend._compress = lambda d: compresses.append(d) or original(d)
        second = backend.swap_out(_page(PAGE_SIZE, data))
        assert compresses == []  # blob came from the cache
        assert second.compressed_len == first.compressed_len
        # Both copies decompress to the original content.
        assert backend.swap_in(
            _resident(backend, PAGE_SIZE)
        ) == data

    def test_hit_charges_hash_not_compressor_cycles(self, backend, json_pages):
        data = json_pages[0]
        backend.swap_out(_page(0, data))
        before = backend.stats.cpu_compress_cycles
        backend.swap_out(_page(PAGE_SIZE, data))
        charged = backend.stats.cpu_compress_cycles - before
        assert charged == pytest.approx(DIGEST_CYCLES_PER_BYTE * PAGE_SIZE)
        assert charged < backend.codec.spec.compress_cycles_per_byte * PAGE_SIZE

    def test_mutated_page_misses(self, backend, json_pages):
        data = json_pages[0]
        backend.swap_out(_page(0, data))
        mutated = bytearray(data)
        mutated[17] ^= 0xFF
        backend.swap_out(_page(PAGE_SIZE, bytes(mutated)))
        assert backend.stats.digest_cache_misses == 2
        assert backend.stats.digest_cache_hits == 0

    def test_disabled_cache_counts_nothing(self, json_pages):
        backend = SfmBackend(
            capacity_bytes=64 * PAGE_SIZE, page_cache_entries=0
        )
        assert backend.page_cache is None
        backend.swap_out(_page(0, json_pages[0]))
        backend.swap_out(_page(PAGE_SIZE, json_pages[0]))
        assert backend.stats.digest_cache_hits == 0
        assert backend.stats.digest_cache_misses == 0

    def test_incompressible_result_is_cached_too(self, backend, random_pages):
        """A repeated incompressible page is rejected both times but only
        compressed once: the cached blob re-trips the size threshold."""
        data = random_pages[0]
        assert not backend.swap_out(_page(0, data)).accepted
        compresses = []
        original = backend._compress
        backend._compress = lambda d: compresses.append(d) or original(d)
        assert not backend.swap_out(_page(PAGE_SIZE, data)).accepted
        assert compresses == []
        assert backend.stats.digest_cache_hits == 1


class TestRefusedBlobVerdict:
    """A blob refused as incompressible is cached as its length alone:
    a hit on it refuses exactly as a hit on the kept blob did."""

    def _refuse_twice(self, backend, data, swap_out):
        limit = int(PAGE_SIZE * backend.max_stored_fraction)
        first = swap_out(_page(0, data))
        cycles = backend.stats.cpu_compress_cycles
        second = swap_out(_page(PAGE_SIZE, data))
        assert first == SwapOutcome(
            accepted=False, reason="incompressible",
            cpu_cycles=backend.codec.spec.compress_cycles_per_byte * PAGE_SIZE,
        )
        assert second == SwapOutcome(
            accepted=False, reason="incompressible",
            cpu_cycles=DIGEST_CYCLES_PER_BYTE * PAGE_SIZE,
        )
        assert backend.stats.cpu_compress_cycles - cycles == (
            DIGEST_CYCLES_PER_BYTE * PAGE_SIZE
        )
        assert backend.stats.rejected == 2
        assert backend.stats.digest_cache_misses == 1
        assert backend.stats.digest_cache_hits == 1
        blob_len, blob, blob_digest = backend.page_cache.get(page_digest(data))
        assert blob_len > limit and blob is None and blob_digest is None
        assert backend.traffic.channel_write_bytes == 0
        assert not backend.index

    def test_hit_on_a_refused_entry(self, backend, random_pages):
        self._refuse_twice(backend, random_pages[0], backend.swap_out)

    def test_hit_on_a_refused_entry_through_the_xfm_cpu_fallback(
        self, random_pages
    ):
        nma = NearMemoryAccelerator(NmaConfig(crq_depth=1))
        backend = XfmBackend(capacity_bytes=64 * PAGE_SIZE, nma=nma)
        nma.submit(True, 0, None, PAGE_SIZE)  # every offload falls back
        self._refuse_twice(backend, random_pages[0], backend.xfm_swap_out)
        assert backend.stats.cpu_fallback_compressions == 2

    def test_no_entry_keeps_a_blob_too_large_to_store(
        self, backend, json_pages, random_pages
    ):
        limit = int(PAGE_SIZE * backend.max_stored_fraction)
        for round_ in range(2):
            for i, data in enumerate(random_pages + json_pages):
                backend.swap_out(_page((round_ * 64 + i) * PAGE_SIZE, data))
        assert backend.stats.digest_cache_hits == len(
            random_pages + json_pages
        )
        assert backend.stats.rejected == 2 * len(random_pages)
        kept = [
            blob for _, blob, _ in backend.page_cache._entries.values()
            if blob is not None
        ]
        assert len(kept) == len(json_pages)
        assert max(map(len, kept)) <= limit


class TestCachedBlobDigest:
    """A cache entry keeps its blob's digest beside the blob, so a hit
    hashes only the page; the record it commits must still name the
    pooled bytes exactly."""

    def test_restore_after_load_commits_the_pooled_blob_digest(
        self, backend, json_pages
    ):
        data = json_pages[0]
        page = _page(0, data)
        assert backend.swap_out(page).accepted
        assert backend.swap_in(page) == data
        assert backend.swap_out(page).accepted
        assert backend.stats.digest_cache_hits == 1
        record = backend.index[0]
        assert record.blob_digest == content_digest(
            backend.zpool.load(record.handle)
        )
        assert backend.swap_in(page) == data

    def test_restore_of_a_pool_full_refusal_hashes_at_commit(self, json_pages):
        backend = SfmBackend(capacity_bytes=PAGE_SIZE)
        refused = None
        for vaddr, data in enumerate(json_pages):
            outcome = backend.swap_out(_page(vaddr * PAGE_SIZE, data))
            if outcome.reason == "pool-full":
                refused = data
                break
        assert refused is not None
        digest = page_digest(refused)
        assert backend.page_cache.get(digest)[2] is None  # never stored
        backend.invalidate(0)
        page = _page(99 * PAGE_SIZE, refused)
        hits = backend.stats.digest_cache_hits
        assert backend.swap_out(page).accepted
        assert backend.stats.digest_cache_hits == hits + 1
        record = backend.index[page.vaddr]
        pooled = backend.zpool.load(record.handle)
        assert record.blob_digest == content_digest(pooled)
        assert backend.page_cache.get(digest) == (
            len(pooled), pooled, record.blob_digest
        )
        assert backend.swap_in(page) == refused


class TestVerifiedDigestReuse:
    """A swap-in verifies its page's digest; re-storing equal bytes
    reuses it instead of hashing the page again. Only equal ``bytes``
    qualify, and the swap-in's checks all still run."""

    @pytest.fixture
    def store_hashes(self, monkeypatch):
        import repro.sfm.backend as sfm_backend

        hashed = []

        def counting(data):
            hashed.append(bytes(data))
            return page_digest(data)

        monkeypatch.setattr(sfm_backend, "page_digest", counting)
        return hashed

    @pytest.mark.parametrize("kind", ["cpu", "xfm"])
    def test_fault_and_reuse_hashes_the_page_once(
        self, kind, store_hashes, json_pages
    ):
        backend = (
            SfmBackend(capacity_bytes=64 * PAGE_SIZE)
            if kind == "cpu"
            else XfmBackend(capacity_bytes=64 * PAGE_SIZE)
        )
        data = json_pages[0]
        page = _page(0, data)
        assert backend.swap_out(page).accepted
        assert store_hashes == [data]
        for _ in range(3):
            assert backend.swap_in(page) == data
            page.data = bytes(page.data)  # equal bytes, another object
            assert backend.swap_out(page).accepted
            assert backend.index[0].page_digest == page_digest(data)
        assert store_hashes == [data]
        assert backend.swap_in(page) == data

    def test_other_bytes_are_hashed(self, backend, store_hashes, json_pages):
        first, second = json_pages[:2]
        page = _page(0, first)
        backend.swap_out(page)
        backend.swap_in(page)
        other = _page(PAGE_SIZE, second)
        assert backend.swap_out(other).accepted
        assert backend.index[PAGE_SIZE].page_digest == page_digest(second)
        assert store_hashes == [first, second]
        assert backend.swap_in(other) == second

    def test_an_equal_bytearray_is_hashed(
        self, backend, store_hashes, json_pages
    ):
        data = json_pages[0]
        page = _page(0, data)
        backend.swap_out(page)
        backend.swap_in(page)
        page.data = bytearray(data)
        assert backend.swap_out(page).accepted
        assert store_hashes == [data, data]

    def test_a_failed_verification_is_not_reused(
        self, backend, store_hashes, json_pages
    ):
        first, second = json_pages[:2]
        page = _page(0, first)
        backend.swap_out(page)
        backend.swap_in(page)
        other = _page(PAGE_SIZE, second)
        backend.swap_out(other)
        # Corrupt the stored blob: the swap-in fails, and the digest it
        # was checking against is not kept for the next store.
        record = backend.index[PAGE_SIZE]
        backend.index[PAGE_SIZE] = record._replace(page_digest=bytes(16))
        with pytest.raises(CorruptedBlobError):
            backend.swap_in(other)
        backend.swap_out(_page(2 * PAGE_SIZE, second))
        assert store_hashes == [first, second, second]
        assert backend.index[2 * PAGE_SIZE].page_digest == page_digest(second)


def _resident(backend, vaddr):
    page = Page(vaddr=vaddr, data=None)
    page.swapped = True
    return page


class TestZswapInteraction:
    def _frontend(self, backend):
        return ZswapFrontend(
            backend, total_ram_bytes=1024 * PAGE_SIZE, max_pool_percent=50
        )

    def test_store_invalidate_store_of_mutated_page(
        self, backend, json_pages
    ):
        front = self._frontend(backend)
        data = json_pages[0]
        assert front.store(0, 7, data)
        front.invalidate_page(0, 7)
        mutated = bytearray(data)
        mutated[0] ^= 0x55
        # The slot is reused with new content: must miss (content key
        # changed), must store the mutated bytes, and must load them back.
        assert front.store(0, 7, bytes(mutated))
        assert backend.stats.digest_cache_misses == 2
        assert backend.stats.digest_cache_hits == 0
        assert front.load(0, 7) == bytes(mutated)

    def test_restore_of_identical_page_hits(self, backend, json_pages):
        front = self._frontend(backend)
        data = json_pages[0]
        assert front.store(0, 7, data)
        front.invalidate_page(0, 7)
        assert front.store(0, 7, data)
        assert backend.stats.digest_cache_hits == 1
        assert front.load(0, 7) == data

    def test_same_filled_pages_bypass_the_cache(self, backend):
        """zswap intercepts same-value-filled pages before the backend:
        they must neither populate nor consult the digest cache."""
        front = self._frontend(backend)
        zero_page = bytes(PAGE_SIZE)
        ones_page = bytes([0xAA]) * PAGE_SIZE
        assert front.store(0, 1, zero_page)
        assert front.store(0, 2, zero_page)
        assert front.store(0, 3, ones_page)
        assert front.stats.same_filled_pages == 3
        assert backend.stats.digest_cache_hits == 0
        assert backend.stats.digest_cache_misses == 0
        for page in (zero_page, ones_page):
            assert backend.page_cache.get(page_digest(page)) is None
        assert front.load(0, 1) == zero_page
        assert front.load(0, 3) == ones_page

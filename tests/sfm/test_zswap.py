"""zswap-style frontend tests."""

import pytest

from repro.core.backend import XfmBackend
from repro.errors import ConfigError
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE
from repro.sfm.zswap import ZswapFrontend
from repro.workloads.corpus import corpus_pages


@pytest.fixture
def frontend():
    backend = SfmBackend(capacity_bytes=32 * PAGE_SIZE)
    return ZswapFrontend(
        backend, total_ram_bytes=256 * PAGE_SIZE, max_pool_percent=20
    )


class TestStoreLoad:
    def test_store_then_load(self, frontend, json_pages):
        assert frontend.store(0, 7, json_pages[0])
        assert frontend.stats.stored_pages == 1
        assert frontend.load(0, 7) == json_pages[0]
        assert frontend.stats.stored_pages == 0
        assert frontend.load(0, 7) is None  # loads are exclusive
        assert frontend.stats.loads == 1

    def test_load_unknown_returns_none(self, frontend):
        assert frontend.load(0, 99) is None

    def test_incompressible_rejected(self, frontend, random_pages):
        assert not frontend.store(0, 1, random_pages[0])
        assert frontend.stats.reject_compress_poor == 1

    def test_same_filled_optimization(self, frontend):
        """All-zero (or same-byte) pages bypass the pool entirely."""
        zero = bytes(PAGE_SIZE)
        ones = bytes([0xAB]) * PAGE_SIZE
        assert frontend.store(0, 1, zero)
        assert frontend.store(0, 2, ones)
        assert frontend.stats.same_filled_pages == 2
        assert frontend.backend.zpool.stored_bytes() == 0
        assert frontend.load(0, 1) == zero
        assert frontend.load(0, 2) == ones

    def test_restore_replaces_stale_copy(self, frontend, json_pages):
        frontend.store(0, 3, json_pages[0])
        frontend.store(0, 3, json_pages[1])
        assert frontend.load(0, 3) == json_pages[1]

    def test_bad_size_rejected(self, frontend):
        with pytest.raises(ConfigError):
            frontend.store(0, 0, b"short")


class TestPoolLimit:
    def test_pool_limit_rejects(self):
        backend = SfmBackend(capacity_bytes=64 * PAGE_SIZE)
        frontend = ZswapFrontend(
            backend, total_ram_bytes=40 * PAGE_SIZE, max_pool_percent=10
        )  # limit = 4 pages of pool
        pages = corpus_pages("json-records", 24, seed=51)
        results = [
            frontend.store(0, i, page) for i, page in enumerate(pages)
        ]
        assert not all(results)
        assert frontend.stats.reject_pool_limit > 0
        assert frontend.pool_usage_bytes() <= frontend.pool_limit_bytes() + PAGE_SIZE

    def test_limit_config_validated(self):
        backend = SfmBackend(capacity_bytes=8 * PAGE_SIZE)
        with pytest.raises(ConfigError):
            ZswapFrontend(backend, total_ram_bytes=PAGE_SIZE, max_pool_percent=0)


class TestInvalidate:
    def test_invalidate_page_frees_pool(self, frontend, json_pages):
        frontend.store(0, 5, json_pages[0])
        used = frontend.backend.zpool.stored_bytes()
        assert used > 0
        frontend.invalidate_page(0, 5)
        assert frontend.backend.zpool.stored_bytes() == 0
        assert frontend.load(0, 5) is None
        assert frontend.stats.invalidates == 1

    def test_invalidate_same_filled(self, frontend):
        frontend.store(0, 6, bytes(PAGE_SIZE))
        frontend.invalidate_page(0, 6)
        assert frontend.load(0, 6) is None

    def test_invalidate_area_is_swapoff(self, frontend, json_pages):
        for i, page in enumerate(json_pages[:4]):
            frontend.store(1, i, page)
        frontend.store(2, 0, json_pages[4])
        dropped = frontend.invalidate_area(1)
        assert dropped == 4
        assert frontend.load(2, 0) == json_pages[4]

    def test_invalidate_missing_is_noop(self, frontend):
        frontend.invalidate_page(0, 12345)
        assert frontend.stats.invalidates == 0


class TestOverXfm:
    def test_works_over_xfm_backend(self, json_pages):
        backend = XfmBackend(capacity_bytes=32 * PAGE_SIZE)
        frontend = ZswapFrontend(
            backend, total_ram_bytes=256 * PAGE_SIZE
        )
        assert frontend.store(0, 0, json_pages[0])
        assert backend.stats.offloaded_compressions == 1
        assert backend.traffic.channel_bytes == 0
        assert frontend.load(0, 0) == json_pages[0]

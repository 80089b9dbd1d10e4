"""ZswapFrontend over every tier: pool-limit pressure and writeback.

The satellite coverage: shrink/writeback semantics must hold no matter
which FarMemoryTier sits under the frontend — compressed CPU pool,
XFM-accelerated pool, multi-channel XFM, raw DFM, or the whole 3-tier
pipeline.
"""

import pytest

from repro.core.backend import XfmBackend
from repro.dfm.backend import DfmBackend
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE
from repro.sfm.zswap import ZswapFrontend
from repro.tiering.pipeline import TierPipeline
from repro.tiering.policy import NeverDemote
from repro.workloads.corpus import corpus_pages

TIERS = {
    "cpu": lambda: SfmBackend(capacity_bytes=64 * PAGE_SIZE),
    "xfm": lambda: XfmBackend(capacity_bytes=64 * PAGE_SIZE),
    "xfm-mc": lambda: XfmBackend(capacity_bytes=64 * PAGE_SIZE, num_dimms=4),
    "dfm": lambda: DfmBackend(capacity_bytes=64 * PAGE_SIZE),
    "pipeline": lambda: TierPipeline.build(
        cpu_capacity_bytes=32 * PAGE_SIZE,
        xfm_capacity_bytes=16 * PAGE_SIZE,
        dfm_capacity_bytes=16 * PAGE_SIZE,
        demotion=NeverDemote(),
    ),
}


def _frontend(tier, max_pool_percent=10, total_pages=40, with_device=True):
    swap_device = {}

    def writeback(swap_type, offset, data):
        swap_device[(swap_type, offset)] = data

    frontend = ZswapFrontend(
        TIERS[tier](),
        total_ram_bytes=total_pages * PAGE_SIZE,
        max_pool_percent=max_pool_percent,
        writeback=writeback if with_device else None,
    )
    return frontend, swap_device


@pytest.mark.parametrize("tier", list(TIERS), ids=list(TIERS))
class TestPoolPressureEveryTier:
    def test_writeback_keeps_stores_succeeding(self, tier):
        frontend, swap_device = _frontend(tier)
        pages = corpus_pages("json-records", 24, seed=91)
        assert all(
            frontend.store(0, i, page) for i, page in enumerate(pages)
        )
        assert frontend.stats.reject_pool_limit == 0
        # The 4-page pool budget forces evictions on every tier; raw
        # tiers (DFM) hit it soonest.
        assert frontend.stats.written_back > 0
        assert swap_device

    def test_rejects_without_writeback(self, tier):
        frontend, _ = _frontend(tier, with_device=False)
        pages = corpus_pages("json-records", 24, seed=92)
        results = [
            frontend.store(0, i, page) for i, page in enumerate(pages)
        ]
        assert not all(results)
        assert frontend.stats.reject_pool_limit > 0
        # Usage stays at (or, for the store that tripped the limit,
        # barely past) the pool budget on every tier.
        assert frontend.pool_usage_bytes() <= (
            frontend.pool_limit_bytes() + PAGE_SIZE
        )

    def test_every_page_recoverable(self, tier):
        """Kernel contract: each page is in zswap XOR on the device."""
        frontend, swap_device = _frontend(tier)
        pages = corpus_pages("server-log", 24, seed=93)
        for i, page in enumerate(pages):
            frontend.store(0, i, page)
        for i, expect in enumerate(pages):
            got = frontend.load(0, i)
            if got is None:
                got = swap_device[(0, i)]
            assert got == expect, f"page {i} lost on tier {tier}"

    def test_invalidate_frees_pool_space(self, tier):
        frontend, _ = _frontend(tier, max_pool_percent=50)
        pages = corpus_pages("json-records", 8, seed=94)
        for i, page in enumerate(pages):
            assert frontend.store(0, i, page)
        used = frontend.pool_usage_bytes()
        for i in range(8):
            frontend.invalidate_page(0, i)
        assert frontend.pool_usage_bytes() < used
        assert frontend.stats.invalidates == 8
        assert frontend.backend.stored_pages() == 0

    def test_lru_order_respected(self, tier):
        frontend, swap_device = _frontend(tier)
        pages = corpus_pages("json-records", 24, seed=95)
        for i, page in enumerate(pages):
            frontend.store(0, i, page)
        evicted = sorted(offset for _, offset in swap_device)
        assert evicted, f"no writeback happened on tier {tier}"
        assert evicted[0] == 0  # the oldest store went first


def test_shrink_requires_writeback():
    from repro.errors import ConfigError

    frontend, _ = _frontend("cpu", with_device=False)
    with pytest.raises(ConfigError):
        frontend.shrink()

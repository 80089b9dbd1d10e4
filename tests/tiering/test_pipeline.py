"""TierPipeline behavior: fall-through, demotion, promotion, accounting.

Includes the store -> demote -> promote -> load round trip, bit-identical
under the validation invariant hooks. Per-tier traffic reconciles with
the byte counters in ``test_protocol.py``, over every tier kind.
"""

import pytest

from repro.errors import ConfigError, SfmError
from repro.sfm.page import PAGE_SIZE, Page
from repro.sim.context import run_context
from repro.tiering.pipeline import TierPipeline
from repro.tiering.policy import LruDemotion, NeverDemote, PoolLimitPolicy
from repro.tiering.policy import AdmissionPolicy
from repro.validation.invariants import check_tier_pipeline
from repro.workloads.corpus import corpus_pages, noise_page


def _noise_page(seed: int) -> bytes:
    return noise_page((seed * 2654435761 + 1) & 0xFFFFFFFF)


def _pipeline(**kwargs) -> TierPipeline:
    return TierPipeline.build(
        cpu_capacity_bytes=32 * PAGE_SIZE,
        xfm_capacity_bytes=32 * PAGE_SIZE,
        dfm_capacity_bytes=64 * PAGE_SIZE,
        **kwargs,
    )


class TestFallThrough:
    def test_incompressible_falls_to_dfm(self):
        pipeline = _pipeline(demotion=NeverDemote())
        assert pipeline.store(1, _noise_page(1))
        # Both compressed tiers rejected it; DFM stores raw pages.
        assert pipeline.tier_of_key(1) == "dfm"
        assert pipeline.pipeline_stats.store_fallthroughs >= 2

    def test_compressible_stays_on_top(self):
        pipeline = _pipeline(demotion=NeverDemote())
        assert pipeline.store(1, corpus_pages("json-records", 1)[0])
        assert pipeline.tier_of_key(1) == "cpu-zswap"
        assert pipeline.pipeline_stats.store_fallthroughs == 0

    def test_admission_policy_skips_tier(self):
        class _RefuseTop(AdmissionPolicy):
            def admit(self, tier):
                return tier.tier_name != "cpu-zswap"

        pipeline = _pipeline(admission=_RefuseTop(), demotion=NeverDemote())
        pages = corpus_pages("json-records", 8, seed=7)
        for key, data in enumerate(pages):
            assert pipeline.store(key, data)
        assert pipeline.stored_pages() == 8
        assert {pipeline.tier_of_key(key) for key in range(8)} == {"xfm"}
        assert pipeline.pipeline_stats.store_fallthroughs == 8

    def test_all_tiers_rejected_reports_reason(self):
        tiny = TierPipeline.build(
            cpu_capacity_bytes=PAGE_SIZE,
            xfm_capacity_bytes=PAGE_SIZE,
            dfm_capacity_bytes=PAGE_SIZE,
            demotion=NeverDemote(),
        )
        stored = 0
        rejected = 0
        for key in range(8):
            if tiny.store(key, _noise_page(key)):
                stored += 1
            else:
                rejected += 1
        assert stored == 1  # DFM held exactly one raw page
        assert rejected == 7
        assert tiny.pipeline_stats.store_rejects == 7


class TestDemotionPromotion:
    def test_lru_pressure_cascades_downward(self):
        pipeline = _pipeline(
            demotion=LruDemotion(watermark_fraction=0.25)
        )
        pages = corpus_pages("binary-structs", 24, seed=11)
        for key, data in enumerate(pages):
            assert pipeline.store(key, data)
        assert pipeline.pipeline_stats.demotions > 0
        # The coldest (lowest) keys sank; the hottest stayed on top.
        occupied = {pipeline.tier_of_key(k) for k in range(24)}
        assert len(occupied) > 1
        assert pipeline.tier_of_key(23) == "cpu-zswap"

    def test_demote_coldest_moves_lru_victim(self):
        pipeline = _pipeline(demotion=NeverDemote())
        pages = corpus_pages("json-records", 4, seed=3)
        for key, data in enumerate(pages):
            pipeline.store(key, data)
        moved = pipeline.demote_coldest(2, from_tier=0)
        assert moved == 2
        assert pipeline.tier_of_key(0) == "xfm"
        assert pipeline.tier_of_key(1) == "xfm"
        assert pipeline.tier_of_key(3) == "cpu-zswap"

    def test_promote_to_top(self):
        pipeline = _pipeline(demotion=NeverDemote())
        pages = corpus_pages("json-records", 3, seed=5)
        for key, data in enumerate(pages):
            pipeline.store(key, data)
        pipeline.demote_coldest(1, from_tier=0)
        pipeline.demote_coldest(1, from_tier=1)
        assert pipeline.tier_of_key(0) == "dfm"
        assert pipeline.promote_key(0) == "cpu-zswap"
        assert pipeline.pipeline_stats.promotions == 1

    def test_restore_into_origin_when_lower_tiers_reject(self):
        """A demotion victim no lower tier takes goes back where it was
        (its space was just freed) instead of being lost."""
        pipeline = TierPipeline.build(
            cpu_capacity_bytes=32 * PAGE_SIZE,
            xfm_capacity_bytes=PAGE_SIZE,  # too small once occupied
            dfm_capacity_bytes=PAGE_SIZE,
            demotion=NeverDemote(),
        )
        # Occupy both lower tiers so further demotions bounce.
        filler = corpus_pages("json-records", 2, seed=13)
        assert pipeline.store(100, filler[0])
        assert pipeline.store(101, filler[1])
        # Sink one page all the way to the 1-page DFM floor.
        pipeline.demote_coldest(1, from_tier=0)
        pipeline.demote_coldest(1, from_tier=1)
        assert pipeline.tier_of_key(100) == "dfm"
        # Demote out of the last tier: there is nothing below, so the
        # victim bounces back into its freshly-freed origin slot.
        data = corpus_pages("server-log", 1, seed=14)[0]
        assert pipeline.store(7, data)
        before = pipeline.pipeline_stats.demotion_failures
        assert pipeline.demote_coldest(1, from_tier=2) == 0
        assert pipeline.pipeline_stats.demotion_failures == before + 1
        assert pipeline.tier_of_key(100) == "dfm"
        # No page was lost and contents survive the bounce.
        assert pipeline.load(100) == filler[0]
        assert pipeline.load(7) == data

    def test_spill_callback_on_total_rejection(self):
        """When every tier (including the origin) rejects a demotion
        victim, the spill callback receives it — zswap's writeback."""

        class OneShotTier:
            """Protocol-shaped stub: accepts exactly one store, ever."""

            tier_name = "oneshot"
            capacity_bytes = PAGE_SIZE

            def __init__(self):
                from repro.sfm.metrics import SwapStats, TrafficStats

                self.stats = SwapStats()
                self.traffic = TrafficStats()
                self._held = {}
                self._accepts_left = 1

            def swap_out(self, page):
                from repro.tiering.protocol import SwapOutcome

                if self._accepts_left <= 0:
                    return SwapOutcome(accepted=False, reason="pool-full")
                self._accepts_left -= 1
                self._held[page.vaddr] = page.data
                page.swapped = True
                page.data = None
                return SwapOutcome(accepted=True, compressed_len=PAGE_SIZE)

            def swap_in(self, page):
                data = self._held.pop(page.vaddr)
                page.swapped = False
                page.data = data
                return data

            promote = swap_in

            def invalidate(self, vaddr):
                return self._held.pop(vaddr, None) is not None

            def contains(self, vaddr):
                return vaddr in self._held

            def stored_pages(self):
                return len(self._held)

            def used_bytes(self):
                return len(self._held) * PAGE_SIZE

            def effective_bytes_freed(self):
                return 0

            def compact(self):
                return 0

            def swap_latency_s(self, direction):
                return 0.0

        spilled = {}
        pipeline = TierPipeline(
            [OneShotTier()],
            demotion=NeverDemote(),
            spill=lambda vaddr, data: spilled.update({vaddr: data}),
        )
        data = corpus_pages("json-records", 1, seed=15)[0]
        assert pipeline.store(3, data)
        # The only tier now refuses everything: demotion must spill.
        assert pipeline.demote_coldest(1, from_tier=0) == 0
        assert spilled == {3 * PAGE_SIZE: data}
        assert pipeline.pipeline_stats.spills == 1
        assert pipeline.pipeline_stats.demotion_failures == 1
        assert pipeline.stored_pages() == 0


class TestRoundTripUnderValidation:
    def test_store_demote_promote_load_bit_identical(self):
        """The acceptance property test, with invariant checkpoints
        firing on every mutating pipeline operation."""
        with run_context(validation=True):
            pipeline = _pipeline(
                demotion=LruDemotion(watermark_fraction=0.3)
            )
            originals = {}
            for key in range(30):
                data = (
                    _noise_page(key)
                    if key % 6 == 5
                    else corpus_pages("json-records", 1, seed=key)[0]
                )
                if pipeline.store(key, data):
                    originals[key] = data
            assert len(originals) == 30
            # Explicit demote + promote churn on top of the cascade.
            pipeline.demote_coldest(3, from_tier=0)
            for key in list(originals)[:5]:
                pipeline.promote_key(key)
            check_tier_pipeline(pipeline)
            for key, expect in originals.items():
                assert pipeline.load(key) == expect, f"key {key} corrupted"
            assert pipeline.stored_pages() == 0
            check_tier_pipeline(pipeline)

    def test_checker_rejects_corrupted_bookkeeping(self):
        pipeline = _pipeline(demotion=NeverDemote())
        pipeline.store(0, corpus_pages("json-records", 1)[0])
        vaddr = next(iter(pipeline._where))
        pipeline._where[vaddr] = 2  # lie: claim it lives in DFM
        with pytest.raises(AssertionError):
            check_tier_pipeline(pipeline)


class TestAccountingReconciliation:
    def test_merged_views(self):
        pipeline = _pipeline(demotion=NeverDemote())
        pages = corpus_pages("json-records", 6, seed=31)
        for key, data in enumerate(pages):
            pipeline.store(key, data)
        pipeline.demote_coldest(2, from_tier=0)
        merged_stats = pipeline.stats
        assert merged_stats.swap_outs == sum(
            tier.stats.swap_outs for tier in pipeline.tiers
        )
        assert pipeline.traffic.total_bytes == sum(
            tier.traffic.total_bytes for tier in pipeline.tiers
        )
        flat = pipeline.metrics_snapshot()
        assert any(key.startswith("tier_pipeline.") for key in flat)


class TestKeyedApiAndErrors:
    def test_restore_drops_stale_copy(self):
        pipeline = _pipeline(demotion=NeverDemote())
        first = corpus_pages("json-records", 1, seed=41)[0]
        second = corpus_pages("server-log", 1, seed=42)[0]
        assert pipeline.store(5, first)
        assert pipeline.store(5, second)
        assert pipeline.stored_pages() == 1
        assert pipeline.load(5) == second

    def test_load_unknown_key_is_none(self):
        assert _pipeline().load(99) is None

    def test_swap_in_unknown_page_raises(self):
        pipeline = _pipeline()
        with pytest.raises(SfmError):
            pipeline.swap_in(Page(vaddr=0x1000, data=None, swapped=True))

    def test_bad_page_size_rejected(self):
        with pytest.raises(ConfigError):
            _pipeline().store(0, b"short")

    def test_duplicate_tier_names_rejected(self):
        from repro.sfm.backend import SfmBackend

        with pytest.raises(ConfigError):
            TierPipeline(
                [
                    ("a", SfmBackend(capacity_bytes=8 * PAGE_SIZE)),
                    ("a", SfmBackend(capacity_bytes=8 * PAGE_SIZE)),
                ]
            )

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigError):
            TierPipeline([])


class TestPoolLimitPolicy:
    def test_matches_zswap_arithmetic(self):
        policy = PoolLimitPolicy(
            total_ram_bytes=100 * PAGE_SIZE, max_pool_percent=20
        )
        assert policy.limit_bytes() == 20 * PAGE_SIZE
        assert not policy.over_limit(20 * PAGE_SIZE - 1)
        assert policy.over_limit(20 * PAGE_SIZE)
        assert policy.needs_headroom(19 * PAGE_SIZE + 1, PAGE_SIZE)
        assert not policy.needs_headroom(19 * PAGE_SIZE, PAGE_SIZE)

    def test_validation(self):
        with pytest.raises(ConfigError):
            PoolLimitPolicy(total_ram_bytes=100 * PAGE_SIZE,
                            max_pool_percent=0)
        with pytest.raises(ConfigError):
            PoolLimitPolicy(total_ram_bytes=PAGE_SIZE - 1)

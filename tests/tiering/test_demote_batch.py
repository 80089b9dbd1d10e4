"""Demotion cascades in ``DEMOTE_BATCH_PAGES``-sized victim rounds, each
victim placed through the per-page store path."""

import pytest

from repro.core.backend import XfmBackend
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page
from repro.tiering.pipeline import DEMOTE_BATCH_PAGES, TierPipeline
from repro.workloads.corpus import corpus_pages

TOP_CAP = 16 * PAGE_SIZE
BOT_CAP = 512 * PAGE_SIZE


def _two_tier(top_cap=TOP_CAP, bottom=None):
    top = SfmBackend(capacity_bytes=top_cap, page_cache_entries=0)
    if bottom is None:
        bottom = SfmBackend(capacity_bytes=BOT_CAP, page_cache_entries=0)
    return TierPipeline([("cpu-zswap", top), ("xfm", bottom)])


def _fill(pipeline, n, seed=13):
    pages = corpus_pages("json-records", n, seed=seed)
    for i, data in enumerate(pages):
        assert pipeline.store(i, data)
    return pages


class TestDemoteColdest:
    def test_exact_count_across_multiple_batches(self):
        pipeline = _two_tier(top_cap=BOT_CAP)
        _fill(pipeline, 40)
        want = DEMOTE_BATCH_PAGES * 2 + 3  # forces 3 rounds
        assert pipeline.demote_coldest(count=want) == want
        assert pipeline.pipeline_stats.demotions == want

    def test_coldest_pages_go_first(self):
        pipeline = _two_tier(top_cap=BOT_CAP)
        _fill(pipeline, 12)
        pipeline.demote_coldest(count=5)
        # Keys were stored 0..11 in order, so 0..4 are the LRU victims.
        for key in range(5):
            assert pipeline.tier_of_key(key) == "xfm"
        for key in range(5, 12):
            assert pipeline.tier_of_key(key) == "cpu-zswap"

    def test_count_larger_than_resident_set(self):
        pipeline = _two_tier(top_cap=BOT_CAP)
        _fill(pipeline, 6)
        assert pipeline.demote_coldest(count=100) == 6

    def test_demoted_data_round_trips(self):
        pipeline = _two_tier(top_cap=BOT_CAP)
        pages = _fill(pipeline, 20)
        pipeline.demote_coldest(count=20)
        for key, data in enumerate(pages):
            assert pipeline.load(key) == data


class TestRebalanceBatching:
    def test_scalar_override_tier_still_accepts_batches(self):
        """XfmBackend overrides scalar swap_out, so its swap_out_batch
        defers — the cascade must still demote correctly through it."""
        bottom = XfmBackend(capacity_bytes=BOT_CAP)
        pipeline = _two_tier(top_cap=BOT_CAP, bottom=bottom)
        pages = _fill(pipeline, 10)
        assert pipeline.demote_coldest(count=10) == 10
        for key, data in enumerate(pages):
            assert pipeline.tier_of_key(key) == "xfm"
            assert pipeline.load(key) == data

    def test_demotion_matches_scalar_era_accounting(self):
        """Batched rounds keep stats self-consistent: every demotion is
        a page that left tier 0 and is resident in tier 1."""
        pipeline = _two_tier(top_cap=BOT_CAP)
        _fill(pipeline, 24)
        moved = pipeline.demote_coldest(count=17)
        assert moved == 17
        counts = {"cpu-zswap": 0, "xfm": 0}
        for key in range(24):
            counts[pipeline.tier_of_key(key)] += 1
        assert counts == {"cpu-zswap": 7, "xfm": 17}


class TestBatchConstant:
    def test_demote_batch_size_is_sane(self):
        # The cascade's policy re-check granularity: > 1 or the batching
        # is vacuous, bounded so policy reaction lag stays small.
        assert 2 <= DEMOTE_BATCH_PAGES <= 64


class TestRoundTrace:
    def test_tier_store_instants_carry_each_pages_own_time(self):
        """Inside one round, each victim's ``tier_store`` instant is
        stamped when the receiving tier took that page, not when the
        round ended. The receiving ``SfmBackend`` charges every store as
        a ``cpu_compress`` span and advances the clock by its duration,
        so the clock right after a page's store is the span's end."""
        from repro.telemetry.session import TelemetrySession

        pipeline = _two_tier(top_cap=BOT_CAP)
        _fill(pipeline, DEMOTE_BATCH_PAGES)
        session = TelemetrySession()
        with session:
            moved = pipeline.demote_coldest(count=DEMOTE_BATCH_PAGES)
        assert moved == DEMOTE_BATCH_PAGES
        events = session.ring.events()
        stored_at = [
            e.ts_ns + e.dur_ns for e in events if e.name == "cpu_compress"
        ]
        stamps = [
            e.ts_ns for e in events
            if e.name == "tier_store" and e.args["outcome"] == "stored"
        ]
        assert len(stamps) == DEMOTE_BATCH_PAGES
        assert stamps == pytest.approx(stored_at, abs=1e-3)  # fs clock
        assert all(a < b for a, b in zip(stamps, stamps[1:]))

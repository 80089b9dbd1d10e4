"""TraceRecorder: transparent protocol shim + faithful event capture."""

import pytest

from repro.scenarios.format import (
    OP_INVALIDATE,
    OP_LOAD,
    OP_PROMOTE,
    OP_STORE,
    ORIGIN_UPWARD,
    digest_hex,
)
from repro.scenarios.recorder import TraceRecorder
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page
from repro.sim import CLOCK
from repro.tiering.pipeline import TierPipeline
from repro.tiering.protocol import FarMemoryTier
from repro.workloads.corpus import corpus_pages


@pytest.fixture()
def recorder():
    return TraceRecorder(
        SfmBackend(capacity_bytes=64 * PAGE_SIZE), name="unit", seed=9
    )


@pytest.fixture()
def pages():
    return corpus_pages("json-records", 6, seed=9)


class TestProtocolShim:
    def test_recorder_satisfies_the_protocol(self, recorder):
        assert isinstance(recorder, FarMemoryTier)

    def test_passthrough_surfaces(self, recorder, pages):
        page = Page(vaddr=0x1000, data=pages[0])
        assert recorder.swap_out(page).accepted
        assert recorder.contains(0x1000)
        assert recorder.stored_pages() == 1
        assert recorder.used_bytes() > 0
        assert recorder.capacity_bytes == 64 * PAGE_SIZE
        assert recorder.tier_name == recorder.inner.tier_name
        assert recorder.stats is recorder.inner.stats
        assert recorder.traffic is recorder.inner.traffic
        assert recorder.swap_latency_s("in") > 0
        # Non-protocol attributes pass through un-recorded.
        assert recorder.zpool is recorder.inner.zpool

    def test_meta_carries_recording_origin(self, recorder):
        assert recorder.trace.meta["recorded_from"] == (
            recorder.inner.tier_name
        )


class TestEventCapture:
    def test_roundtrip_records_store_and_load(self, recorder, pages):
        page = Page(vaddr=0x2000, data=pages[1])
        recorder.swap_out(page)
        data = recorder.swap_in(Page(vaddr=0x2000, swapped=True))
        assert data == pages[1]
        ops = [e.op for e in recorder.trace]
        assert ops == [OP_STORE, OP_LOAD]
        store, load = recorder.trace.events
        assert store.digest == load.digest == digest_hex(pages[1])
        assert store.origin == "accepted"
        assert store.compressed_len > 0
        assert load.origin == "demand"
        assert recorder.trace.page_for(store.digest) == pages[1]

    def test_prefetch_promote_is_tagged(self, recorder, pages):
        recorder.swap_out(Page(vaddr=0x3000, data=pages[2]))
        recorder.promote(Page(vaddr=0x3000, swapped=True))
        assert recorder.trace.events[-1].op == OP_LOAD
        assert recorder.trace.events[-1].origin == "prefetch"

    def test_rejected_store_is_recorded_with_reason(self, pages):
        tiny = TraceRecorder(SfmBackend(capacity_bytes=PAGE_SIZE))
        noise = corpus_pages("random-bytes", 1, seed=2)[0]
        outcome = tiny.swap_out(Page(vaddr=0, data=noise))
        assert not outcome.accepted
        event = tiny.trace.events[-1]
        assert event.op == OP_STORE
        assert event.origin.startswith("reject:")

    def test_invalidate_recorded_only_when_dropped(self, recorder, pages):
        recorder.swap_out(Page(vaddr=0x4000, data=pages[3]))
        assert recorder.invalidate(0x4000)
        assert not recorder.invalidate(0x4000)  # second drop is a no-op
        invalidates = [
            e for e in recorder.trace if e.op == OP_INVALIDATE
        ]
        assert len(invalidates) == 1

    def test_timestamps_strictly_increase_without_a_clock(
        self, recorder, pages
    ):
        CLOCK.set_ns(0.0)  # parked clock: recorder self-advances
        for index, data in enumerate(pages):
            recorder.swap_out(Page(vaddr=index * PAGE_SIZE, data=data))
        times = [e.t_ns for e in recorder.trace]
        assert times == sorted(times)
        assert len(set(times)) == len(times)


class TestKeyedApiCapture:
    @pytest.fixture()
    def piped(self):
        pipeline = TierPipeline.build(
            cpu_capacity_bytes=8 * PAGE_SIZE,
            xfm_capacity_bytes=8 * PAGE_SIZE,
            dfm_capacity_bytes=64 * PAGE_SIZE,
        )
        return TraceRecorder(pipeline, name="keyed")

    def test_keyed_store_load_promote(self, piped, pages):
        assert piped.store(0, pages[0])
        assert piped.store(1, pages[1])
        assert piped.promote_key(1) is not None
        assert piped.load(0) == pages[0]
        assert piped.load(99) is None  # never stored: not recorded
        ops = [(e.op, e.origin) for e in piped.trace]
        assert ops == [
            (OP_STORE, "accepted"),
            (OP_STORE, "accepted"),
            (OP_PROMOTE, ORIGIN_UPWARD),
            (OP_LOAD, "demand"),
        ]
        # Upward promotes carry the digest of the stored content.
        promote = piped.trace.events[2]
        assert promote.digest == digest_hex(pages[1])
        assert promote.vaddr == 1 * PAGE_SIZE

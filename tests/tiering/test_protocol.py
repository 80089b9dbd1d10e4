"""FarMemoryTier protocol conformance across every backend.

The tentpole contract: all four concrete backends and the composite
pipeline satisfy :class:`repro.tiering.protocol.FarMemoryTier`, the
``SwapOutcome`` import paths collapse to one class, the DFM backend's
counters reach registry export, and every tier kind's traffic
reconciles with its byte counters.
"""

import pytest

from repro.core.backend import XfmBackend
from repro.dfm.backend import DfmBackend
from repro.sfm.backend import SfmBackend
from repro.sfm.metrics import TrafficStats
from repro.sfm.page import PAGE_SIZE, Page
from repro.telemetry.registry import MetricsRegistry
from repro.tiering.pipeline import TierPipeline
from repro.tiering.protocol import FarMemoryTier, SwapOutcome
from repro.workloads.corpus import corpus_pages

TIERS = {
    "cpu": lambda **kw: SfmBackend(capacity_bytes=128 * PAGE_SIZE, **kw),
    "xfm": lambda **kw: XfmBackend(capacity_bytes=128 * PAGE_SIZE, **kw),
    "xfm-mc": lambda **kw: XfmBackend(
        capacity_bytes=128 * PAGE_SIZE, num_dimms=4, **kw
    ),
    "dfm": lambda **kw: DfmBackend(capacity_bytes=128 * PAGE_SIZE, **kw),
}


@pytest.mark.parametrize("tier", list(TIERS), ids=list(TIERS))
class TestConformance:
    def test_isinstance(self, tier):
        assert isinstance(TIERS[tier](), FarMemoryTier)

    def test_surface_roundtrip(self, tier):
        backend = TIERS[tier]()
        page = Page(vaddr=0x4000, data=corpus_pages("json-records", 1)[0])
        data = page.data
        outcome = backend.swap_out(page)
        assert isinstance(outcome, SwapOutcome)
        assert outcome.accepted
        assert backend.contains(0x4000)
        assert backend.stored_pages() == 1
        assert backend.used_bytes() > 0
        assert backend.swap_in(page) == data
        assert not backend.contains(0x4000)
        assert backend.stored_pages() == 0

    def test_promote_returns_data(self, tier):
        backend = TIERS[tier]()
        page = Page(vaddr=0x8000, data=corpus_pages("server-log", 1)[0])
        data = page.data
        assert backend.swap_out(page).accepted
        assert backend.promote(page) == data
        assert not backend.contains(0x8000)

    def test_invalidate_frees_without_load(self, tier):
        backend = TIERS[tier]()
        page = Page(vaddr=0xC000, data=corpus_pages("json-records", 1)[0])
        assert backend.swap_out(page).accepted
        used = backend.used_bytes()
        assert backend.invalidate(0xC000)
        assert not backend.contains(0xC000)
        assert backend.stored_pages() == 0
        assert backend.used_bytes() < used or used == 0
        # Second invalidate of the same vaddr is a no-op, not an error.
        assert not backend.invalidate(0xC000)
        # A load after invalidate cannot resurrect the page.
        assert backend.stats.swap_ins == 0

    def test_tier_label_separates_shared_registry(self, tier):
        registry = MetricsRegistry()
        backend = TIERS[tier](registry=registry, tier=f"{tier}-a")
        page = Page(vaddr=0, data=corpus_pages("json-records", 1)[0])
        assert backend.swap_out(page).accepted
        snapshot = registry.snapshot()
        key = f"swap.swap_outs{{tier={tier}-a}}"
        assert snapshot[key] == 1


class TestSwapOutcomeUnification:
    def test_single_class_across_import_paths(self):
        from repro.core import backend as core_backend
        from repro.dfm import backend as dfm_backend
        from repro.sfm import backend as sfm_backend
        from repro.tiering import protocol

        assert sfm_backend.SwapOutcome is protocol.SwapOutcome
        assert core_backend.SwapOutcome is protocol.SwapOutcome
        assert dfm_backend.SwapOutcome is protocol.SwapOutcome

    def test_ratio_property(self):
        outcome = SwapOutcome(accepted=True, compressed_len=PAGE_SIZE // 4)
        assert outcome.ratio == 4.0
        assert SwapOutcome(accepted=False).ratio == 0.0


class TestDfmRegistryBugfix:
    """DfmBackend counters historically never reached MetricsRegistry."""

    def test_counters_and_link_accounting_exported(self):
        registry = MetricsRegistry()
        backend = DfmBackend(capacity_bytes=16 * PAGE_SIZE, registry=registry)
        page = Page(vaddr=0, data=b"\xAB" * PAGE_SIZE)
        assert backend.swap_out(page).accepted
        assert backend.swap_in(page) == b"\xAB" * PAGE_SIZE
        snapshot = registry.snapshot()
        assert snapshot["swap.swap_outs{tier=dfm}"] == 1
        assert snapshot["swap.swap_ins{tier=dfm}"] == 1
        assert snapshot["dfm.link_energy_j{tier=dfm}"] > 0
        assert snapshot["dfm.link_busy_s{tier=dfm}"] > 0
        # The registry reads the link fields live, augmented assignment
        # included.
        link = backend.link_stats
        assert link.link_energy_j == snapshot["dfm.link_energy_j{tier=dfm}"]
        link.link_energy_j += 1.0
        assert registry.snapshot()["dfm.link_energy_j{tier=dfm}"] == (
            snapshot["dfm.link_energy_j{tier=dfm}"] + 1.0
        )

    def test_default_registry_is_private_but_present(self):
        backend = DfmBackend(capacity_bytes=16 * PAGE_SIZE)
        page = Page(vaddr=0, data=b"\x11" * PAGE_SIZE)
        backend.swap_out(page)
        assert backend.registry.snapshot()["swap.swap_outs{tier=dfm}"] == 1


#: Every tier kind: the four backends, the composite pipeline and the
#: recorder that wraps a tier.
KINDS = [*TIERS, "pipeline", "recorder"]


def _make(kind):
    from repro.scenarios.recorder import TraceRecorder

    if kind == "pipeline":
        return TierPipeline.build(
            cpu_capacity_bytes=32 * PAGE_SIZE,
            xfm_capacity_bytes=32 * PAGE_SIZE,
            dfm_capacity_bytes=32 * PAGE_SIZE,
        )
    if kind == "recorder":
        return TraceRecorder(TIERS["xfm-mc"](), name="unit", seed=1)
    return TIERS[kind]()


@pytest.mark.parametrize("tier", KINDS)
def test_accounting_and_maintenance_members(tier):
    """The protocol members no campaign calls on every tier kind: what a
    stored page wins back, compaction, and the modeled swap latency."""
    backend = _make(tier)
    pages = corpus_pages("json-records", 16)
    for index, data in enumerate(pages):
        page = Page(vaddr=index * PAGE_SIZE, data=data)
        assert backend.swap_out(page).accepted
    # Sixteen compressible pages outgrow the pool's slab granularity.
    assert 0 < backend.effective_bytes_freed() <= len(pages) * PAGE_SIZE
    assert backend.compact() >= 0
    assert backend.swap_latency_s("in") > 0
    assert backend.swap_latency_s("out") > 0


def _counted_traffic(tier):
    """(read, write) bytes that a concrete tier's byte counters account
    for, compaction aside."""
    stats = tier.stats
    if isinstance(tier, DfmBackend):
        # One link crossing per page: out on a store, back on a load.
        return stats.bytes_out_uncompressed, stats.bytes_in_uncompressed
    # A compressed tier reads the page and writes its blob on a store,
    # and the reverse on a load. A rejected store has read what it
    # compressed: the page, or on several DIMMs the first stripe (a
    # random page's first stripe is already incompressible).
    reject_read = PAGE_SIZE // len(getattr(tier, "nmas", [tier]))
    return (
        stats.bytes_out_uncompressed
        + stats.bytes_in_compressed
        + stats.rejected * reject_read,
        stats.bytes_out_compressed + stats.bytes_in_uncompressed,
    )


@pytest.mark.parametrize("kind", KINDS)
def test_traffic_reconciles_with_byte_counters(kind):
    """Every byte of ``traffic`` is a byte the swap counters moved:
    stores, rejected stores, demand loads, prefetches and compaction, on
    every tier kind; channel and on-DIMM traffic stay apart, and the
    registry exports the same fields."""
    backend = _make(kind)
    inner = getattr(backend, "inner", backend)
    tiers = inner.tiers if kind == "pipeline" else [inner]
    data = corpus_pages("json-records", 40, seed=5)
    data += corpus_pages("random-bytes", 4, seed=5)
    pages = [Page(vaddr=i * PAGE_SIZE, data=d) for i, d in enumerate(data)]
    for page in pages:
        backend.swap_out(page)
    stored = [page for page in pages if page.swapped]
    for page in stored[:6]:
        backend.swap_in(page)
    for page in stored[6:10]:
        backend.promote(page)
    for page in stored[10::2]:
        assert backend.invalidate(page.vaddr)
    stats = backend.stats
    assert stats.swap_ins == 10
    assert stats.rejected > 0 or kind == "dfm"

    for tier in tiers:
        traffic = tier.traffic
        assert (
            traffic.channel_read_bytes + traffic.nma_read_bytes,
            traffic.channel_write_bytes + traffic.nma_write_bytes,
        ) == _counted_traffic(tier), tier.tier_name
        # Only an accelerator moves bytes on the DIMM.
        assert (traffic.nma_bytes > 0) == hasattr(tier, "nmas")
        assert traffic.total_bytes == traffic.channel_bytes + traffic.nma_bytes
        for name, value in traffic.as_dict().items():
            exported = [
                count
                for key, count in tier.registry.snapshot().items()
                if key.split("{")[0] == f"swap.{name}"
                and (kind != "pipeline" or f"tier={tier.tier_name}" in key)
            ]
            assert exported == [value], (tier.tier_name, name)

    before = backend.traffic.as_dict()
    assert before == TrafficStats.merged(
        [tier.traffic for tier in tiers]
    ).as_dict()
    # Compaction memcpys cross the channel once each way.
    moved = backend.compact()
    assert moved > 0 or kind == "dfm"
    after = backend.traffic.as_dict()
    assert after == {
        **before,
        "channel_read_bytes": before["channel_read_bytes"] + moved,
        "channel_write_bytes": before["channel_write_bytes"] + moved,
    }


def test_pipeline_is_a_tier():
    pipeline = TierPipeline.build(
        cpu_capacity_bytes=32 * PAGE_SIZE,
        xfm_capacity_bytes=32 * PAGE_SIZE,
        dfm_capacity_bytes=32 * PAGE_SIZE,
    )
    assert isinstance(pipeline, FarMemoryTier)
    assert pipeline.capacity_bytes == 96 * PAGE_SIZE
    assert pipeline.tier_names == ["cpu-zswap", "xfm", "dfm"]

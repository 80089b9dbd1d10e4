"""Multi-DIMM XFM system tests (functional multi-channel mode)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nma import NmaConfig
from repro.core.system import MultiChannelXfmBackend, XfmDimm
from repro.errors import ConfigError, SfmError
from repro.resilience import faults
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sfm.page import PAGE_SIZE, Page
from repro.sim.context import run_context
from repro.workloads.corpus import corpus_pages


def _pages(buffers):
    return [
        Page(vaddr=i * PAGE_SIZE, data=d) for i, d in enumerate(buffers)
    ]


@pytest.fixture
def backend():
    return MultiChannelXfmBackend(
        capacity_bytes=128 * PAGE_SIZE, num_dimms=4
    )


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
            assert backend.swap_in(page, do_offload=True) == original
        assert backend.stats.offloaded_decompressions == 4 * len(pages)

    def test_segments_land_on_every_dimm(self, backend, json_pages):
        backend.swap_out(_pages(json_pages)[0])
        for dimm in backend.dimms:
            assert dimm.region.stored_bytes() > 0

    def test_same_offset_fragmentation_tracked(self, backend, json_pages):
        page = _pages(json_pages)[0]
        backend.swap_out(page)
        assert backend.fragmentation_bytes >= 0
        backend.swap_in(page)
        assert backend.fragmentation_bytes == 0

    def test_incompressible_rejected(self, backend, random_pages):
        outcome = backend.swap_out(_pages(random_pages)[0])
        assert not outcome.accepted
        assert outcome.reason == "incompressible"
        for dimm in backend.dimms:
            assert dimm.region.stored_bytes() == 0

    def test_pool_full_rolls_back_all_dimms(self, json_pages):
        backend = MultiChannelXfmBackend(
            capacity_bytes=4 * PAGE_SIZE, num_dimms=4
        )
        pages = _pages(corpus_pages("json-records", 16, seed=31))
        reasons = [backend.swap_out(p).reason for p in pages]
        assert "pool-full" in reasons
        # No partial stripes: every DIMM holds the same entry count.
        counts = {len(d.region) for d in backend.dimms}
        assert len(counts) == 1

    def test_offload_keeps_channel_clean(self, backend, json_pages):
        backend.swap_out(_pages(json_pages)[0])
        assert backend.ledger.channel_bytes() == 0
        assert backend.ledger.total("nma") > 0

    def test_cpu_gather_path_charges_channel(self, backend, json_pages):
        page = _pages(json_pages)[0]
        backend.swap_out(page)
        backend.swap_in(page)  # default CPU gather-decompress
        assert backend.ledger.channel_bytes() > 0
        assert backend.stats.cpu_fallback_decompressions == 4


#: Compressible and incompressible pages for swap-out sequences.
_POOL = corpus_pages("json-records", 4, seed=31) + corpus_pages(
    "random-bytes", 1, seed=31
)


@settings(max_examples=20)
@given(
    st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=12),
    st.integers(0, 2**16),
    st.sampled_from([0.2, 0.5, 1.0]),
)
def test_nma_timeouts_leave_no_spm_reserved(sequence, seed, probability):
    """A stripe whose NMA times out falls back to the CPU, and its SPM
    reservation goes back to the DIMM's driver like any other's."""
    backend = MultiChannelXfmBackend(capacity_bytes=64 * PAGE_SIZE)
    plan = FaultPlan(
        seed=seed,
        specs=(FaultSpec(faults.NMA_TIMEOUT, probability=probability),),
    )
    with run_context(injector=FaultInjector(plan)):
        for vaddr, index in enumerate(sequence):
            backend.swap_out(Page(vaddr=vaddr * PAGE_SIZE, data=_POOL[index]))
    assert [dimm.driver._inferred_spm_used for dimm in backend.dimms] == [
        0
    ] * backend.num_dimms


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
            MultiChannelXfmBackend(capacity_bytes=PAGE_SIZE, num_dimms=0)
        with pytest.raises(ConfigError):
            MultiChannelXfmBackend(capacity_bytes=PAGE_SIZE + 1, num_dimms=2)


class TestAccounting:
    def test_effective_ratio_below_single_dimm(self, json_pages):
        """Striping + same-offset placement costs ratio vs 1-DIMM mode."""
        single = MultiChannelXfmBackend(
            capacity_bytes=128 * PAGE_SIZE, num_dimms=1
        )
        quad = MultiChannelXfmBackend(
            capacity_bytes=128 * PAGE_SIZE, num_dimms=4
        )
        for p in _pages(json_pages):
            single.swap_out(p)
        for p in _pages(json_pages):
            quad.swap_out(p)
        assert single.effective_ratio() >= quad.effective_ratio() > 1.0

    def test_per_dimm_occupancy(self, backend, json_pages):
        for p in _pages(json_pages):
            backend.swap_out(p)
        occupancy = backend.per_dimm_occupancy()
        assert set(occupancy) == {0, 1, 2, 3}
        assert all(0 < v <= 1 for v in occupancy.values())

    def test_compact_runs_on_all_dimms(self, backend, json_pages):
        pages = _pages(corpus_pages("json-records", 12, seed=37))
        for p in pages:
            backend.swap_out(p)
        for p in pages[::2]:
            backend.swap_in(p)
        assert backend.compact() >= 0

    def test_dimm_regions_isolated(self, backend):
        assert backend.capacity_bytes == 128 * PAGE_SIZE
        assert backend.dimms[0].region is not backend.dimms[1].region

    def test_dimm_builder(self):
        from repro.compression.deflate import DeflateCodec

        dimm = XfmDimm.build(
            index=2,
            region_bytes=8 * PAGE_SIZE,
            nma_config=NmaConfig(),
            codec=DeflateCodec(window_size=1024),
        )
        assert dimm.driver.sfm_region == (2 << 40, 8 * PAGE_SIZE)

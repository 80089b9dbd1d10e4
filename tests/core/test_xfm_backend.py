"""XFM backend tests: offload paths, fallbacks, drop-in behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import XfmBackend
from repro.core.nma import NearMemoryAccelerator, NmaConfig
from repro.core.registers import Registers
from repro.errors import CorruptedBlobError
from repro.resilience.chaos import TRANSIENT_PROFILE
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page
from repro.sim.context import run_context
from repro.workloads.corpus import corpus_pages


def _pages(buffers):
    return [
        Page(vaddr=i * PAGE_SIZE, data=data) for i, data in enumerate(buffers)
    ]


@pytest.fixture
def backend():
    return XfmBackend(capacity_bytes=32 * PAGE_SIZE)


class TestOffloadedSwapOut:
    def test_content_round_trip(self, backend, json_pages):
        pages = _pages(json_pages)
        for page, original in zip(pages, json_pages):
            assert backend.xfm_swap_out(page).accepted
            assert page.swapped
        for page, original in zip(pages, json_pages):
            assert backend.xfm_swap_in(page) == original

    def test_no_cpu_cycles_charged(self, backend, json_pages):
        backend.xfm_swap_out(_pages(json_pages)[0])
        assert backend.stats.cpu_compress_cycles == 0.0
        assert backend.stats.offloaded_compressions == 1

    def test_no_channel_traffic_for_offload(self, backend, json_pages):
        """The headline property: offloaded swaps never touch the DDR
        channel (Fig. 1 / Fig. 11)."""
        backend.xfm_swap_out(_pages(json_pages)[0])
        assert backend.traffic.channel_bytes == 0
        assert backend.traffic.nma_bytes > 0

    def test_spm_left_empty_after_ops(self, backend, json_pages):
        for page in _pages(json_pages):
            backend.xfm_swap_out(page)
        assert backend.nmas[0].spm.used_bytes == 0

    def test_incompressible_rejected_without_storing(self, backend, random_pages):
        page = _pages(random_pages)[0]
        outcome = backend.xfm_swap_out(page)
        assert not outcome.accepted
        assert outcome.reason == "incompressible"
        assert backend.nmas[0].spm.used_bytes == 0

    def test_pool_full_rejected(self, json_pages):
        backend = XfmBackend(capacity_bytes=PAGE_SIZE)
        reasons = [
            backend.xfm_swap_out(p).reason for p in _pages(json_pages * 3)
        ]
        assert "pool-full" in reasons


class TestCpuFallback:
    def test_queue_exhaustion_falls_back_to_cpu(self, json_pages):
        nma = NearMemoryAccelerator(NmaConfig(crq_depth=1))
        backend = XfmBackend(capacity_bytes=32 * PAGE_SIZE, nma=nma)
        # Occupy the only CRQ slot so the next submit fails.
        nma.submit(True, 0, None, PAGE_SIZE)
        page = _pages(json_pages)[0]
        outcome = backend.xfm_swap_out(page)
        assert outcome.accepted
        assert backend.stats.cpu_fallback_compressions == 1
        assert backend.stats.cpu_compress_cycles > 0
        assert backend.traffic.channel_bytes > 0

    def test_spm_exhaustion_falls_back(self, json_pages):
        nma = NearMemoryAccelerator(NmaConfig(spm_bytes=PAGE_SIZE))
        backend = XfmBackend(capacity_bytes=32 * PAGE_SIZE, nma=nma)
        # Fill the SPM through the device path so the capacity register
        # reflects the occupancy the driver's sync read will see.
        staged = nma.submit(True, 0, None, PAGE_SIZE)
        nma.pop_request()
        nma.stage_input(staged)
        backend.drivers[0]._inferred_spm_used = PAGE_SIZE
        page = _pages(json_pages)[0]
        outcome = backend.xfm_swap_out(page)
        assert outcome.accepted
        assert backend.stats.cpu_fallback_compressions == 1

    def test_prefetch_queue_exhaustion_falls_back_to_cpu(self, json_pages):
        nma = NearMemoryAccelerator(NmaConfig(crq_depth=1))
        backend = XfmBackend(capacity_bytes=32 * PAGE_SIZE, nma=nma)
        page = _pages(json_pages)[0]
        assert backend.xfm_swap_out(page).accepted
        nma.submit(True, 0, None, PAGE_SIZE)
        assert backend.xfm_swap_in(page, do_offload=True) == json_pages[0]
        assert backend.stats.cpu_fallback_decompressions == 1
        assert backend.stats.fallbacks_queue_full == 1
        assert backend.stats.offloaded_decompressions == 0
        assert not backend.contains(page.vaddr)


class TestSwapInPolicy:
    def test_default_swap_in_uses_cpu(self, backend, json_pages):
        """§6: CPU_Fallback is the default for swap-ins (fault latency)."""
        page = _pages(json_pages)[0]
        backend.xfm_swap_out(page)
        before = backend.traffic.channel_bytes
        backend.xfm_swap_in(page)
        assert backend.stats.cpu_fallback_decompressions == 1
        assert backend.traffic.channel_bytes > before

    def test_prefetch_swap_in_offloads(self, backend, json_pages):
        page = _pages(json_pages)[0]
        backend.xfm_swap_out(page)
        before = backend.traffic.channel_bytes
        data = backend.xfm_swap_in(page, do_offload=True)
        assert data == json_pages[0]
        assert backend.stats.offloaded_decompressions == 1
        assert backend.traffic.channel_bytes == before


class TestDropInCompatibility:
    def test_is_an_sfm_backend(self, backend):
        assert isinstance(backend, SfmBackend)

    def test_baseline_api_routes_through_nma(self, backend, json_pages):
        page = _pages(json_pages)[0]
        backend.swap_out(page)
        assert backend.stats.offloaded_compressions == 1
        assert backend.swap_in(page) == json_pages[0]

    def test_xfm_compact(self, backend, json_pages):
        pages = _pages(json_pages)
        for page in pages:
            backend.xfm_swap_out(page)
        backend.xfm_swap_in(pages[1])
        assert backend.xfm_compact() >= 0

    def test_driver_region_configured(self, backend):
        registers = backend.nmas[0].registers
        assert registers[Registers.SFM_BASE] == 0
        assert registers[Registers.SFM_SIZE] == backend.capacity_bytes


#: Compressible and incompressible pages for swap sequences.
_POOL = corpus_pages("json-records", 4, seed=31) + corpus_pages(
    "random-bytes", 1, seed=31
)


@settings(max_examples=30)
@given(
    st.sampled_from([1, 4]),
    st.lists(
        st.tuples(
            st.sampled_from(["swap_out", "swap_in", "promote"]),
            st.integers(0, 7),
            st.integers(0, len(_POOL) - 1),
        ),
        min_size=1,
        max_size=24,
    ),
    st.integers(0, 2**16),
    st.sampled_from([1.0, 5.0, 20.0]),
)
def test_faults_leave_no_spm_reserved(num_dimms, ops, seed, scale):
    """Whatever the transient profile injects — lost doorbells, stalled
    engines, SPM read flips, forced SPM/queue exhaustion — every stripe
    returns its SPM reservation to its DIMM's driver and NMA, and a page
    that comes back is byte-exact. (Scaled up, a pool read corruption
    can outlast its re-reads: the page is poisoned and reported.)"""
    backend = XfmBackend(capacity_bytes=64 * PAGE_SIZE, num_dimms=num_dimms)
    plan = FaultPlan(
        seed=seed,
        specs=tuple(
            FaultSpec(
                spec.site,
                probability=min(1.0, spec.probability * scale),
                magnitude=spec.magnitude,
            )
            for spec in TRANSIENT_PROFILE
        ),
    )
    held = {}
    with run_context(injector=FaultInjector(plan)):
        for op, slot, index in ops:
            vaddr = slot * PAGE_SIZE
            if op == "swap_out":
                if vaddr in held:
                    continue
                page = Page(vaddr=vaddr, data=_POOL[index])
                if backend.swap_out(page).accepted:
                    held[vaddr] = _POOL[index]
            elif vaddr in held:
                page = Page(vaddr=vaddr, swapped=True)
                expected = held.pop(vaddr)
                try:
                    assert getattr(backend, op)(page) == expected
                except CorruptedBlobError:
                    assert not backend.contains(vaddr)
    for nma, driver in zip(backend.nmas, backend.drivers):
        assert driver._inferred_spm_used == 0
        assert nma.spm.used_bytes == 0

"""Verified recovery: injected corruption is healed or surfaced loudly."""

import pytest

from repro.core.backend import XfmBackend
from repro.dfm.backend import DfmBackend
from repro.errors import (
    CorruptedBlobError,
    DeviceFault,
    TierUnavailableError,
)
from repro.resilience import faults
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page
from repro.sim.context import run_context


def _compressible(index: int = 0) -> bytes:
    unit = bytes([(index * 7 + j) % 13 for j in range(64)])
    return (unit * (PAGE_SIZE // len(unit)))[:PAGE_SIZE]


def _plan(site: str, **kwargs) -> FaultPlan:
    return FaultPlan(seed=1, specs=(FaultSpec(site, **kwargs),))


class TestZpoolCorruption:
    def test_transient_read_corruption_recovered(self):
        """A corrupted *copy* (media intact) fails the digest check and
        is healed by re-reading — the caller sees correct bytes."""
        backend = SfmBackend(capacity_bytes=64 * PAGE_SIZE)
        page = Page(vaddr=0x1000, data=_compressible())
        assert backend.swap_out(page).accepted
        plan = _plan(
            faults.ZPOOL_READ_CORRUPTION, probability=1.0, max_fires=1
        )
        with run_context(injector=FaultInjector(plan)):
            data = backend.swap_in(page)
        assert data == _compressible()
        assert backend.stats.corruptions_detected == 1
        assert backend.stats.corruptions_recovered == 1
        assert backend.stats.poison_pages == 0

    def test_persistent_media_corruption_poisons(self):
        """A corrupted *slab* cannot be healed: the page is poisoned and
        the caller gets an explicit CorruptedBlobError — never silent
        wrong bytes."""
        backend = SfmBackend(capacity_bytes=64 * PAGE_SIZE)
        page = Page(vaddr=0x2000, data=_compressible())
        assert backend.swap_out(page).accepted
        plan = _plan(
            faults.ZPOOL_MEDIA_CORRUPTION, probability=1.0, max_fires=1
        )
        with run_context(injector=FaultInjector(plan)):
            with pytest.raises(CorruptedBlobError) as excinfo:
                backend.swap_in(page)
        assert excinfo.value.vaddr == 0x2000
        assert backend.stats.poison_pages == 1
        assert backend.stats.corruptions_detected >= 1
        # The poisoned entry is gone: its pool space was reclaimed.
        assert not backend.contains(0x2000)


class TestSpmReadbackVerification:
    def test_spm_flip_on_swap_out_recovered(self):
        """A bit flip observed reading the staged blob back fails the
        digest check; the re-read heals it and the stored blob is the
        true one (loss-free: the source data still exists)."""
        backend = XfmBackend(capacity_bytes=64 * PAGE_SIZE)
        page = Page(vaddr=0x3000, data=_compressible(1))
        plan = _plan(faults.SPM_READ_FLIP, probability=1.0, max_fires=1)
        with run_context(injector=FaultInjector(plan)):
            assert backend.swap_out(page).accepted
        assert backend.stats.corruptions_detected >= 1
        assert backend.stats.corruptions_recovered >= 1
        assert backend.swap_in(page) == _compressible(1)

    def test_spm_flip_on_promote_recovered(self):
        """Prefetch promotion decompresses on the NMA and stages the
        page in SPM; a flip on the staged readback is verified away."""
        backend = XfmBackend(capacity_bytes=64 * PAGE_SIZE)
        page = Page(vaddr=0x4000, data=_compressible(2))
        assert backend.swap_out(page).accepted
        plan = _plan(faults.SPM_READ_FLIP, probability=1.0, max_fires=1)
        with run_context(injector=FaultInjector(plan)):
            assert backend.promote(page) == _compressible(2)
        assert backend.stats.corruptions_detected >= 1
        assert backend.stats.corruptions_recovered >= 1


class TestNmaAndDriverFaults:
    def test_nma_timeout_exhaustion_falls_back_to_cpu(self):
        """Persistent accelerator stalls degrade to the CPU path with
        the device_fault reason — data is never lost."""
        backend = XfmBackend(capacity_bytes=64 * PAGE_SIZE)
        page = Page(vaddr=0x5000, data=_compressible(3))
        plan = _plan(faults.NMA_TIMEOUT, probability=1.0)
        with run_context(injector=FaultInjector(plan)):
            assert backend.swap_out(page).accepted
        assert backend.stats.fallbacks_device_fault >= 1
        assert backend.stats.device_faults >= 1
        assert backend.stats.cpu_fallback_compressions >= 1
        assert backend.swap_in(page) == _compressible(3)

    def test_lost_doorbell_exhaustion_falls_back(self):
        backend = XfmBackend(capacity_bytes=64 * PAGE_SIZE)
        page = Page(vaddr=0x6000, data=_compressible(4))
        plan = _plan(faults.DRIVER_LOST_DOORBELL, probability=1.0)
        with run_context(injector=FaultInjector(plan)):
            assert backend.swap_out(page).accepted
        assert backend.stats.fallbacks_device_fault >= 1
        assert backend.swap_in(page) == _compressible(4)

    def test_register_corruption_detected_and_reread(self):
        """A corrupted MMIO read is implausible by construction; the
        driver detects it, re-reads once, and proceeds."""
        backend = XfmBackend(capacity_bytes=64 * PAGE_SIZE)
        plan = _plan(
            faults.DRIVER_REG_CORRUPTION, probability=1.0, max_fires=1
        )
        with run_context(injector=FaultInjector(plan)):
            capacity = backend.drivers[0].sp_capacity()
        assert capacity == backend.nmas[0].spm.capacity_bytes
        assert backend.drivers[0].stats.corrupt_register_reads == 1
        assert backend.drivers[0].stats.device_faults == 0

    def test_register_corruption_persistent_raises_device_fault(self):
        backend = XfmBackend(capacity_bytes=64 * PAGE_SIZE)
        plan = _plan(faults.DRIVER_REG_CORRUPTION, probability=1.0)
        with run_context(injector=FaultInjector(plan)):
            with pytest.raises(DeviceFault):
                backend.drivers[0].sp_capacity()
        assert backend.drivers[0].stats.device_faults == 1


class TestDfmLinkErrors:
    def test_store_link_exhaustion_rejects_without_loss(self):
        backend = DfmBackend(capacity_bytes=64 * PAGE_SIZE)
        page = Page(vaddr=0x7000, data=_compressible(5))
        plan = _plan(faults.DFM_LINK_ERROR, probability=1.0)
        with run_context(injector=FaultInjector(plan)):
            outcome = backend.swap_out(page)
        assert not outcome.accepted
        assert outcome.reason == "link-error"
        # Nothing was written; the page is still resident.
        assert page.data == _compressible(5)
        assert not page.swapped
        assert backend.stats.transient_retries >= 2

    def test_load_link_exhaustion_is_retryable(self):
        backend = DfmBackend(capacity_bytes=64 * PAGE_SIZE)
        page = Page(vaddr=0x8000, data=_compressible(6))
        assert backend.swap_out(page).accepted
        plan = _plan(faults.DFM_LINK_ERROR, probability=1.0)
        with run_context(injector=FaultInjector(plan)):
            with pytest.raises(TierUnavailableError):
                backend.swap_in(page)
        # The page is still stored; the call succeeds once the link is up.
        assert backend.contains(0x8000)
        assert backend.swap_in(page) == _compressible(6)

    def test_transient_link_error_heals_inside_retry(self):
        backend = DfmBackend(capacity_bytes=64 * PAGE_SIZE)
        page = Page(vaddr=0x9000, data=_compressible(7))
        plan = _plan(faults.DFM_LINK_ERROR, probability=1.0, max_fires=1)
        with run_context(injector=FaultInjector(plan)):
            assert backend.swap_out(page).accepted
        assert backend.stats.transient_retries == 1
        assert backend.swap_in(page) == _compressible(7)

    def test_latency_spike_only_slows_the_link(self):
        backend = DfmBackend(capacity_bytes=64 * PAGE_SIZE)
        page = Page(vaddr=0xA000, data=_compressible(8))
        plan = _plan(
            faults.DFM_LATENCY_SPIKE, probability=1.0, magnitude=10.0
        )
        with run_context(injector=FaultInjector(plan)):
            assert backend.swap_out(page).accepted
            busy_faulted = backend.link_stats.link_busy_s
        assert backend.swap_in(page) == _compressible(8)
        delta_normal = backend.link_stats.link_busy_s - busy_faulted
        assert busy_faulted == pytest.approx(10.0 * delta_normal)

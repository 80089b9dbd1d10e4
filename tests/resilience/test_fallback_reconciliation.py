"""Per-reason CPU-fallback counters under *injected* resource
exhaustion must reconcile 1:1 with the ``cpu_fallback`` trace instants
(satellite of the resilience issue: the injected variant of the
telemetry suite's organic-pressure reconciliation test)."""

from repro.core.backend import XfmBackend
from repro.resilience import faults
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sfm.page import PAGE_SIZE, Page
from repro.sim.context import run_context
from repro.telemetry import reasons, trace


def _compressible(index: int) -> bytes:
    unit = bytes([(index * 7 + j) % 13 for j in range(64)])
    return (unit * (PAGE_SIZE // len(unit)))[:PAGE_SIZE]


def _run_with_injected_exhaustion(site: str, count: int = 8):
    """Swap ``count`` pages while every driver submit hits ``site``."""
    backend = XfmBackend(capacity_bytes=128 * PAGE_SIZE)
    plan = FaultPlan(seed=11, specs=(FaultSpec(site, probability=1.0),))
    ring = trace.TraceRing()
    with run_context(ring=ring):
        with run_context(injector=FaultInjector(plan)):
            for index in range(count):
                page = Page(
                    vaddr=index * PAGE_SIZE, data=_compressible(index)
                )
                assert backend.swap_out(page).accepted
    return backend, ring


def _fallback_reasons(ring):
    return [
        event.args["reason"]
        for event in ring.events()
        if event.name == "cpu_fallback"
    ]


class TestInjectedExhaustionReconciliation:
    def test_injected_spm_full_counters_match_trace(self):
        backend, ring = _run_with_injected_exhaustion(
            faults.DRIVER_SPM_FULL
        )
        traced = _fallback_reasons(ring)
        assert traced.count(reasons.SPM_FULL) == 8
        assert backend.stats.fallbacks_spm_full == 8
        assert backend.stats.cpu_fallback_compressions == 8
        assert backend.stats.offloaded_compressions == 0
        # Every submit rejection is visible on the driver too.
        assert backend.drivers[0].stats.rejected_submissions == 8

    def test_injected_queue_full_counters_match_trace(self):
        backend, ring = _run_with_injected_exhaustion(
            faults.DRIVER_QUEUE_FULL
        )
        traced = _fallback_reasons(ring)
        assert traced.count(reasons.QUEUE_FULL) == 8
        assert backend.stats.fallbacks_queue_full == 8
        assert backend.stats.cpu_fallback_compressions == 8

    def test_per_reason_sums_reconcile_exactly(self):
        """The cross-check the telemetry suite runs under organic
        pressure, here under a mixed injected schedule: every fallback
        instant has exactly one counted reason and vice versa."""
        backend = XfmBackend(capacity_bytes=128 * PAGE_SIZE)
        plan = FaultPlan(
            seed=23,
            specs=(
                FaultSpec(faults.DRIVER_SPM_FULL, probability=0.4),
                FaultSpec(faults.DRIVER_QUEUE_FULL, probability=0.4),
            ),
        )
        ring = trace.TraceRing()
        with run_context(ring=ring):
            with run_context(injector=FaultInjector(plan)):
                for index in range(24):
                    page = Page(
                        vaddr=index * PAGE_SIZE,
                        data=_compressible(index),
                    )
                    assert backend.swap_out(page).accepted
        traced = _fallback_reasons(ring)
        stats = backend.stats
        per_reason = {
            reasons.SPM_FULL: stats.fallbacks_spm_full,
            reasons.QUEUE_FULL: stats.fallbacks_queue_full,
            reasons.DEMAND_FAULT: stats.fallbacks_demand,
            reasons.DEVICE_FAULT: stats.fallbacks_device_fault,
        }
        for reason, counted in per_reason.items():
            assert traced.count(reason) == counted, reason
        assert len(traced) == sum(per_reason.values())
        assert stats.fallbacks_spm_full > 0
        assert stats.fallbacks_queue_full > 0
        # Injection pressure never loses data.
        for index in range(24):
            page = Page(vaddr=index * PAGE_SIZE, data=None)
            page.swapped = True
            assert backend.swap_in(page) == _compressible(index)

    def test_no_injection_means_no_new_reasons(self):
        """With injection off the new device_fault reason never
        appears — goldens and existing reconciliation stay intact."""
        backend = XfmBackend(capacity_bytes=128 * PAGE_SIZE)
        ring = trace.TraceRing()
        with run_context(ring=ring):
            for index in range(8):
                page = Page(
                    vaddr=index * PAGE_SIZE, data=_compressible(index)
                )
                assert backend.swap_out(page).accepted
        assert reasons.DEVICE_FAULT not in _fallback_reasons(ring)
        assert backend.stats.fallbacks_device_fault == 0
        assert backend.stats.device_faults == 0

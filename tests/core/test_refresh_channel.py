"""Refresh-window scheduler tests: budgets, conditional matching, randoms."""

import pytest

from repro.core.refresh_channel import AccessKind, WindowScheduler
from repro.dram.device import DDR5_32GB, timings_for_device
from repro.dram.refresh import RefreshScheduler
from repro.errors import ConfigError


def _scheduler(accesses_per_ref=3, random_per_ref=1, random_age_refs=0):
    refresh = RefreshScheduler(DDR5_32GB, timings_for_device(DDR5_32GB))
    return WindowScheduler(
        refresh=refresh,
        accesses_per_ref=accesses_per_ref,
        random_per_ref=random_per_ref,
        random_age_refs=random_age_refs,
    )


def _drain(scheduler, ref_index, pressure=False):
    """Serve the ``ref_index``-th window of the scheduler's own policy."""
    return scheduler.drain_window(
        scheduler.refresh.window(ref_index), pressure=pressure
    )


def _row_for_slot(slot):
    return slot * DDR5_32GB.rows_refreshed_per_trfc


class TestConditionalMatching:
    def test_row_served_at_its_slot(self):
        scheduler = _scheduler(random_per_ref=0)
        scheduler.submit(AccessKind.READ, _row_for_slot(5), current_ref=0)
        assert _drain(scheduler, 4) == []
        executed = _drain(scheduler, 5)
        assert len(executed) == 1
        assert executed[0].conditional
        assert executed[0].waited_refs == 5

    def test_budget_caps_window(self):
        scheduler = _scheduler(accesses_per_ref=2, random_per_ref=0)
        for _ in range(5):
            scheduler.submit(AccessKind.READ, _row_for_slot(3), current_ref=0)
        assert len(_drain(scheduler, 3)) == 2
        assert scheduler.pending_count == 3

    def test_unserved_wait_for_next_cycle(self):
        scheduler = _scheduler(accesses_per_ref=1, random_per_ref=0)
        for _ in range(2):
            scheduler.submit(AccessKind.READ, _row_for_slot(0), current_ref=0)
        assert len(_drain(scheduler, 0)) == 1
        # Slot 0 recurs one retention cycle (8192 REFs) later.
        assert _drain(scheduler, 1) == []
        assert len(_drain(scheduler, 8192)) == 1


class TestFlexiblePlacement:
    def test_flexible_served_immediately_and_conditionally(self):
        scheduler = _scheduler()
        scheduler.submit(AccessKind.WRITE, None, current_ref=0, nbytes=2048)
        executed = _drain(scheduler, 0)
        assert len(executed) == 1
        assert executed[0].conditional
        assert executed[0].nbytes == 2048

    def test_flexible_has_priority(self):
        scheduler = _scheduler(accesses_per_ref=1, random_per_ref=0)
        scheduler.submit(AccessKind.READ, _row_for_slot(2), current_ref=0)
        scheduler.submit(AccessKind.WRITE, None, current_ref=0)
        executed = _drain(scheduler, 2)
        assert executed[0].row is None


class TestRandomAccesses:
    def test_random_serves_mismatched_row(self):
        scheduler = _scheduler(accesses_per_ref=3, random_per_ref=1)
        # Slot 100's row; window 0 does not match, so a random slot fires
        # (work-conserving default).
        scheduler.submit(AccessKind.READ, _row_for_slot(100), current_ref=0)
        executed = _drain(scheduler, 0)
        assert len(executed) == 1
        assert not executed[0].conditional

    def test_random_budget_capped(self):
        scheduler = _scheduler(accesses_per_ref=3, random_per_ref=1)
        for slot in (100, 200, 300):
            scheduler.submit(AccessKind.READ, _row_for_slot(slot), current_ref=0)
        executed = _drain(scheduler, 0)
        assert len(executed) == 1  # only one random per tRFC

    def test_random_disabled(self):
        scheduler = _scheduler(random_per_ref=0)
        scheduler.submit(AccessKind.READ, _row_for_slot(100), current_ref=0)
        assert _drain(scheduler, 0) == []

    def test_age_gate_defers_randoms(self):
        scheduler = _scheduler(random_age_refs=50)
        scheduler.submit(AccessKind.READ, _row_for_slot(100), current_ref=0)
        assert _drain(scheduler, 10) == []
        assert len(_drain(scheduler, 60)) == 1

    def test_pressure_overrides_age_gate(self):
        scheduler = _scheduler(random_age_refs=10_000)
        scheduler.submit(AccessKind.READ, _row_for_slot(100), current_ref=0)
        assert _drain(scheduler, 0, pressure=False) == []
        assert len(_drain(scheduler, 1, pressure=True)) == 1

    def test_subarray_conflict_defers_random(self):
        scheduler = _scheduler()
        # Window 0 refreshes rows 0..15 (subarray 0). A random access to
        # another row of subarray 0 must wait.
        scheduler.submit(AccessKind.READ, 100, current_ref=0)
        assert _drain(scheduler, 0) == []
        # Slots 0..31 all refresh subarray-0 rows (512 rows / 16 per REF),
        # so the random stays deferred until slot 32's window.
        assert _drain(scheduler, 31) == []
        executed = _drain(scheduler, 32)
        assert len(executed) == 1
        assert not executed[0].conditional

    def test_oldest_random_first(self):
        scheduler = _scheduler()
        first = scheduler.submit(AccessKind.READ, _row_for_slot(100), 0)
        scheduler.submit(AccessKind.READ, _row_for_slot(200), 1)
        executed = _drain(scheduler, 2)
        assert executed[0] is first


class TestBookkeeping:
    def test_oldest_wait(self):
        scheduler = _scheduler(random_age_refs=15)
        scheduler.submit(AccessKind.READ, _row_for_slot(500), 10)
        assert _drain(scheduler, 24) == []
        (served,) = _drain(scheduler, 25)
        assert served.waited_refs == 15 and not served.conditional

    def test_pending_count(self):
        scheduler = _scheduler()
        scheduler.submit(AccessKind.READ, _row_for_slot(1), 0)
        scheduler.submit(AccessKind.WRITE, None, 0)
        assert scheduler.pending_count == 2
        _drain(scheduler, 1)
        assert scheduler.pending_count == 0

    def test_conditional_pop_cleans_heap(self):
        scheduler = _scheduler()
        scheduler.submit(AccessKind.READ, _row_for_slot(5), 0)
        _drain(scheduler, 5)
        # The served request's age entry goes at the next random pass.
        assert _drain(scheduler, 100) == []
        assert not scheduler._age_heap

    def test_validation(self):
        with pytest.raises(ConfigError):
            _scheduler(accesses_per_ref=0)
        with pytest.raises(ConfigError):
            _scheduler(accesses_per_ref=1, random_per_ref=2)


class TestBookkeepingStaysBounded:
    def test_served_requests_leave_no_residue(self):
        """Served fixed-row requests used to leave their id in a set for
        the whole run; now the request carries the flag and the only
        residue is a heap entry dropped when it reaches the top."""
        from repro.validation.invariants import check_window_scheduler

        scheduler = _scheduler(accesses_per_ref=3, random_per_ref=1)
        served = []
        for ref in range(3000):
            for _ in range(2):
                scheduler.submit(
                    AccessKind.READ, _row_for_slot(ref % 8192), current_ref=ref
                )
            scheduler.submit(AccessKind.WRITE, None, current_ref=ref)
            served.extend(_drain(scheduler, ref))
            check_window_scheduler(scheduler)
        assert len(served) == 9000 and scheduler.pending_count == 0
        assert all(request.served for request in served)
        assert not hasattr(scheduler, "_done")
        # The next random pass drops every served entry it reaches.
        assert _drain(scheduler, 3000) == []
        assert not scheduler._age_heap and not scheduler._slot_buckets

    def test_random_service_removes_the_request_it_serves(self):
        """Two equal-looking requests in one bucket: removal is by
        identity, so the younger twin stays queued."""
        scheduler = _scheduler(accesses_per_ref=1, random_per_ref=1)
        first = scheduler.submit(AccessKind.READ, _row_for_slot(9), 0)
        second = scheduler.submit(AccessKind.READ, _row_for_slot(9), 0)
        # Window 1000 refreshes another subarray: a random access.
        executed = _drain(scheduler, 1000)
        assert len(executed) == 1 and executed[0] is first
        assert not executed[0].conditional
        assert list(scheduler._slot_buckets[9]) == [second]
        assert scheduler._slot_buckets[9][0] is second

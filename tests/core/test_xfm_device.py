"""``XfmDevice`` on its own: admission, writeback grouping, completion
latency and the per-window invariant checker, driven window by window
over an all-bank ``RefreshScheduler`` without the emulator."""

import pytest

from repro.core.refresh_channel import AccessKind, XfmDevice
from repro.dram.device import DDR5_32GB, PAGE_SIZE, timings_for_device
from repro.dram.energy import AccessEnergyModel
from repro.dram.refresh import RefreshScheduler
from repro.sim.context import run_context
from repro.validation.hooks import checker_for, checkpoint
from repro.validation.invariants import InvariantViolation, check_xfm_device

BLOB = PAGE_SIZE // 3


class FixedRows:
    """Stands in for the numpy generator: every draw returns ``row``
    and is recorded."""

    def __init__(self, row=0):
        self.row = row
        self.draws = []

    def integers(self, low, high):
        self.draws.append((low, high))
        return self.row


def _device(
    spm_pages=64,
    crq_depth=512,
    accesses_per_ref=8,
    random_per_ref=0,
    pressure_threshold=0.5,
    rng=None,
):
    refresh = RefreshScheduler(DDR5_32GB, timings_for_device(DDR5_32GB))
    assert refresh.policy.windows_per_trefi == 1
    return XfmDevice(
        refresh,
        accesses_per_ref,
        random_per_ref,
        spm_pages * PAGE_SIZE,
        crq_depth,
        BLOB,
        pressure_threshold,
        AccessEnergyModel().nma_page_access_j,
        rng if rng is not None else FixedRows(),
    )


def _window(device, ref, compressions=0, decompressions=0):
    """Serve all-bank window ``ref`` (one window per tREFI)."""
    return device.process_window(ref, ref, compressions, decompressions)


def _queued_writes(device):
    return [
        request
        for request in device.scheduler.queued()
        if request.kind is AccessKind.WRITE
    ]


class TestAdmission:
    def test_spm_full_falls_back_by_reason(self):
        device = _device(spm_pages=2)
        _window(device, 0, compressions=3, decompressions=2)
        assert device.admitted == 2
        assert device.fallbacks_spm == 3
        assert device.fallbacks_queue == 0
        assert device.spm_peak == 2 * PAGE_SIZE

    def test_queue_full_falls_back_by_reason(self):
        device = _device(crq_depth=2, accesses_per_ref=1)
        _window(device, 0, compressions=4, decompressions=1)
        assert device.admitted == 2
        assert device.fallbacks_queue == 3
        assert device.fallbacks_spm == 0

    def test_fallback_draws_no_row(self):
        rng = FixedRows()
        device = _device(spm_pages=1, rng=rng)
        _window(device, 0, compressions=1, decompressions=2)
        assert device.fallbacks_spm == 2
        assert rng.draws == []

    def test_admitted_decompression_draws_its_row(self):
        rng = FixedRows()
        device = _device(rng=rng)
        _window(device, 0, decompressions=1)
        # All-bank: one row draw, no bank draw.
        assert rng.draws == [(0, DDR5_32GB.rows_per_bank)]


class TestWriteback:
    def test_blobs_group_into_pages(self):
        per_group = PAGE_SIZE // BLOB
        device = _device()
        pending = _window(device, 0, compressions=2 * per_group)
        (group,) = _queued_writes(device)
        assert len(group.owner) == per_group
        assert group.nbytes == per_group * BLOB
        # The second group does not fill a page and waits for more.
        assert len(device.flex_buffer) == per_group
        assert device.flex_buffer_bytes == per_group * BLOB
        assert pending == 1

    def test_partial_group_flushed_under_pressure(self):
        device = _device(pressure_threshold=0.0)
        _window(device, 0, compressions=1)
        (group,) = _queued_writes(device)
        assert len(group.owner) == 1
        assert group.nbytes == BLOB
        assert not device.flex_buffer
        assert device.flex_buffer_bytes == 0


class TestCompletion:
    def test_compression_completes_one_ref_after_its_read(self):
        device = _device(pressure_threshold=0.0)
        _window(device, 0, compressions=1)
        assert _window(device, 1) == 0
        assert list(device.latency_refs) == [1]
        assert device.spm_used == 0 and device.crq_used == 0

    def test_decompression_waits_for_its_row_slot(self):
        slot = 5
        rng = FixedRows(row=slot * DDR5_32GB.rows_refreshed_per_trfc)
        device = _device(rng=rng)
        _window(device, 0, decompressions=1)
        for ref in range(1, slot + 1):
            _window(device, ref)
        assert device.crq_used == 0
        assert not device.latency_refs
        # The promoted page's writeback is placement-flexible.
        assert _window(device, slot + 1) == 0
        assert list(device.latency_refs) == [slot + 1]
        assert device.conditional == 2 and device.random_accesses == 0
        assert device.moved_bytes == BLOB + PAGE_SIZE


class TestInvariants:
    def test_checker_is_registered(self):
        assert checker_for(XfmDevice) is check_xfm_device

    @staticmethod
    def _busy_device():
        """A device with a read queued, blobs in the flex buffer and a
        writeback group queued, all consistent."""
        device = _device(accesses_per_ref=4)
        with run_context(validation=True):
            _window(device, 0, compressions=6)
            checkpoint(device)
        assert device.crq_used and device.flex_buffer
        assert _queued_writes(device)
        return device

    @pytest.mark.parametrize(
        "field, delta",
        [
            ("spm_used", PAGE_SIZE),
            ("crq_used", 1),
            ("flex_buffer_bytes", BLOB),
        ],
    )
    def test_corrupted_counter_raises(self, field, delta):
        device = self._busy_device()
        setattr(device, field, getattr(device, field) + delta)
        with run_context(validation=True):
            with pytest.raises(InvariantViolation, match="xfm_device:"):
                checkpoint(device)

    def test_window_checkpoints_itself(self):
        device = self._busy_device()
        device.crq_used -= 1
        with run_context(validation=True):
            with pytest.raises(InvariantViolation, match="CRQ"):
                _window(device, 1)

    def test_checker_is_off_without_validation(self):
        device = self._busy_device()
        device.spm_used += PAGE_SIZE
        # Its own scope: the suite may run under ``--validation``.
        with run_context(validation=False):
            checkpoint(device)

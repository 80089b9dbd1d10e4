"""Near-memory accelerator and driver tests."""

import pytest

from repro.core.driver import IOCTL_PARAMSET, XfmDriver
from repro.core.nma import FPGA_PROTOTYPE, NearMemoryAccelerator, NmaConfig
from repro.core.registers import Registers
from repro.core.spm import SpmTag
from repro.errors import ConfigError, QueueFullError, SpmFullError
from repro.resilience.integrity import page_digest


@pytest.fixture
def nma():
    return NearMemoryAccelerator(NmaConfig(spm_bytes=16 * 4096, crq_depth=4))


@pytest.fixture
def driver(nma):
    return XfmDriver(nma)


class TestQueue:
    def test_submit_and_pop(self, nma):
        request = nma.submit(
            is_compress=True, source_row=10, dest_row=None, input_bytes=4096
        )
        assert nma.queue_depth == 1
        popped = nma.pop_request()
        assert popped is request
        assert nma.queue_depth == 0
        assert nma.pop_request() is None

    def test_queue_full(self, nma):
        for i in range(4):
            nma.submit(True, i, None, 4096)
        with pytest.raises(QueueFullError):
            nma.submit(True, 9, None, 4096)

    def test_registers_mirror_queue(self, nma):
        assert nma.registers[Registers.CRQ_FREE] == 4
        nma.submit(True, 0, None, 4096)
        assert nma.registers[Registers.CRQ_FREE] == 3


class TestStaging:
    def test_stage_input_reserves_pending_entry(self, nma):
        request = nma.submit(True, 0, None, 4096)
        nma.pop_request()
        entry = nma.stage_input(request)
        assert entry.tag is SpmTag.PENDING
        assert nma.spm.used_bytes == 4096
        assert nma.registers[Registers.SP_CAPACITY] == nma.spm.free_bytes
        nma.release(entry.entry_id)
        assert nma.spm.used_bytes == 0
        assert nma.registers[Registers.SP_CAPACITY] == nma.spm.capacity_bytes

    def test_status_bits_follow_spm_tags(self, nma):
        """Bit 0 (idle) is set while no SPM entry is PENDING; bit 1 while
        one is COMPLETED."""
        first = nma.stage_input(nma.submit(True, 0, None, 4096))
        second = nma.stage_input(nma.submit(True, 1, None, 4096))
        nma.spm.complete(second.entry_id, output_bytes=1024)
        nma.release(first.entry_id)
        assert nma.registers[Registers.STATUS] == 0x3
        nma.release(second.entry_id)
        assert nma.registers[Registers.STATUS] == 0x1


class TestTimedEngine:
    def test_decompress_uses_decompress_rate(self):
        config = NmaConfig(compress_gbps=1.0, decompress_gbps=2.0)
        assert config.compress_time_ns(4096) == 2 * config.decompress_time_ns(4096)

    def test_fpga_prototype_speeds(self):
        assert FPGA_PROTOTYPE.compress_gbps == pytest.approx(1.4)
        assert FPGA_PROTOTYPE.decompress_gbps == pytest.approx(1.7)

    def test_status_register_reflects_idle(self, nma):
        assert nma.registers[Registers.STATUS] == 0x1
        request = nma.submit(True, 0, None, 4096)
        nma.pop_request()
        nma.stage_input(request)
        assert not nma.registers[Registers.STATUS] & 0x1

    def test_functional_mode_round_trip(self, nma, json_pages):
        blob = nma.compress_page(json_pages[0], page_digest(json_pages[0]))
        assert nma.decompress_blob(blob) == json_pages[0]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            NmaConfig(compress_gbps=0)
        with pytest.raises(ConfigError):
            NmaConfig(crq_depth=0)


class TestDriver:
    def test_paramset_via_ioctl(self, driver, nma):
        driver.ioctl(IOCTL_PARAMSET, (0x4000, 1 << 30))
        assert nma.registers[Registers.SFM_BASE] == 0x4000
        assert nma.registers[Registers.SFM_SIZE] == 1 << 30

    def test_unknown_ioctl_rejected(self, driver):
        with pytest.raises(ConfigError):
            driver.ioctl(0xDEAD, None)

    def test_submit_compress_reaches_queue(self, driver, nma):
        driver.submit_compress(source_row=3, input_bytes=4096)
        assert nma.queue_depth == 1
        assert driver.stats.submissions == 1

    def test_lazy_tracking_avoids_mmio_reads(self, driver):
        """The common case must not synchronize with hardware (§6)."""
        for i in range(8):
            driver.submit_compress(source_row=i, input_bytes=4096)
            driver.nma.pop_request()  # keep CRQ drained
        assert driver.stats.capacity_syncs == 0

    def test_sync_on_inferred_full_then_fallback(self, driver, nma):
        # Fill the SPM for real (through the device path, so the
        # SP_Capacity_Register reflects it) and exhaust the inferred bound.
        for i in range(16):
            request = nma.submit(True, i, None, 4096)
            nma.pop_request()
            nma.stage_input(request)
        driver._inferred_spm_used = 16 * 4096
        with pytest.raises(SpmFullError):
            driver.submit_compress(source_row=0, input_bytes=4096)
        assert driver.stats.capacity_syncs == 1
        assert driver.stats.rejected_submissions == 1

    def test_sync_recovers_when_device_freed(self, driver, nma):
        """If the device freed SPM since the bound was set, the sync read
        resets the bound and the submission proceeds."""
        driver._inferred_spm_used = nma.spm.capacity_bytes
        driver.submit_compress(source_row=0, input_bytes=4096)
        assert driver.stats.capacity_syncs == 1
        assert driver.stats.rejected_submissions == 0

    def test_notify_release_tightens_bound(self, driver):
        driver.submit_compress(source_row=0, input_bytes=4096)
        bound = driver._inferred_spm_used
        driver.notify_release(4096)
        assert driver._inferred_spm_used == bound - 4096

    def test_paramset_validation(self, driver):
        with pytest.raises(ConfigError):
            driver.xfm_paramset(sfm_base=0, sfm_size=0)

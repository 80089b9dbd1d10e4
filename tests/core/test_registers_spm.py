"""MMIO register file and scratchpad memory tests."""

import pytest

from repro.core.registers import RegisterFile, Registers
from repro.core.spm import ScratchpadMemory, SpmTag
from repro.errors import ConfigError, MmioError, SpmFullError


class TestRegisterFile:
    def test_all_registers_start_zero(self):
        regs = RegisterFile()
        for reg in Registers:
            assert regs.mmio_read(int(reg)) == 0

    def test_host_write_and_read(self):
        regs = RegisterFile()
        regs.mmio_write(int(Registers.SFM_BASE), 0x1000)
        assert regs.mmio_read(int(Registers.SFM_BASE)) == 0x1000

    def test_read_only_enforced(self):
        regs = RegisterFile()
        for reg in (
            Registers.SP_CAPACITY,
            Registers.CRQ_HEAD,
            Registers.CRQ_FREE,
            Registers.STATUS,
        ):
            with pytest.raises(MmioError):
                regs.mmio_write(int(reg), 1)

    def test_device_side_bypasses_protection(self):
        regs = RegisterFile()
        regs.device_set(Registers.SP_CAPACITY, 12345)
        assert regs.mmio_read(int(Registers.SP_CAPACITY)) == 12345
        assert regs[Registers.SP_CAPACITY] == 12345

    def test_unknown_offset_rejected(self):
        regs = RegisterFile()
        with pytest.raises(MmioError):
            regs.mmio_read(0x999)
        with pytest.raises(MmioError):
            regs.mmio_write(0x999, 1)

    def test_negative_value_rejected(self):
        with pytest.raises(MmioError):
            RegisterFile().mmio_write(int(Registers.CTRL), -1)


class TestScratchpad:
    def test_admit_reserves_bytes(self):
        spm = ScratchpadMemory(capacity_bytes=8192)
        entry = spm.admit(4096)
        assert spm.used_bytes == 4096
        assert spm.free_bytes == 4096
        assert entry.tag is SpmTag.PENDING

    def test_full_raises(self):
        spm = ScratchpadMemory(capacity_bytes=4096)
        spm.admit(4096)
        with pytest.raises(SpmFullError):
            spm.admit(1)
        assert spm.rejections == 1

    def test_complete_resizes_to_output(self):
        """Compression shrinks the reservation to the blob size."""
        spm = ScratchpadMemory(capacity_bytes=8192)
        entry = spm.admit(4096)
        spm.complete(entry.entry_id, output_bytes=1200)
        assert spm.used_bytes == 1200
        assert entry.tag is SpmTag.COMPLETED

    def test_double_complete_rejected(self):
        spm = ScratchpadMemory(capacity_bytes=8192)
        entry = spm.admit(100)
        spm.complete(entry.entry_id)
        with pytest.raises(ConfigError):
            spm.complete(entry.entry_id)

    def test_release_returns_capacity(self):
        spm = ScratchpadMemory(capacity_bytes=8192)
        entry = spm.admit(3000)
        spm.release(entry.entry_id)
        assert spm.used_bytes == 0
        assert spm.entries() == []

    def test_unknown_entry_rejected(self):
        spm = ScratchpadMemory(capacity_bytes=8192)
        with pytest.raises(ConfigError):
            spm.release(42)

    def test_tag_filtered_listing(self):
        spm = ScratchpadMemory(capacity_bytes=8192)
        a = spm.admit(100)
        b = spm.admit(200)
        spm.complete(b.entry_id)
        assert [e.entry_id for e in spm.entries(SpmTag.PENDING)] == [a.entry_id]
        assert [e.entry_id for e in spm.entries(SpmTag.COMPLETED)] == [b.entry_id]

    def test_peak_tracking(self):
        spm = ScratchpadMemory(capacity_bytes=8192)
        a = spm.admit(4000)
        spm.admit(4000)
        spm.release(a.entry_id)
        assert spm.peak_used == 8000
        assert spm.used_bytes == 4000

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            ScratchpadMemory(capacity_bytes=0)
        spm = ScratchpadMemory(capacity_bytes=100)
        with pytest.raises(ConfigError):
            spm.admit(0)

"""XFM MMIO register file.

The XFM_Driver communicates with the DIMM through memory-mapped registers
(§6): ``SP_Capacity_Register`` exposes free scratchpad bytes, the
``Compress_Request_Queue`` doorbell/head registers carry offload
submissions, and configuration registers receive the SFM region base/size
set by ``xfm_paramset()``. This module models the register file with
read-only enforcement so driver tests can catch protocol misuse.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.errors import MmioError
from repro.validation.hooks import checkpoint


class Registers(enum.IntEnum):
    """Register offsets within the XFM MMIO window."""

    #: Free bytes in the ScratchPad Memory (read-only, device-updated).
    SP_CAPACITY = 0x00
    #: Compress_Request_Queue tail doorbell (host writes submissions).
    CRQ_TAIL = 0x08
    #: Compress_Request_Queue head (read-only, device consumption pointer).
    CRQ_HEAD = 0x10
    #: Free CRQ slots (read-only convenience register).
    CRQ_FREE = 0x18
    #: SFM region base physical address (set via xfm_paramset).
    SFM_BASE = 0x20
    #: SFM region size in bytes (set via xfm_paramset).
    SFM_SIZE = 0x28
    #: Control bits (bit 0: enable offload engine).
    CTRL = 0x30
    #: Status bits (bit 0: engine idle, bit 1: SPM writeback pending).
    STATUS = 0x38


# Module-level aliases of the registers the device mirrors on every
# queue and SPM change (an enum-class attribute lookup costs ~10x a
# global read).
SP_CAPACITY, CRQ_HEAD, CRQ_FREE, STATUS = (
    Registers.SP_CAPACITY, Registers.CRQ_HEAD, Registers.CRQ_FREE,
    Registers.STATUS,
)

_READ_ONLY = {
    Registers.SP_CAPACITY,
    Registers.CRQ_HEAD,
    Registers.CRQ_FREE,
    Registers.STATUS,
}


@dataclass
class RegisterFile:
    """MMIO register storage with host/device-side access rules."""

    _values: Dict[int, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self._values = {int(reg): 0 for reg in Registers}

    def mmio_read(self, offset: int) -> int:
        """Host-side MMIO read."""
        try:
            return self._values[offset]
        except KeyError:
            raise MmioError(f"read from unknown register 0x{offset:x}") from None

    def mmio_write(self, offset: int, value: int) -> None:
        """Host-side MMIO write; read-only registers reject writes."""
        if offset not in self._values:
            raise MmioError(f"write to unknown register 0x{offset:x}")
        if offset in {int(r) for r in _READ_ONLY}:
            raise MmioError(
                f"write to read-only register {Registers(offset).name}"
            )
        if value < 0:
            raise MmioError("register values are unsigned")
        self._values[offset] = value
        checkpoint(self)

    def device_set(self, register: Registers, value: int) -> None:
        """Device-side update (bypasses read-only protection)."""
        self._values[int(register)] = value

    def __getitem__(self, register: Registers) -> int:
        return self._values[int(register)]

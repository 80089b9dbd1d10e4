"""DRAM data array: actual bytes behind the address mapping.

Fig. 6a shows *where* a 4 KiB page's bytes physically live — striped over
channels at 256 B, over banks at 128 B, all within one row per bank.
:class:`DramArray` stores real bytes at those coordinates, so tests and
tools can verify the layout concretely: write a page at a physical
address, then read individual rank-rows and see exactly the stripes the
figure draws (and that the per-DIMM NMA would see).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.dram.address import AddressMapping, DramCoordinate
from repro.errors import AddressMapError, ConfigError

#: Row storage key: (channel, dimm, rank, bank, row).
RowKey = Tuple[int, int, int, int, int]


@dataclass
class DramArray:
    """Byte-accurate storage addressed through an :class:`AddressMapping`."""

    mapping: AddressMapping = field(default_factory=AddressMapping)
    _rows: Dict[RowKey, bytearray] = field(default_factory=dict, init=False)

    def _row_buffer(self, coord: DramCoordinate) -> bytearray:
        key = (coord.channel, coord.dimm, coord.rank, coord.bank, coord.row)
        buffer = self._rows.get(key)
        if buffer is None:
            buffer = bytearray(self.mapping.device.rank_row_bytes)
            self._rows[key] = buffer
        return buffer

    # -- byte-granular access ------------------------------------------------

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at physical ``addr``."""
        line = self.mapping.bank_interleave_bytes
        offset = 0
        while offset < len(data):
            coord = self.mapping.decode(addr + offset)
            # Stay within this bank-interleave line.
            line_remaining = line - (coord.row_offset % line)
            chunk = min(line_remaining, len(data) - offset)
            buffer = self._row_buffer(coord)
            buffer[coord.row_offset : coord.row_offset + chunk] = data[
                offset : offset + chunk
            ]
            offset += chunk

    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes starting at physical ``addr``."""
        line = self.mapping.bank_interleave_bytes
        out = bytearray()
        offset = 0
        while offset < length:
            coord = self.mapping.decode(addr + offset)
            line_remaining = line - (coord.row_offset % line)
            chunk = min(line_remaining, length - offset)
            buffer = self._row_buffer(coord)
            out += buffer[coord.row_offset : coord.row_offset + chunk]
            offset += chunk
        return bytes(out)

    # -- row-granular access (the NMA's view) -----------------------------------

    def row_bytes(
        self, channel: int, dimm: int, rank: int, bank: int, row: int
    ) -> bytes:
        """One rank-row's content — what a conditional access streams out."""
        key = (channel, dimm, rank, bank, row)
        buffer = self._rows.get(key)
        if buffer is None:
            return bytes(self.mapping.device.rank_row_bytes)
        return bytes(buffer)

    def page_stripe(
        self, page_addr: int, channel: int, page_size: int = 4096
    ) -> bytes:
        """The bytes of a page that land on ``channel`` — exactly the
        stream the per-DIMM NMA compresses in multi-channel mode."""
        if page_addr % self.mapping.bank_interleave_bytes:
            raise AddressMapError("page address must be line-aligned")
        granularity = self.mapping.channel_interleave_bytes
        out = bytearray()
        for offset in range(0, page_size, granularity):
            coord = self.mapping.decode(page_addr + offset)
            if coord.channel == channel:
                out += self.read(page_addr + offset, granularity)
        return bytes(out)

    # -- accounting -----------------------------------------------------------

    def touched_rows(self) -> int:
        return len(self._rows)

    def verify_consistency(self) -> None:
        """Every materialized row must be the canonical buffer size."""
        expected = self.mapping.device.rank_row_bytes
        for key, buffer in self._rows.items():
            if len(buffer) != expected:
                raise ConfigError(f"row {key} has {len(buffer)} bytes")

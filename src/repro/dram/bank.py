"""Per-bank and per-subarray state machines.

Enforces the protocol rules XFM relies on (§5, Fig. 7): a bank row must be
activated before column accesses and precharged before a different row is
activated; during an all-bank refresh window the refreshed subarrays are
busy, but — with the paper's row-decoder-latch + subarray-select additions
— rows in *other* subarrays remain accessible to the NMA, and a refreshed
row itself can be held open for a conditional access instead of being
immediately precharged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Set

from repro.dram.device import DramDeviceConfig
from repro.dram.timing import DramTimings
from repro.errors import DramProtocolError


class BankState(enum.Enum):
    IDLE = "idle"
    ACTIVE = "active"
    REFRESHING = "refreshing"


@dataclass
class Bank:
    """One DRAM bank with subarray-granular refresh tracking."""

    device: DramDeviceConfig
    timings: DramTimings
    index: int = 0
    state: BankState = BankState.IDLE
    active_row: Optional[int] = None
    _busy_subarrays: Set[int] = field(default_factory=set)
    _last_activate_ns: float = field(default=-1e18)
    _last_precharge_ns: float = field(default=-1e18)

    # -- host-side protocol -------------------------------------------------

    def activate(self, row: int, now_ns: float) -> None:
        """ACT: open ``row`` into its subarray's local row buffer."""
        if self.state is BankState.ACTIVE:
            raise DramProtocolError(
                f"bank {self.index}: ACT while row {self.active_row} open"
            )
        if self.state is BankState.REFRESHING:
            raise DramProtocolError(
                f"bank {self.index}: host ACT during refresh window"
            )
        if now_ns < self._last_precharge_ns + self.timings.trp_ns:
            raise DramProtocolError(
                f"bank {self.index}: ACT violates tRP "
                f"({now_ns:.1f} < {self._last_precharge_ns + self.timings.trp_ns:.1f})"
            )
        if not 0 <= row < self.device.rows_per_bank:
            raise DramProtocolError(f"bank {self.index}: row {row} out of range")
        self.state = BankState.ACTIVE
        self.active_row = row
        self._last_activate_ns = now_ns

    def column_access(self, row: int, now_ns: float) -> float:
        """RD/WR: returns the time the data burst completes."""
        if self.state is not BankState.ACTIVE or self.active_row != row:
            raise DramProtocolError(
                f"bank {self.index}: column access to row {row} but open "
                f"row is {self.active_row}"
            )
        if now_ns < self._last_activate_ns + self.timings.trcd_ns:
            raise DramProtocolError(f"bank {self.index}: access violates tRCD")
        return now_ns + self.timings.tcl_ns + self.timings.tburst_ns

    def precharge(self, now_ns: float) -> None:
        """PRE: close the open row."""
        if self.state is BankState.REFRESHING:
            raise DramProtocolError(
                f"bank {self.index}: host PRE during refresh window"
            )
        self.state = BankState.IDLE
        self.active_row = None
        self._last_precharge_ns = now_ns

    # -- refresh-window behaviour (XFM additions) -----------------------------

    def begin_refresh(self, rows: range, now_ns: float) -> None:
        """Enter an all-bank refresh window covering ``rows``."""
        if self.state is BankState.ACTIVE:
            raise DramProtocolError(
                f"bank {self.index}: REF with row {self.active_row} open"
            )
        self.state = BankState.REFRESHING
        self._busy_subarrays = {
            self.device.subarray_of_row(r) for r in rows
        }

    def end_refresh(self, now_ns: float) -> None:
        """Leave the refresh window; all rows precharged (§5: the CPU-side
        controller starts fresh afterwards). tRFC already covers precharge
        recovery (JEDEC REF-to-ACT), so an ACT is legal immediately."""
        if self.state is not BankState.REFRESHING:
            raise DramProtocolError(f"bank {self.index}: end_refresh while idle")
        self.state = BankState.IDLE
        self.active_row = None
        self._busy_subarrays = set()
        self._last_precharge_ns = now_ns - self.timings.trp_ns

    def nma_access_allowed(self, row: int, conditional: bool) -> bool:
        """Whether the NMA may touch ``row`` in the current refresh window.

        Conditional accesses target rows being refreshed (always allowed —
        the row is already open in its local row buffer). Random accesses
        may only target subarrays not busy refreshing (Fig. 7's subarray
        select + latch make those independently addressable).
        """
        if self.state is not BankState.REFRESHING:
            return False
        subarray = self.device.subarray_of_row(row)
        if conditional:
            return subarray in self._busy_subarrays
        return subarray not in self._busy_subarrays

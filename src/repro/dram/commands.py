"""DRAM command vocabulary and timestamped command records.

The refresh-window side channel is described in terms of the standard
command set (§2.2): ACT/PRE/RD/WR from the CPU memory controller, REF for
auto-refresh, and the NMA-side accesses XFM adds, which never appear on the
DDR command bus (they are issued inside the DIMM during tRFC).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CommandKind(enum.Enum):
    """One DRAM command type."""

    ACT = "activate"
    PRE = "precharge"
    RD = "read"
    WR = "write"
    REF = "refresh"
    #: NMA-side read during a refresh window (conditional or random).
    NMA_RD = "nma_read"
    #: NMA-side write during a refresh window.
    NMA_WR = "nma_write"

    @property
    def is_nma(self) -> bool:
        """True for DIMM-internal accelerator accesses."""
        return self in (CommandKind.NMA_RD, CommandKind.NMA_WR)


@dataclass(frozen=True, order=True)
class TimedCommand:
    """A command stamped with its issue time and target."""

    time_ns: float
    kind: CommandKind
    channel: int = 0
    rank: int = 0
    bank: int = 0
    row: int = 0

"""XFM memory module: the scheduler bound to real rank/bank state.

The emulator (:mod:`repro.core.emulator`) trades protocol detail for
speed; this module keeps the detail. :class:`XfmModule` advances a
:class:`~repro.dram.rank.Rank` through its refresh windows and executes
every :class:`~repro.core.refresh_channel.WindowScheduler` decision
against the bank state machines — each access is double-checked by
:meth:`~repro.dram.bank.Bank.nma_access_allowed`, so a scheduler bug that
claimed an illegal access (conditional to a non-refreshing row, random
into a busy subarray) raises :class:`~repro.errors.DramProtocolError`
instead of silently producing optimistic numbers.

This is the model the protocol-level integration tests and the
command-trace tooling drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.refresh_channel import (
    AccessKind,
    AccessRequest,
    WindowScheduler,
)
from repro.dram.commands import CommandKind, TimedCommand
from repro.dram.device import DDR5_32GB, DramDeviceConfig, timings_for_device
from repro.dram.rank import Rank
from repro.dram.timing import DramTimings
from repro.errors import DramProtocolError
from repro.validation.hooks import checkpoint


@dataclass
class XfmModule:
    """One rank with an XFM side channel, advanced REF by REF."""

    device: DramDeviceConfig = DDR5_32GB
    timings: Optional[DramTimings] = None
    accesses_per_ref: int = 3
    random_per_ref: int = 1
    #: Bank the side channel targets (page stripes use the same row index
    #: in each interleaved bank; checking one bank checks them all).
    target_bank: int = 0

    rank: Rank = field(init=False)
    scheduler: WindowScheduler = field(init=False)
    #: Full command trace (REF + NMA accesses), for inspection/validation.
    commands: List[TimedCommand] = field(default_factory=list, init=False)
    _ref_index: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        timings = (
            self.timings
            if self.timings is not None
            else timings_for_device(self.device)
        )
        self.timings = timings
        self.rank = Rank(device=self.device, timings=timings)
        self.scheduler = WindowScheduler(
            refresh=self.rank.scheduler,
            accesses_per_ref=self.accesses_per_ref,
            random_per_ref=self.random_per_ref,
        )

    @property
    def now_ns(self) -> float:
        return self._ref_index * self.timings.trefi_ns

    # -- submissions ---------------------------------------------------------

    def submit_read(self, row: Optional[int], nbytes: int = 4096):
        return self.scheduler.submit(
            AccessKind.READ, row, self._ref_index, nbytes=nbytes
        )

    def submit_write(self, row: Optional[int], nbytes: int = 4096):
        return self.scheduler.submit(
            AccessKind.WRITE, row, self._ref_index, nbytes=nbytes
        )

    # -- the refresh-window step ------------------------------------------------

    def step(self, pressure: bool = False) -> List[AccessRequest]:
        """One tREFI: open the refresh window, execute the scheduler's
        picks under full protocol checking, close the window."""
        start = self.now_ns
        window = self.rank.begin_refresh(start)
        self.commands.append(
            TimedCommand(
                time_ns=start,
                kind=CommandKind.REF,
                rank=self.rank.index,
                row=window.rows.start,
            )
        )
        executed = self.scheduler.drain_window(
            self.scheduler.refresh.window(self._ref_index), pressure=pressure
        )
        elapsed = 0.0
        for request in executed:
            row = request.row
            if row is None:
                # Placement-flexible: the allocator targets a row in this
                # window's refresh set — conditional by construction.
                row = window.rows.start
            if not self.rank.nma_access_allowed(
                self.target_bank, row, conditional=request.conditional
            ):
                raise DramProtocolError(
                    f"scheduler chose an illegal "
                    f"{'conditional' if request.conditional else 'random'} "
                    f"access to row {row} in window {self._ref_index}"
                )
            elapsed += self.device.page_stream_time_ns(
                self.timings, request.nbytes, first=(elapsed == 0.0)
            )
            if elapsed > self.timings.trfc_ns:
                raise DramProtocolError(
                    f"window {self._ref_index} overran tRFC: "
                    f"{elapsed:.0f} ns of accesses"
                )
            kind = (
                CommandKind.NMA_RD
                if request.kind is AccessKind.READ
                else CommandKind.NMA_WR
            )
            self.commands.append(
                TimedCommand(
                    time_ns=start + elapsed,
                    kind=kind,
                    rank=self.rank.index,
                    bank=self.target_bank,
                    row=row,
                )
            )
        self.rank.end_refresh(start + self.timings.trfc_ns)
        self._ref_index += 1
        checkpoint(self)
        return executed

    def run(self, num_refs: int, pressure: bool = False) -> List[AccessRequest]:
        """Advance ``num_refs`` windows; returns everything executed."""
        executed: List[AccessRequest] = []
        for _ in range(num_refs):
            executed.extend(self.step(pressure=pressure))
        return executed

    # -- host-side view --------------------------------------------------------

    def host_window_clean(self) -> bool:
        """After every window the rank must look untouched to the host:
        no refresh in progress, no rows left open."""
        return self.rank.host_accessible() and not self.rank.open_banks()

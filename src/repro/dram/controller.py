"""Cycle-approximate DRAM memory controller.

Models one channel the way gem5's DDR4 interface does at the fidelity the
paper's emulator needs (§7): open-row policy with FCFS arbitration, bank
ready-time tracking, data-bus occupancy, and periodic all-bank refresh that
locks each rank for tRFC. The controller reports per-request latency and
aggregate bandwidth/stall statistics; the interference model (Fig. 11)
additionally uses the closed-form :func:`loaded_latency_ns` queueing curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dram.commands import CommandKind, TimedCommand
from repro.dram.device import DramDeviceConfig
from repro.dram.timing import DramTimings
from repro.errors import ConfigError


@dataclass(frozen=True)
class MemoryRequest:
    """One line-sized (burst) read or write presented to the controller."""

    arrival_ns: float
    rank: int
    bank: int
    row: int
    is_write: bool = False


@dataclass(frozen=True)
class ControllerStats:
    """Aggregate outcome of one simulated request stream."""

    completed: int = 0
    total_time_ns: float = 0.0
    total_bytes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    refresh_stall_ns: float = 0.0
    avg_latency_ns: float = 0.0
    max_latency_ns: float = 0.0

    @property
    def bandwidth_bps(self) -> float:
        if self.total_time_ns <= 0:
            return 0.0
        return self.total_bytes / (self.total_time_ns / 1e9)

    @property
    def row_hit_rate(self) -> float:
        accesses = self.row_hits + self.row_misses
        return self.row_hits / accesses if accesses else 0.0


class ChannelController:
    """FCFS controller for one channel with N ranks.

    ``row_policy`` selects the page policy: ``"open"`` keeps rows open
    for locality (hits pay tCL only, conflicts pay tRP extra), while
    ``"closed"`` auto-precharges after every access (every access pays
    tRCD + tCL, never a conflict) — the classic trade the A8 ablation
    measures.
    """

    def __init__(
        self,
        device: DramDeviceConfig,
        timings: DramTimings,
        num_ranks: int = 2,
        row_policy: str = "open",
    ) -> None:
        if num_ranks < 1:
            raise ConfigError("num_ranks must be >= 1")
        if row_policy not in ("open", "closed"):
            raise ConfigError(
                f"row_policy must be open/closed, got {row_policy!r}"
            )
        self.device = device
        self.timings = timings
        self.num_ranks = num_ranks
        self.row_policy = row_policy

    def _refresh_window(self, time_ns: float) -> Tuple[float, float]:
        """(start, end) of the refresh window active or next at ``time_ns``.

        Refresh is synchronous across ranks here (the common controller
        simplification); the window recurs every tREFI and lasts tRFC.
        """
        trefi = self.timings.trefi_ns
        index = int(time_ns // trefi)
        start = index * trefi
        return start, start + self.timings.trfc_ns

    def _delay_for_refresh(self, time_ns: float) -> Tuple[float, float]:
        """Push ``time_ns`` out of any active refresh window.

        Returns (possibly delayed time, stall added).
        """
        start, end = self._refresh_window(time_ns)
        if start <= time_ns < end:
            return end, end - time_ns
        return time_ns, 0.0

    def run(
        self,
        requests: List[MemoryRequest],
        command_log: Optional[List[TimedCommand]] = None,
    ) -> ControllerStats:
        """Service ``requests`` (sorted by arrival) and return statistics.

        When ``command_log`` is provided, the ACT/PRE/RD/WR commands the
        service math implies are appended to it (the REF stream comes
        from :func:`repro.dram.trace.refresh_command_stream`); the pair
        can then be cross-checked by
        :class:`repro.dram.trace.TraceValidator`.
        """
        timings = self.timings
        open_row: Dict[Tuple[int, int], int] = {}
        bank_ready: Dict[Tuple[int, int], float] = {}
        #: tREFI epoch last observed per rank: each epoch's REF precharges
        #: the whole rank, so open rows do not survive epoch boundaries.
        rank_epoch: Dict[int, int] = {}
        bus_free = 0.0
        row_hits = 0
        row_misses = 0
        refresh_stall = 0.0
        total_latency = 0.0
        max_latency = 0.0
        finish = 0.0

        for req in sorted(requests, key=lambda r: r.arrival_ns):
            key = (req.rank, req.bank)
            start = max(req.arrival_ns, bank_ready.get(key, 0.0))
            # Fixed-point over the three scheduling constraints: outside
            # refresh windows, epoch-fresh row state (each tREFI's REF
            # precharges the rank), and data-bus occupancy. Each retry
            # strictly increases ``start``, so this terminates.
            while True:
                start, stall = self._delay_for_refresh(start)
                refresh_stall += stall
                epoch = int(start // timings.trefi_ns)
                if rank_epoch.get(req.rank) != epoch:
                    open_row = {
                        k: v for k, v in open_row.items() if k[0] != req.rank
                    }
                    rank_epoch[req.rank] = epoch
                current = (
                    open_row.get(key) if self.row_policy == "open" else None
                )
                if current == req.row:
                    access = timings.tcl_ns + timings.tburst_ns
                elif current is None:
                    access = (
                        timings.trcd_ns + timings.tcl_ns + timings.tburst_ns
                    )
                else:
                    access = (
                        timings.trp_ns
                        + timings.trcd_ns
                        + timings.tcl_ns
                        + timings.tburst_ns
                    )
                done = start + access
                # The shared data bus carries this request's burst during
                # the final tBURST; bursts from different banks overlap
                # everything except that data phase.
                if done - timings.tburst_ns < bus_free:
                    start = bus_free + timings.tburst_ns - access
                    continue
                # No command sequence may straddle the next REF: the
                # controller defers the access past that window instead.
                epoch_end = (epoch + 1) * timings.trefi_ns
                if done > epoch_end:
                    start = epoch_end
                    continue
                break
            if current == req.row:
                row_hits += 1
            else:
                row_misses += 1
            if command_log is not None:
                column_kind = (
                    CommandKind.WR if req.is_write else CommandKind.RD
                )
                column_at = done - timings.tcl_ns - timings.tburst_ns
                if current == req.row:
                    pass  # row already open: column command only
                elif current is None:
                    command_log.append(
                        TimedCommand(
                            time_ns=column_at - timings.trcd_ns,
                            kind=CommandKind.ACT,
                            rank=req.rank, bank=req.bank, row=req.row,
                        )
                    )
                else:
                    command_log.append(
                        TimedCommand(
                            time_ns=column_at - timings.trcd_ns - timings.trp_ns,
                            kind=CommandKind.PRE,
                            rank=req.rank, bank=req.bank, row=current,
                        )
                    )
                    command_log.append(
                        TimedCommand(
                            time_ns=column_at - timings.trcd_ns,
                            kind=CommandKind.ACT,
                            rank=req.rank, bank=req.bank, row=req.row,
                        )
                    )
                command_log.append(
                    TimedCommand(
                        time_ns=column_at,
                        kind=column_kind,
                        rank=req.rank, bank=req.bank, row=req.row,
                    )
                )
                if self.row_policy == "closed":
                    # Auto-precharge rides the access.
                    command_log.append(
                        TimedCommand(
                            time_ns=done,
                            kind=CommandKind.PRE,
                            rank=req.rank, bank=req.bank, row=req.row,
                        )
                    )
            if self.row_policy == "open":
                open_row[key] = req.row
                bank_ready[key] = done
            else:
                bank_ready[key] = done + timings.trp_ns
            bus_free = done
            latency = done - req.arrival_ns
            total_latency += latency
            max_latency = max(max_latency, latency)
            finish = max(finish, done)

        n = len(requests)
        line_bytes = self.device.chips_per_rank * timings.burst_bytes
        return ControllerStats(
            completed=n,
            total_time_ns=finish,
            total_bytes=n * line_bytes,
            row_hits=row_hits,
            row_misses=row_misses,
            refresh_stall_ns=refresh_stall,
            avg_latency_ns=total_latency / n if n else 0.0,
            max_latency_ns=max_latency,
        )


def loaded_latency_ns(
    idle_latency_ns: float, utilization: float, knee: float = 0.65
) -> float:
    """Closed-form loaded memory latency versus channel utilization.

    The standard bandwidth-latency curve: flat near idle, super-linear past
    the knee, following ``idle / (1 - ((u - knee)/(1 - knee))^2)`` above the
    knee. Used by the Fig. 11 interference model to turn antagonist
    bandwidth into co-runner slowdown.
    """
    if not 0.0 <= utilization < 1.0:
        raise ConfigError(f"utilization must be in [0, 1), got {utilization}")
    if utilization <= knee:
        return idle_latency_ns
    overshoot = (utilization - knee) / (1.0 - knee)
    return idle_latency_ns / max(1e-9, 1.0 - overshoot * overshoot)

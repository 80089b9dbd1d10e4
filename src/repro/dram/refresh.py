"""Refresh scheduling (§2.2) and the XFM access windows (§5).

The memory controller spreads 8192 REF commands across the retention
interval; how each tREFI's refresh work is granulated is a pluggable
:class:`~repro.dram.refresh_policy.RefreshPolicy` — the default
:class:`~repro.dram.refresh_policy.AllBankRefreshPolicy` locks the
whole rank for tRFC and refreshes ``rows_refreshed_per_trfc`` rows *in
every bank* (one row per subarray in parallel, Table 1);
:class:`~repro.dram.refresh_policy.PerBankRefreshPolicy` splits the
same work into staggered per-bank windows. :class:`RefreshScheduler`
exposes the REF mapping both ways — which rows a given REF refreshes,
and which REF will next refresh a given row — which is exactly what
XFM's conditional-access scheduling needs, and it can publish its
window stream as events on a :class:`repro.sim.EventScheduler`, each
handing its consumer the window's index, so consumers react to windows
as they fire instead of iterating over them.

Target Row Refresh (TRR) slots ride on each REF; when unused by
Rowhammer mitigation they are available to XFM for *random* accesses
(§5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.dram.device import DramDeviceConfig
from repro.dram.refresh_policy import (
    AllBankRefreshPolicy,
    RefreshPolicy,
    RefreshWindow,
    make_refresh_policy,
)
from repro.dram.timing import REF_COMMANDS_PER_RETENTION, DramTimings
from repro.errors import ConfigError
from repro.sim import EventScheduler, ns_to_ticks
from repro.telemetry import trace as _trace

__all__ = [
    "AllBankRefreshPolicy",
    "RefreshPolicy",
    "RefreshScheduler",
    "RefreshWindow",
    "make_refresh_policy",
]


@dataclass
class RefreshScheduler:
    """Per-rank refresh bookkeeping shared by the CPU and NMA sides.

    The REF-slot <-> row mapping below is retention-schedule math and is
    policy-independent; window geometry (starts, durations, bank scope)
    delegates to ``policy`` (default: all-bank tRFC, the paper's
    baseline — behavior-identical to the pre-policy scheduler).
    """

    device: DramDeviceConfig
    timings: DramTimings
    #: Unused-TRR slots per REF usable for XFM random accesses.
    random_slots_per_ref: int = 1
    #: Window-granulation policy; None selects the process default
    #: (all-bank unless ``REPRO_REFRESH_POLICY`` says otherwise).
    policy: Optional[RefreshPolicy] = None
    _ref_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.random_slots_per_ref < 0:
            raise ConfigError("random_slots_per_ref must be >= 0")
        if self.policy is None:
            self.policy = make_refresh_policy(
                None, self.device, self.timings
            )

    @property
    def rows_per_ref(self) -> int:
        return self.device.rows_refreshed_per_trfc

    @property
    def refs_per_retention(self) -> int:
        return REF_COMMANDS_PER_RETENTION

    @property
    def trefi_ns(self) -> float:
        return self.timings.trefi_ns

    # -- REF index <-> rows ------------------------------------------------

    def rows_refreshed(self, ref_index: int) -> range:
        """Rows (in each covered bank) refreshed by the ``ref_index``-th
        REF slot."""
        slot = ref_index % self.refs_per_retention
        start = slot * self.rows_per_ref
        return range(start, start + self.rows_per_ref)

    def window(self, index: int) -> RefreshWindow:
        """Full description of one refresh window (policy-defined)."""
        return self.policy.window(index)

    def ref_slot_for_row(self, row: int) -> int:
        """Which REF slot (0..8191 within a retention cycle) refreshes
        ``row``."""
        policy = self.policy
        if not 0 <= row < policy.rows_per_bank:
            raise ConfigError(f"row {row} out of range")
        return row // policy.rows_per_ref

    def next_ref_for_row(self, row: int, current_ref: int) -> int:
        """First REF index >= ``current_ref`` whose window covers ``row``."""
        slot = self.ref_slot_for_row(row)
        cycle, cur_slot = divmod(current_ref, self.refs_per_retention)
        if slot < cur_slot:
            cycle += 1
        return cycle * self.refs_per_retention + slot

    def wait_refs_for_row(self, row: int, current_ref: int) -> int:
        """REF commands until ``row``'s conditional window (0 = this one)."""
        return self.next_ref_for_row(row, current_ref) - current_ref

    def is_conditional(self, row: int, ref_index: int) -> bool:
        """True if accessing ``row`` during REF ``ref_index`` is conditional
        (the row is in the set being refreshed, §5)."""
        return row in self.rows_refreshed(ref_index)

    # -- subarray-conflict rule (§5, Fig. 7) --------------------------------

    def random_access_allowed(self, row: int, ref_index: int) -> bool:
        """A random access must not target a subarray that is busy
        refreshing one of this window's rows.

        With one refreshed row per subarray (Table 1: rows/REF is far below
        subarrays/bank), the conflict set is the subarrays of the refreshed
        rows; XFM reorders pending accesses around conflicts.
        """
        busy = {
            self.device.subarray_of_row(r)
            for r in self.rows_refreshed(ref_index)
        }
        return self.device.subarray_of_row(row) not in busy

    # -- stateful iteration --------------------------------------------------

    @property
    def refs_issued(self) -> int:
        return self._ref_count

    def tick(self) -> RefreshWindow:
        """Advance to the next window and return it."""
        window = self.window(self._ref_count)
        self._ref_count += 1
        self.trace_window(window.ref_index)
        return window

    def trace_window(self, ref_index: int, channel: int = 0) -> None:
        """Emit window ``ref_index``'s timeline span.

        No-op unless tracing is enabled; pure emission, never touches
        scheduler state (the validation oracles drive this class too).
        """
        if not _trace.tracing_enabled():
            return
        window = self.window(ref_index)
        args = {
            "ref_index": window.ref_index,
            "row_start": window.rows.start,
            "row_stop": window.rows.stop,
        }
        if window.bank is not None:
            args["bank"] = window.bank
        _trace.complete(
            "ref_window",
            _trace.refresh_track(channel),
            window.start_ns,
            window.duration_ns,
            args=args,
        )

    def reset(self) -> None:
        self._ref_count = 0

    # -- windows as scheduled events -----------------------------------------

    def schedule_windows(
        self,
        events: EventScheduler,
        until_ns: float,
        on_window: Callable[[int], Optional[int]],
        start_index: int = 0,
        channel: int = 0,
    ) -> int:
        """Publish the window stream onto ``events`` and return the
        number of windows in the horizon ``[start, until_ns)``.

        Next-event time advance (DESIGN.md §11): a window fires as a
        scheduled event at its exact tick start, traces itself, and
        hands its index to ``on_window``, which asks ``policy.window``
        for the geometry when it needs it; no :class:`RefreshWindow` is
        built for a window the stream fires untraced. The consumer's
        return value names the earliest window index it needs next.
        ``None`` (or any index not past this one) means the next
        window. A later index promises that the windows in between
        would change nothing the consumer can observe; they fire no
        event, but still count towards the return value and still emit
        their ``ref_window`` span, in index order. An index at or
        beyond the horizon ends the stream. Windows chain lazily: each
        event returns its one successor's tick (the index the consumer
        answered) to the drain loop, which runs it at once when nothing
        else is due first, so the heap stays O(1) regardless of horizon
        length. A consumer that models work runs it inside
        ``CLOCK.scoped()``: the successor is taken from the window's own
        tick, after the consumer returns. Whether to trace is read once,
        when the stream is scheduled.
        """
        policy = self.policy
        end_index = policy.first_index_at_or_after_ticks(ns_to_ticks(until_ns))
        if end_index <= start_index:
            return 0
        start_ticks = policy.start_ticks
        trace_on = _trace.tracing_enabled()
        index = start_index

        def fire() -> Optional[int]:
            nonlocal index
            if trace_on:
                self.trace_window(index, channel)
            wanted = on_window(index)
            index += 1
            if wanted is not None and wanted > index:
                # The consumer skips ahead: account the windows in
                # between.
                wanted = min(wanted, end_index)
                if trace_on:
                    for skipped in range(index, wanted):
                        self.trace_window(skipped, channel)
                index = wanted
            return start_ticks(index) if index < end_index else None

        events.schedule_at_ticks(start_ticks(start_index), fire)
        return end_index - start_index

    # -- aggregate refresh math ----------------------------------------------

    def locked_fraction(self) -> float:
        """Fraction of wall-clock time the rank is locked (~8% at 32 ms
        under all-bank refresh)."""
        return (
            self.policy.duration_ns
            * self.policy.windows_per_trefi
            / self.trefi_ns
        )

    def lock_time_per_retention_ms(self) -> float:
        """Total locked time per retention interval, in ms (~2.46 ms)."""
        return (
            self.refs_per_retention
            * self.policy.windows_per_trefi
            * self.policy.duration_ns
            / 1e6
        )

    def windows_between(
        self, start_ns: float, end_ns: float
    ) -> List[RefreshWindow]:
        """All refresh windows starting in ``[start_ns, end_ns)``."""
        policy = self.policy
        return [
            policy.window(index)
            for index in range(
                policy.first_index_at_or_after(max(0.0, start_ns)),
                policy.first_index_at_or_after(end_ns),
            )
        ]

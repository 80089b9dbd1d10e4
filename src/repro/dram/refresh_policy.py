"""Pluggable refresh policies: who refreshes what, when, for how long.

The scheduling *mechanism* (``RefreshScheduler`` bookkeeping, the
``WindowScheduler`` access batching, the emulator's event loop) is
policy-agnostic; this module owns the *policy* — the mapping from a
window index to its start time, duration, refreshed rows, and bank
scope. Two policies ship:

* :class:`AllBankRefreshPolicy` — the paper's baseline (§2.2): one REF
  per tREFI locks the whole rank for tRFC and refreshes the slot's rows
  in every bank. This is the default and reproduces the pre-policy
  behavior bit-for-bit.
* :class:`PerBankRefreshPolicy` — DDR5 fine-granularity / same-bank
  refresh in the spirit of REFsb and the refresh-access-parallelism
  literature (PAPERS.md): each tREFI is split into
  ``banks_per_chip`` staggered per-bank windows of ~tRFCpb each. The
  rank as a whole refreshes the same rows per retention interval, but
  the accelerator sees **many more, shorter windows** — more scheduling
  opportunities per tREFI at a smaller per-window access budget.

Window start times are computed from **integer tick arithmetic**
(window index x tREFI in :data:`repro.sim.TICKS_PER_NS` ticks), never
by accumulating floats, so window N's start is exact for any N — the
float-drift fix the regression tests pin down.

Select a policy by name via :func:`make_refresh_policy`; the
``REPRO_REFRESH_POLICY`` environment variable sets the process default
(the CI per-bank smoke uses it to re-run the replay differential matrix
under per-bank refresh without touching any config).
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional

from repro.dram.device import DramDeviceConfig
from repro.dram.timing import REF_COMMANDS_PER_RETENTION, DramTimings
from repro.errors import ConfigError
from repro.sim.clock import TICKS_PER_NS, ns_to_ticks, ticks_to_ns

POLICY_ALL_BANK = "all-bank"
POLICY_PER_BANK = "per-bank"
REFRESH_POLICIES = (POLICY_ALL_BANK, POLICY_PER_BANK)

#: Environment variable naming the process-default refresh policy.
REFRESH_POLICY_ENV = "REPRO_REFRESH_POLICY"

#: tRFCsb / tRFC: a same-bank refresh cycles one bank, not thirty-two,
#: and completes in roughly a quarter of the all-bank lockout (DDR5
#: datasheet ratios for 16-32 Gb parts: 410 ns tRFC1 vs ~100-130 ns
#: tRFCsb) — which it must, since refreshing every bank once per tREFI
#: leaves only a tREFI/banks stagger gap (~122 ns here) per window.
PER_BANK_TRFC_FRACTION = 0.25


def default_policy_name() -> str:
    """Process-default policy: ``REPRO_REFRESH_POLICY`` or all-bank."""
    name = os.environ.get(REFRESH_POLICY_ENV, POLICY_ALL_BANK)
    if name not in REFRESH_POLICIES:
        raise ConfigError(
            f"{REFRESH_POLICY_ENV}={name!r} is not a refresh policy; "
            f"have {', '.join(REFRESH_POLICIES)}"
        )
    return name


class RefreshWindow(NamedTuple):
    """One refresh window: rows being refreshed while the NMA may ride.

    ``bank`` is None for all-bank windows (the whole rank is locked) and
    the refreshing bank index for per-bank windows. ``slot`` is the REF
    slot within the retention cycle whose rows this window refreshes.
    Immutable; a tuple rather than a frozen dataclass because one is
    built for every window the refresh stream fires.
    """

    ref_index: int
    start_ns: float
    #: Rows (same indices in every covered bank) refreshed during this
    #: window.
    rows: range
    #: Exact integer-tick start (repro.sim ticks); ``start_ns`` is its
    #: float rendering. None only for hand-built legacy windows.
    start_ticks: Optional[int] = None
    #: Window length: tRFC (all-bank) or ~tRFCpb (per-bank).
    duration_ns: Optional[float] = None
    #: Refreshing bank, or None when every bank refreshes (all-bank).
    bank: Optional[int] = None
    #: REF slot (0..8191) within the retention cycle.
    slot: Optional[int] = None


class RefreshPolicy:
    """Base policy: integer-tick window cadence over one rank.

    Subclasses fix the window multiplicity per tREFI
    (``windows_per_trefi``), the per-window duration (``duration_ns``)
    and the bank scope; the shared math (exact tick starts, slot rows,
    horizon iteration) lives here. The plug points the rest of the
    stack relies on: :meth:`window`, :meth:`start_ticks`,
    :meth:`trefi_bin`, :meth:`access_budget`.
    """

    #: Registry name; subclasses override.
    name = "base"

    def __init__(
        self,
        device: DramDeviceConfig,
        timings: DramTimings,
        windows_per_trefi: int,
        duration_ns: float,
    ) -> None:
        self.device = device
        self.timings = timings
        #: Exact tREFI in integer ticks — every window start derives
        #: from this by integer multiplication, never float accumulation.
        self.trefi_ticks = ns_to_ticks(timings.trefi_ns)
        #: Windows per tREFI interval and the length of each. Plain
        #: attributes, like the three below: :meth:`window` runs once per
        #: fired window, ``ref_slot_for_row`` once per fixed-row access.
        self.windows_per_trefi = windows_per_trefi
        self.duration_ns = duration_ns
        self.rows_per_ref = device.rows_refreshed_per_trfc
        self.rows_per_bank = device.rows_per_bank
        self.refs_per_retention = REF_COMMANDS_PER_RETENTION

    # -- subclass API --------------------------------------------------------

    def bank_of(self, index: int) -> Optional[int]:
        raise NotImplementedError

    def access_budget(self, accesses_per_ref: int) -> int:
        """Per-window NMA access budget given the per-tRFC budget."""
        raise NotImplementedError

    # -- shared math ---------------------------------------------------------

    def start_ticks(self, index: int) -> int:
        """Exact start of window ``index`` in integer ticks."""
        # Distributes tREFI over windows_per_trefi without accumulating
        # error: window k*W starts exactly at k * trefi_ticks.
        return (index * self.trefi_ticks) // self.windows_per_trefi

    def first_index_at_or_after_ticks(self, ticks: int) -> int:
        """Smallest window index starting at or after ``ticks``, in
        closed form: ``floor(i * T / W) < t``  iff  ``i < ceil(t * W / T)``."""
        return max(
            0, -((-ticks * self.windows_per_trefi) // self.trefi_ticks)
        )

    def trefi_bin(self, index: int) -> int:
        """Which tREFI interval window ``index`` falls in."""
        return index // self.windows_per_trefi

    def window(self, index: int) -> RefreshWindow:
        """Full description of window ``index`` (:meth:`start_ticks`,
        its REF slot within the retention cycle and that slot's rows
        spelled out)."""
        per_trefi = self.windows_per_trefi
        ticks = (index * self.trefi_ticks) // per_trefi
        slot = (index // per_trefi) % self.refs_per_retention
        first_row = slot * self.rows_per_ref
        return RefreshWindow(
            index,
            ticks / TICKS_PER_NS,
            range(first_row, first_row + self.rows_per_ref),
            ticks,
            self.duration_ns,
            self.bank_of(index),
            slot,
        )

    def first_index_at_or_after(self, t_ns: float) -> int:
        """Smallest window index starting at or after ``t_ns``."""
        return self.first_index_at_or_after_ticks(ns_to_ticks(t_ns))


class AllBankRefreshPolicy(RefreshPolicy):
    """One REF per tREFI locks the whole rank for tRFC (§2.2)."""

    name = POLICY_ALL_BANK

    def __init__(
        self, device: DramDeviceConfig, timings: DramTimings
    ) -> None:
        super().__init__(device, timings, 1, timings.trfc_ns)

    def bank_of(self, index: int) -> Optional[int]:
        return None

    def access_budget(self, accesses_per_ref: int) -> int:
        return accesses_per_ref


class PerBankRefreshPolicy(RefreshPolicy):
    """DDR5 FGR-style same-bank refresh: per-tREFI, every bank gets its
    own staggered ~tRFCpb window refreshing the slot's rows in that bank
    alone. Same retention coverage, ``banks_per_chip`` times as many
    accelerator windows per tREFI."""

    name = POLICY_PER_BANK

    def __init__(
        self,
        device: DramDeviceConfig,
        timings: DramTimings,
        trfc_fraction: float = PER_BANK_TRFC_FRACTION,
    ) -> None:
        if not 0.0 < trfc_fraction <= 1.0:
            raise ConfigError("trfc_fraction must be in (0, 1]")
        super().__init__(
            device,
            timings,
            device.banks_per_chip,
            timings.trfc_ns * trfc_fraction,
        )
        self.trfc_fraction = trfc_fraction
        per_window_ns = ticks_to_ns(self.trefi_ticks // self.windows_per_trefi)
        if self.duration_ns > per_window_ns:
            raise ConfigError(
                f"per-bank window of {self.duration_ns} ns "
                f"does not fit the {per_window_ns} ns inter-window gap"
            )

    def bank_of(self, index: int) -> Optional[int]:
        return index % self.windows_per_trefi

    def access_budget(self, accesses_per_ref: int) -> int:
        # A shorter lockout accommodates proportionally fewer accesses,
        # but never zero: the window still opens the refreshing rows.
        return max(1, round(accesses_per_ref * self.trfc_fraction))


def make_refresh_policy(
    name: Optional[str],
    device: DramDeviceConfig,
    timings: DramTimings,
) -> RefreshPolicy:
    """Build a policy by registry name (None -> process default)."""
    resolved = default_policy_name() if name is None else name
    if resolved == POLICY_ALL_BANK:
        return AllBankRefreshPolicy(device, timings)
    if resolved == POLICY_PER_BANK:
        return PerBankRefreshPolicy(device, timings)
    raise ConfigError(
        f"unknown refresh policy {resolved!r}; "
        f"have {', '.join(REFRESH_POLICIES)}"
    )

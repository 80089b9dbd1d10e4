"""DFM backend: uncompressed pages over a serial interconnect.

Implements the same ``swap_out``/``swap_in`` surface as
:class:`~repro.sfm.backend.SfmBackend`, so the AIFM runtime, the zswap
frontend, and the examples can run on either tier unchanged. The contrast
the paper draws falls out of the accounting:

* swap-in latency is one link round trip (fast, no CPU cycles) — DFM's
  strength;
* every page occupies its full 4 KiB in the pool — no compression gain,
  and capacity is statically provisioned (§2.1's "static provisioning of
  DRAM resources");
* every swap crosses the link, paying transfer energy (EQ2.1).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dfm.interconnect import CXL_LINK, InterconnectModel
from repro.errors import (
    ConfigError,
    DeviceFault,
    SfmError,
    TierUnavailableError,
)
from repro.resilience import faults as _faults
from repro.resilience.retry import retry_with_backoff
from repro.sfm.metrics import SwapStats, TrafficStats
from repro.sfm.page import PAGE_SIZE, Page
from repro.sim import CLOCK as _sim_clock
from repro.telemetry import spans as _spans
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.stats import Stats
from repro.tiering.protocol import SwapOutcome

#: Trace track for link transfers (dynamic tid, one Perfetto row).
TRACK_DFM = "dfm-link"


class LinkStats(Stats):
    """Link accounting, exported as ``dfm.link_*``. A stats object of
    its own, so the registry's views hold it and not the backend (which
    holds the registry: a cycle only a full collection would free)."""

    _PREFIX = "dfm"
    _FIELDS = {
        #: Joules spent on link transfers.
        "link_energy_j": 0,
        #: Seconds the link spent moving pages.
        "link_busy_s": 0,
    }
    __slots__ = tuple(_FIELDS)


class DfmBackend:
    """Far-memory backend over disaggregated, uncompressed DRAM."""

    def __init__(
        self,
        capacity_bytes: int,
        link: InterconnectModel = CXL_LINK,
        registry: Optional[MetricsRegistry] = None,
        tier: str = "dfm",
    ) -> None:
        if capacity_bytes < PAGE_SIZE:
            raise ConfigError("capacity below one page")
        self.link = link
        self.capacity_bytes = capacity_bytes
        self._pool: Dict[int, bytes] = {}
        # Counters and link accounting export through the registry,
        # labelled by tier, like every other backend's.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tier_name = tier
        labels = {"tier": tier}
        self.stats = SwapStats(registry=self.registry, labels=labels)
        self.traffic = TrafficStats(registry=self.registry, labels=labels)
        self.link_stats = LinkStats(registry=self.registry, labels=labels)
        #: Link-transfer latency quantiles per op class (simulated ns),
        #: recorded only under tracing.
        self._lat = {
            "store": self.registry.quantile(
                "op_latency_ns", op="store", tier=tier
            ),
            "load": self.registry.quantile(
                "op_latency_ns", op="load", tier=tier
            ),
        }

    # -- capacity ------------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        return self.capacity_bytes // PAGE_SIZE

    def stored_pages(self) -> int:
        return len(self._pool)

    def used_bytes(self) -> int:
        """Every page occupies its full size — no compression gain."""
        return self.stored_pages() * PAGE_SIZE

    def contains(self, vaddr: int) -> bool:
        return vaddr in self._pool

    def effective_bytes_freed(self) -> int:
        """Local bytes released per stored page — exactly one page each;
        unlike SFM there is no compression multiplier."""
        return self.stored_pages() * PAGE_SIZE

    # -- swap paths --------------------------------------------------------------

    def swap_out(self, page: Page) -> SwapOutcome:
        """Move a page to the far pool (uncompressed)."""
        if page.swapped:
            raise SfmError(f"page 0x{page.vaddr:x} already swapped")
        if page.data is None:
            raise SfmError(f"page 0x{page.vaddr:x} has no resident data")
        if self.stored_pages() >= self.capacity_pages:
            self.stats.rejected += 1
            return SwapOutcome(False, "pool-full")
        try:
            self._link_transfer("store")
        except DeviceFault:
            # Retries exhausted: nothing was written, the page stays
            # resident — report a rejection so a pipeline can route the
            # store to another tier instead of crashing.
            self.stats.rejected += 1
            return SwapOutcome(False, "link-error")
        self._pool[page.vaddr] = page.data
        page.swapped = True
        page.data = None
        self.stats.swap_outs += 1
        self.stats.bytes_out_uncompressed += PAGE_SIZE
        self.stats.bytes_out_compressed += PAGE_SIZE  # ratio 1.0
        return SwapOutcome(True, "ok", PAGE_SIZE)

    def swap_in(self, page: Page) -> bytes:
        """Fetch a page back over the link.

        Raises :class:`~repro.errors.TierUnavailableError` when link
        retries are exhausted — the page is *still stored* and the call
        can be repeated once the link recovers.
        """
        if not page.swapped:
            raise SfmError(f"page 0x{page.vaddr:x} is not in far memory")
        if page.vaddr not in self._pool:
            raise SfmError(f"page 0x{page.vaddr:x} missing from far pool")
        try:
            self._link_transfer("load")
        except DeviceFault as exc:
            raise TierUnavailableError(
                f"{self.link.name} link down fetching page "
                f"0x{page.vaddr:x} (retries exhausted)"
            ) from exc
        data = self._pool.pop(page.vaddr)
        page.swapped = False
        page.data = data
        self.stats.swap_ins += 1
        self.stats.bytes_in_uncompressed += PAGE_SIZE
        self.stats.bytes_in_compressed += PAGE_SIZE
        return data

    def promote(self, page: Page) -> bytes:
        """No accelerator on the DFM side; promotion is a demand fetch."""
        return self.swap_in(page)

    def invalidate(self, vaddr: int) -> bool:
        """Drop the far copy without a link transfer (the slot-freed
        path: the far node discards, nothing crosses the wire)."""
        return self._pool.pop(vaddr, None) is not None

    def _link_transfer(self, op: str = "store") -> None:
        """One page crossing the link, with transient-error retry.

        The ``dfm.link_error`` site aborts a transfer; the bounded
        retry re-drives it with simulated-time backoff. Only the
        successful transfer is accounted (an aborted one moved nothing
        usable)."""
        retry_with_backoff(
            lambda: self._attempt_transfer(op), on_retry=self._count_retry
        )

    def _attempt_transfer(self, op: str) -> None:
        if _faults.injection_enabled():
            event = _faults.fire(_faults.DFM_LINK_ERROR)
            if event is not None:
                self.stats.device_faults += 1
                raise DeviceFault(
                    f"transient link error on {self.link.name}"
                )
        self._account_transfer(op)

    def _count_retry(self, attempt: int, exc: BaseException) -> None:
        self.stats.transient_retries += 1

    def _account_transfer(self, op: str = "store") -> None:
        # Link transfers are channel traffic: a store reads the page
        # out of local memory, a load writes it back, as on the CPU tier.
        if op == "store":
            self.traffic.channel_read_bytes += PAGE_SIZE
        else:
            self.traffic.channel_write_bytes += PAGE_SIZE
        link = self.link_stats
        link.link_energy_j += self.link.transfer_energy_j(PAGE_SIZE)
        latency_s = self.link.page_swap_latency_s(PAGE_SIZE)
        link.link_busy_s += latency_s
        if _trace.tracing_enabled():
            dur_ns = latency_s * 1e9
            _spans.emit_under(
                "dfm_link_transfer",
                TRACK_DFM,
                _sim_clock.now_ns(),
                dur_ns,
                args={"op": op, "bytes": PAGE_SIZE},
            )
            self._lat[op].observe(dur_ns)

    # -- latency comparison helpers -------------------------------------------------

    def swap_latency_s(self, direction: str) -> float:
        """One link round trip either way; no CPU (de)compression."""
        if direction not in ("in", "out"):
            raise ConfigError(f"direction must be in/out, got {direction}")
        return self.link.page_swap_latency_s(PAGE_SIZE)

    def compact(self) -> int:
        """No compressed pool, nothing to compact."""
        return 0

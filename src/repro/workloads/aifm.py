"""AIFM-like application-integrated far-memory runtime.

The paper integrates its SFM/XFM backends into AIFM (Ruan et al., OSDI'20)
and drives them with an application allocating page-granularity objects
(§7). :class:`FarMemoryRuntime` reproduces that integration seam: the
application reads/writes pages through the runtime; a bounded *local*
capacity forces cold pages into the far-memory backend via the SFM
controller; accesses to far pages trigger swap-ins (demand faults on the
CPU path, or ``do_offload`` prefetches when the application announces
them through :meth:`FarMemoryRuntime.prefetch`); every swap is recorded
into a :class:`~repro.workloads.traces.SwapTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError, SfmError
from repro.sfm.controller import ColdScanController
from repro.sfm.page import PAGE_SIZE, Page
from repro.tiering.protocol import FarMemoryTier
from repro.workloads.traces import SWAP_IN, SWAP_OUT, SwapTrace


@dataclass
class RuntimeStats:
    reads: int = 0
    writes: int = 0
    demand_faults: int = 0
    prefetch_promotions: int = 0
    evictions: int = 0


class FarMemoryRuntime:
    """Page-granular far-memory runtime over a swappable backend."""

    def __init__(
        self,
        backend: FarMemoryTier,
        local_capacity_pages: int,
        controller: Optional[ColdScanController] = None,
    ) -> None:
        if local_capacity_pages < 1:
            raise ConfigError("local capacity must be >= 1 page")
        self.backend = backend
        self.local_capacity_pages = local_capacity_pages
        self.controller = (
            controller
            if controller is not None
            else ColdScanController(cold_threshold_s=30.0, scan_period_s=5.0)
        )
        self.pages: Dict[int, Page] = {}
        self.trace = SwapTrace()
        self.stats = RuntimeStats()
        self._next_vaddr = 0

    # -- allocation --------------------------------------------------------

    def allocate(self, initial_data: Sequence[bytes], now_s: float = 0.0) -> List[int]:
        """Allocate one page per buffer; returns their vaddrs."""
        vaddrs = []
        for data in initial_data:
            if len(data) != PAGE_SIZE:
                raise ConfigError(
                    f"initial data must be {PAGE_SIZE} bytes, got {len(data)}"
                )
            vaddr = self._next_vaddr
            self._next_vaddr += PAGE_SIZE
            self.pages[vaddr] = Page(
                vaddr=vaddr, data=bytes(data), last_access_s=now_s
            )
            vaddrs.append(vaddr)
        return vaddrs

    def resident_pages(self) -> int:
        return sum(1 for page in self.pages.values() if not page.swapped)

    # -- access path ----------------------------------------------------------

    def _page(self, vaddr: int) -> Page:
        try:
            return self.pages[vaddr]
        except KeyError:
            raise SfmError(f"vaddr 0x{vaddr:x} was never allocated") from None

    def read(self, vaddr: int, now_s: float) -> bytes:
        """Application load; faults the page in if it is in far memory."""
        page = self._page(vaddr)
        self._ensure_resident(page, now_s, prefetch=False)
        page.touch(now_s)
        self.stats.reads += 1
        assert page.data is not None
        return page.data

    def write(self, vaddr: int, data: bytes, now_s: float) -> None:
        """Application store."""
        if len(data) != PAGE_SIZE:
            raise ConfigError(f"writes are page-granular ({PAGE_SIZE} bytes)")
        page = self._page(vaddr)
        self._ensure_resident(page, now_s, prefetch=False)
        page.touch(now_s)
        page.data = bytes(data)
        self.stats.writes += 1

    def prefetch(self, vaddrs: Sequence[int], now_s: float) -> int:
        """Promote predicted-soon pages ahead of access. Uses the XFM
        offload path (``do_offload=True``) when the backend supports it —
        the §6 policy: only prefetches ride the NMA's latency."""
        promoted = 0
        for vaddr in vaddrs:
            page = self.pages.get(vaddr)
            if page is None or not page.swapped:
                continue
            self._ensure_resident(page, now_s, prefetch=True)
            promoted += 1
        return promoted

    def _ensure_resident(self, page: Page, now_s: float, prefetch: bool) -> None:
        if not page.swapped:
            return
        if prefetch:
            self._promote_offloaded(page)
            self.stats.prefetch_promotions += 1
        else:
            self.backend.swap_in(page)
            self.stats.demand_faults += 1
        self.trace.record(now_s, SWAP_IN, page.vaddr)

    def _promote_offloaded(self, page: Page) -> None:
        """Prefetch promotion through the tier's promotion path — the
        accelerator offload on XFM tiers, a plain swap-in elsewhere."""
        self.backend.promote(page)

    # -- reclaim ------------------------------------------------------------------

    def maintain(self, now_s: float) -> int:
        """Run the control plane: if local memory exceeds its budget, swap
        the coldest candidates out. Returns pages evicted."""
        over = self.resident_pages() - self.local_capacity_pages
        if over <= 0 or not self.controller.due(now_s):
            return 0
        evicted = 0
        for page in self.controller.scan(self.pages.values(), now_s):
            if evicted >= over:
                break
            outcome = self.backend.swap_out(page)
            if outcome.accepted:
                self.trace.record(
                    now_s, SWAP_OUT, page.vaddr, outcome.compressed_len
                )
                evicted += 1
        self.stats.evictions += evicted
        return evicted

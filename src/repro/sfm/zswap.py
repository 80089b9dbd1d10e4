"""zswap-style frontend: the frontswap-shaped OS integration surface.

Production SFM deployments sit behind Linux zswap (§2.1): the kernel's
swap path calls ``store``/``load``/``invalidate`` keyed by (swap type,
offset), zswap compresses into the zpool, and rejects stores — falling
through to the real swap device — when the page is incompressible or the
pool exceeds its ``max_pool_percent`` of RAM. :class:`ZswapFrontend`
reproduces that contract over any :class:`~repro.tiering.protocol.
FarMemoryTier` (baseline CPU, XFM, multi-channel XFM, DFM, or a whole
:class:`~repro.tiering.pipeline.TierPipeline`), including the
accept/reject statistics the kernel exposes in
``/sys/kernel/debug/zswap``. The ``max_pool_percent`` arithmetic lives
in :class:`~repro.tiering.policy.PoolLimitPolicy`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.errors import (
    ConfigError,
    CorruptedBlobError,
    TierUnavailableError,
)
from repro.sfm.page import PAGE_SIZE, Page
from repro.sim import CLOCK as _sim_clock
from repro.telemetry import trace as _trace
from repro.telemetry.stats import Stats
from repro.tiering.policy import PoolLimitPolicy
from repro.tiering.protocol import FarMemoryTier


class ZswapStats(Stats):
    """Counters mirroring zswap's debugfs statistics."""

    _PREFIX = "zswap"
    _FIELDS = {
        "stored_pages": 0,
        "same_filled_pages": 0,
        "reject_compress_poor": 0,
        "reject_pool_limit": 0,
        "loads": 0,
        "invalidates": 0,
        # Entries evicted to the backing swap device to admit new stores
        # (zswap's writeback path).
        "written_back": 0,
        # Entries lost to unrecoverable backend corruption — surfaced to
        # the caller as CorruptedBlobError, never as a silent miss.
        "poison_pages": 0,
    }
    __slots__ = tuple(_FIELDS)

    @property
    def total_rejects(self) -> int:
        return self.reject_compress_poor + self.reject_pool_limit


class ZswapFrontend:
    """Frontswap-shaped store/load/invalidate over any far-memory tier."""

    def __init__(
        self,
        backend: FarMemoryTier,
        total_ram_bytes: int,
        max_pool_percent: int = 20,
        writeback: Optional[Callable[[int, int, bytes], None]] = None,
    ) -> None:
        """``writeback(swap_type, offset, data)``, when provided, enables
        zswap's writeback path: on pool-limit pressure the LRU entries are
        decompressed and handed to the backing swap device to make room,
        instead of rejecting the incoming store."""
        # Validates max_pool_percent/total_ram_bytes (raises ConfigError).
        self.pool_limit = PoolLimitPolicy(
            total_ram_bytes=total_ram_bytes,
            max_pool_percent=max_pool_percent,
        )
        self.backend = backend
        self.total_ram_bytes = total_ram_bytes
        self.max_pool_percent = max_pool_percent
        self.writeback = writeback
        self.stats = ZswapStats()
        #: LRU-ordered: oldest store first (the writeback victim order).
        self._pages: "OrderedDict[Tuple[int, int], Page]" = OrderedDict()
        #: Same-value-filled pages are stored as just their fill byte
        #: (zswap's same_filled optimization) — no pool space at all.
        self._same_filled: Dict[Tuple[int, int], int] = {}

    # -- pool limit --------------------------------------------------------

    def pool_limit_bytes(self) -> int:
        return self.pool_limit.limit_bytes()

    def pool_usage_bytes(self) -> int:
        return self.backend.used_bytes()

    def _over_limit(self) -> bool:
        return self.pool_limit.over_limit(self.pool_usage_bytes())

    # -- frontswap ops ---------------------------------------------------------

    def store(self, swap_type: int, offset: int, data: bytes) -> bool:
        """Intercept a page being swapped out.

        Returns True if zswap kept it (compressed or same-filled); False
        means the caller must write it to the real swap device.
        """
        if len(data) != PAGE_SIZE:
            raise ConfigError(f"store expects a {PAGE_SIZE}-byte page")
        key = (swap_type, offset)
        if key in self._pages or key in self._same_filled:
            # Re-store of a dirty page: drop the stale copy first.
            self.invalidate_page(swap_type, offset)
            self.stats.invalidates -= 1  # internal, not caller-visible

        trace_on = _trace.tracing_enabled()
        fill = data[0]
        if data == bytes([fill]) * PAGE_SIZE:
            self._same_filled[key] = fill
            self.stats.same_filled_pages += 1
            self.stats.stored_pages += 1
            if trace_on:
                _trace.instant(
                    "zswap_store",
                    _trace.TRACK_CPU,
                    args={"outcome": "same_filled", "offset": offset},
                )
            return True

        if self._over_limit():
            if self.writeback is None or not self.shrink():
                self.stats.reject_pool_limit += 1
                if trace_on:
                    _trace.instant(
                        "zswap_store",
                        _trace.TRACK_CPU,
                        args={"outcome": "reject_pool_limit", "offset": offset},
                    )
                return False

        vaddr = ((swap_type & 0xFFFF) << 44) | (offset * PAGE_SIZE)
        page = Page(vaddr=vaddr, data=data)
        start_ns = _sim_clock.now_ns() if trace_on else 0.0
        outcome = self.backend.swap_out(page)
        if not outcome.accepted:
            if outcome.reason == "incompressible":
                self.stats.reject_compress_poor += 1
            else:
                self.stats.reject_pool_limit += 1
            if trace_on:
                _trace.complete(
                    "zswap_store",
                    _trace.TRACK_CPU,
                    start_ns,
                    max(0.0, _sim_clock.now_ns() - start_ns),
                    args={"outcome": f"reject_{outcome.reason}",
                          "offset": offset},
                )
            return False
        self._pages[key] = page
        self.stats.stored_pages += 1
        if trace_on:
            _trace.complete(
                "zswap_store",
                _trace.TRACK_CPU,
                start_ns,
                max(0.0, _sim_clock.now_ns() - start_ns),
                args={
                    "outcome": "stored",
                    "offset": offset,
                    "compressed_len": outcome.compressed_len,
                },
            )
        return True

    def load(self, swap_type: int, offset: int) -> Optional[bytes]:
        """Swap-in hook: returns the page or None if zswap never had it."""
        key = (swap_type, offset)
        trace_on = _trace.tracing_enabled()
        if key in self._same_filled:
            fill = self._same_filled.pop(key)
            self.stats.loads += 1
            self.stats.stored_pages -= 1
            if trace_on:
                _trace.instant(
                    "zswap_load",
                    _trace.TRACK_CPU,
                    args={"outcome": "same_filled", "offset": offset},
                )
            return bytes([fill]) * PAGE_SIZE
        page = self._pages.pop(key, None)
        if page is None:
            return None
        start_ns = _sim_clock.now_ns() if trace_on else 0.0
        try:
            data = self.backend.swap_in(page)
        except TierUnavailableError:
            # Transient: the backend still holds the page; re-map the
            # key so the kernel's retry finds it.
            self._pages[key] = page
            self._pages.move_to_end(key, last=False)  # keep LRU position
            raise
        except CorruptedBlobError:
            # The backend detected unrecoverable corruption and poisoned
            # the entry; the page is gone — propagate the explicit error
            # (the caller falls back to the real swap device's copy).
            self.stats.stored_pages -= 1
            self.stats.poison_pages += 1
            raise
        self.stats.loads += 1
        self.stats.stored_pages -= 1
        if trace_on:
            _trace.complete(
                "zswap_load",
                _trace.TRACK_CPU,
                start_ns,
                max(0.0, _sim_clock.now_ns() - start_ns),
                args={"outcome": "loaded", "offset": offset},
            )
        return data

    def invalidate_page(self, swap_type: int, offset: int) -> None:
        """The swap slot was freed: drop any stored copy."""
        key = (swap_type, offset)
        if key in self._same_filled:
            del self._same_filled[key]
            self.stats.stored_pages -= 1
            self.stats.invalidates += 1
            return
        page = self._pages.pop(key, None)
        if page is not None:
            # Discard without promoting: free the pool entry directly.
            self.backend.invalidate(page.vaddr)
            self.stats.stored_pages -= 1
            self.stats.invalidates += 1

    def shrink(self, target_free_bytes: int = PAGE_SIZE) -> int:
        """Write back LRU entries until the pool is under its limit with
        ``target_free_bytes`` headroom; returns entries written back.

        Mirrors zswap's shrink/writeback: the victim is decompressed,
        handed to the backing swap device, and its pool space freed.
        Requires a ``writeback`` callback; without one, pool pressure is
        handled by rejecting stores instead.
        """
        if self.writeback is None:
            raise ConfigError("shrink requires a writeback callback")
        written = 0
        while self._pages and self.pool_limit.needs_headroom(
            self.pool_usage_bytes(), target_free_bytes
        ):
            key, page = self._pages.popitem(last=False)  # LRU victim
            try:
                data = self.backend.swap_in(page)
            except TierUnavailableError:
                # Backend unreachable: put the victim back at the LRU
                # head and stop shrinking for now (retryable).
                self._pages[key] = page
                self._pages.move_to_end(key, last=False)
                break
            except CorruptedBlobError:
                # Entry lost to corruption: its pool space is already
                # freed (poisoned), so it made headroom — keep going.
                self.stats.stored_pages -= 1
                self.stats.poison_pages += 1
                continue
            self.writeback(key[0], key[1], data)
            self.stats.written_back += 1
            self.stats.stored_pages -= 1
            written += 1
        # Consolidate the holes the evictions left behind.
        if written:
            self.backend.compact()
        return written

    def invalidate_area(self, swap_type: int) -> int:
        """swapoff: drop every page of one swap type."""
        keys = [key for key in self._pages if key[0] == swap_type] + [
            key for key in self._same_filled if key[0] == swap_type
        ]
        for swap, offset in keys:
            self.invalidate_page(swap, offset)
        return len(keys)

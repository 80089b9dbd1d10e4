"""TraceRecorder: shadow any FarMemoryTier and record its data plane.

The recorder wraps a concrete tier (any of the four backends or a whole
:class:`~repro.tiering.pipeline.TierPipeline`) and satisfies the
:class:`~repro.tiering.protocol.FarMemoryTier` protocol itself, so it
drops transparently into the zswap frontend, the AIFM runtime, the
web-frontend workload, or application code. Every protocol-level
``swap_out`` / ``swap_in`` / ``promote`` / ``invalidate`` — plus the
pipeline's keyed ``store`` / ``load`` / ``promote_key`` convenience API —
is forwarded to the inner tier and appended to a
:class:`~repro.scenarios.format.ScenarioTrace` with the page's content
digest, the simulated timestamp, and an origin tag (``accepted``,
``reject:<reason>``, ``demand``, ``prefetch``, ``upward``).

Timestamps come from the shared simulated clock
(:data:`repro.sim.CLOCK`); when the driving workload does not advance
that clock the recorder self-advances by ``tick_ns`` per event so
replay ordering is always well-defined.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sfm.page import Page
from repro.scenarios.format import (
    OP_INVALIDATE,
    OP_LOAD,
    OP_PROMOTE,
    OP_STORE,
    ORIGIN_UPWARD,
    ScenarioTrace,
)
from repro.sim import CLOCK as _sim_clock
from repro.tiering.protocol import FarMemoryTier, SwapOutcome


class TraceRecorder:
    """A recording shim around one far-memory tier."""

    def __init__(
        self,
        inner: FarMemoryTier,
        name: str = "recorded",
        seed: int = 0,
        meta: Optional[Dict[str, object]] = None,
        tick_ns: float = 1_000.0,
    ) -> None:
        self.inner = inner
        self.tick_ns = tick_ns
        full_meta = {"recorded_from": getattr(inner, "tier_name", "?")}
        if meta:
            full_meta.update(meta)
        self.trace = ScenarioTrace(name=name, seed=seed, meta=full_meta)
        #: vaddr -> digest of the last stored content (promote events
        #: reference data without moving it, so the digest comes from
        #: this map rather than from returned bytes).
        self._digests: Dict[int, str] = {}
        self._last_t_ns = -tick_ns

    # -- timestamping --------------------------------------------------------

    def _now_ns(self) -> float:
        """Simulated-clock timestamp, self-advancing when the workload
        leaves the clock parked (keeps event times strictly increasing)."""
        t = _sim_clock.now_ns()
        if t <= self._last_t_ns:
            t = self._last_t_ns + self.tick_ns
        self._last_t_ns = t
        return t

    def _record(self, op: str, vaddr: int, digest: str = "",
                compressed_len: int = 0, origin: str = "") -> None:
        self.trace.append(
            self._now_ns(), op, vaddr, digest=digest,
            compressed_len=compressed_len, origin=origin,
        )

    # -- protocol: data plane (recorded) -------------------------------------

    def swap_out(self, page: Page) -> SwapOutcome:
        digest = self.trace.add_page(page.data)
        outcome = self.inner.swap_out(page)
        origin = "accepted" if outcome.accepted else f"reject:{outcome.reason}"
        self._record(
            OP_STORE, page.vaddr, digest,
            compressed_len=outcome.compressed_len, origin=origin,
        )
        if outcome.accepted:
            self._digests[page.vaddr] = digest
        return outcome

    def swap_in(self, page: Page) -> bytes:
        data = self.inner.swap_in(page)
        digest = self.trace.add_page(data)
        self._record(OP_LOAD, page.vaddr, digest, origin="demand")
        self._digests.pop(page.vaddr, None)
        return data

    def promote(self, page: Page) -> bytes:
        data = self.inner.promote(page)
        digest = self.trace.add_page(data)
        self._record(OP_LOAD, page.vaddr, digest, origin="prefetch")
        self._digests.pop(page.vaddr, None)
        return data

    def invalidate(self, vaddr: int) -> bool:
        dropped = self.inner.invalidate(vaddr)
        if dropped:
            self._record(OP_INVALIDATE, vaddr)
            self._digests.pop(vaddr, None)
        return dropped

    # -- keyed convenience API (recorded when the inner tier has one) --------

    def store(self, key: int, data: bytes) -> bool:
        digest = self.trace.add_page(data)
        accepted = self.inner.store(key, data)
        vaddr = key * self.trace.page_size
        origin = "accepted" if accepted else "reject:all-tiers-rejected"
        self._record(OP_STORE, vaddr, digest, origin=origin)
        if accepted:
            self._digests[vaddr] = digest
        return accepted

    def load(self, key: int) -> Optional[bytes]:
        data = self.inner.load(key)
        if data is not None:
            vaddr = key * self.trace.page_size
            digest = self.trace.add_page(data)
            self._record(OP_LOAD, vaddr, digest, origin="demand")
            self._digests.pop(vaddr, None)
        return data

    def promote_key(self, key: int) -> Optional[str]:
        landed = self.inner.promote_key(key)
        if landed is not None:
            vaddr = key * self.trace.page_size
            digest = self._digests.get(vaddr, "")
            self._record(OP_PROMOTE, vaddr, digest, origin=ORIGIN_UPWARD)
        return landed

    # -- protocol: passthrough ------------------------------------------------

    @property
    def stats(self):
        return self.inner.stats

    @property
    def traffic(self):
        return self.inner.traffic

    @property
    def capacity_bytes(self) -> int:
        return self.inner.capacity_bytes

    @property
    def tier_name(self) -> str:
        return self.inner.tier_name

    def contains(self, vaddr: int) -> bool:
        return self.inner.contains(vaddr)

    def stored_pages(self) -> int:
        return self.inner.stored_pages()

    def used_bytes(self) -> int:
        return self.inner.used_bytes()

    def effective_bytes_freed(self) -> int:
        return self.inner.effective_bytes_freed()

    def compact(self) -> int:
        return self.inner.compact()

    def swap_latency_s(self, direction: str) -> float:
        return self.inner.swap_latency_s(direction)

    def __getattr__(self, attr: str):
        # Anything beyond the protocol (registry, breakers, tier_of, ...)
        # passes through un-recorded.
        return getattr(self.inner, attr)

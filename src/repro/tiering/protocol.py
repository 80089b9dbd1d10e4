"""The far-memory tier contract every backend implements.

The stack grew four swap surfaces — baseline CPU SFM, single-DIMM XFM,
multi-channel XFM, and uncompressed DFM — that all answer the same five
questions (store a page, load it back, drop it, do you hold it, how much
capacity is left) but historically only shared them by convention.
:class:`FarMemoryTier` is that convention written down: a structural
protocol (``typing.Protocol``) the zswap frontend, the AIFM runtime, the
tier pipeline, and the examples are typed against, so generic code can
no longer quietly depend on SFM-only attributes like ``zpool`` or
``index``.

:class:`SwapOutcome` lives here because it *is* the protocol's return
type; every backend and caller imports it from :mod:`repro.tiering`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.sfm.page import PAGE_SIZE, Page

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sfm.metrics import BandwidthLedger, SwapStats


@dataclass(frozen=True)
class SwapOutcome:
    """Result of one swap-out attempt.

    Rejections (``accepted=False``) are control-plane signals, not
    errors: ``reason`` is ``"incompressible"`` or ``"pool-full"`` for
    single tiers, and the pipeline adds ``"all-tiers-rejected"`` when a
    page fell through every tier. Two *failure* reasons signal a broken
    (not merely full) tier and feed the pipeline's circuit breakers:
    ``"link-error"`` (DFM link retries exhausted; nothing was written)
    and ``"device-fault"`` (the tier raised TierUnavailableError).
    Either way the page stays resident — a rejection never loses data.
    """

    accepted: bool
    reason: str = "ok"
    compressed_len: int = 0
    cpu_cycles: float = 0.0

    @property
    def ratio(self) -> float:
        if not self.compressed_len:
            return 0.0
        return PAGE_SIZE / self.compressed_len


@runtime_checkable
class FarMemoryTier(Protocol):
    """Structural contract of one far-memory tier.

    Every concrete backend (:class:`~repro.sfm.backend.SfmBackend`,
    :class:`~repro.core.backend.XfmBackend` over one DIMM or several,
    :class:`~repro.dfm.backend.DfmBackend`) and the composite
    :class:`~repro.tiering.pipeline.TierPipeline` satisfy it. Stats are
    plain fields (:class:`~repro.telemetry.stats.Stats`) that a bound
    :class:`~repro.telemetry.registry.MetricsRegistry` reads at snapshot
    time; when several tiers share one registry each binds its fields
    with a ``tier=<name>`` label so the series stay distinguishable.
    """

    #: Swap counters (``SwapStats`` surface).
    stats: "SwapStats"
    #: Per-tier traffic accounting by (actor, direction).
    ledger: "BandwidthLedger"
    #: Pool capacity in bytes (property or plain attribute).
    capacity_bytes: int
    #: Label used for registry series and report rows.
    tier_name: str

    # -- data plane --------------------------------------------------------

    def swap_out(self, page: Page) -> SwapOutcome:
        """Store a resident page into this tier (may reject)."""
        ...

    def swap_in(self, page: Page) -> bytes:
        """Load a stored page back to local memory (demand path)."""
        ...

    def promote(self, page: Page) -> bytes:
        """Load via the tier's promotion path — the accelerator offload
        on XFM tiers, identical to :meth:`swap_in` elsewhere."""
        ...

    def invalidate(self, vaddr: int) -> bool:
        """Drop the stored copy of ``vaddr`` without decompressing it
        (the swap-slot-freed path); returns False when not held."""
        ...

    # -- occupancy ---------------------------------------------------------

    def contains(self, vaddr: int) -> bool:
        ...

    def stored_pages(self) -> int:
        ...

    def used_bytes(self) -> int:
        """Pool bytes currently consumed (slab/slot footprint)."""
        ...

    def effective_bytes_freed(self) -> int:
        """Resident bytes released minus pool footprint consumed."""
        ...

    # -- maintenance -------------------------------------------------------

    def compact(self) -> int:
        ...

    def swap_latency_s(self, direction: str) -> float:
        ...

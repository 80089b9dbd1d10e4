"""Multi-DIMM XFM system: multi-channel mode in the functional stack.

Assembles what §6's "Multi-Channel Mode" describes as a working backend:
one XFM DIMM (NMA + driver + per-DIMM SFM region) per channel, pages
striped across them at the 256 B interleave, each DIMM's NMA compressing
its own stripe, and compressed segments placed at the *same offset* in
every DIMM's region (the design that avoids DIMM-side address
translation, at the price of internal fragmentation).

This is the functional counterpart of
:mod:`repro.core.multichannel`'s measurement path: contents really round-
trip through per-DIMM zpools, fragmentation really occupies slots, and the
gather-decompress CPU_Fallback path is exercised for demand faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compression.base import Codec
from repro.core.driver import XfmDriver
from repro.core.multichannel import MultiChannelLayout
from repro.core.nma import NearMemoryAccelerator, NmaConfig
from repro.errors import (
    ConfigError,
    DeviceFault,
    EntryNotFoundError,
    QueueFullError,
    SfmError,
    SpmFullError,
    ZpoolFullError,
)
from repro.sfm.metrics import BandwidthLedger, SwapStats
from repro.tiering.protocol import SwapOutcome
from repro.sfm.page import PAGE_SIZE, Page
from repro.sfm.zpool import Zpool
from repro.telemetry import reasons, trace as _trace
from repro.telemetry.registry import MetricsRegistry


@dataclass
class XfmDimm:
    """One channel's XFM-enabled DIMM: NMA, driver, and SFM region."""

    index: int
    nma: NearMemoryAccelerator
    driver: XfmDriver
    region: Zpool

    @classmethod
    def build(
        cls,
        index: int,
        region_bytes: int,
        nma_config: NmaConfig,
        codec: Codec,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, object]] = None,
    ) -> "XfmDimm":
        nma = NearMemoryAccelerator(nma_config, codec=codec)
        # Per-DIMM driver counters share the System registry, labelled
        # by DIMM index so the series stay distinguishable.
        driver_labels = {"dimm": index}
        if labels:
            driver_labels.update(labels)
        driver = XfmDriver(nma, registry=registry, labels=driver_labels)
        driver.xfm_paramset(sfm_base=index << 40, sfm_size=region_bytes)
        return cls(
            index=index,
            nma=nma,
            driver=driver,
            region=Zpool(region_bytes),
        )


@dataclass(frozen=True)
class _StripeEntry:
    """Index record for one page striped across all DIMMs."""

    handles: tuple
    segment_lengths: tuple

    @property
    def slot_bytes(self) -> int:
        """Same-offset placement: every DIMM's cursor advances by the
        largest segment (§6)."""
        return max(self.segment_lengths) * len(self.segment_lengths)


class MultiChannelXfmBackend:
    """Far-memory backend striping pages across N XFM DIMMs."""

    max_stored_fraction = 0.9

    def __init__(
        self,
        capacity_bytes: int,
        num_dimms: int = 4,
        interleave_bytes: int = 256,
        nma_config: Optional[NmaConfig] = None,
        cpu_freq_hz: float = 2.6e9,
        registry: Optional[MetricsRegistry] = None,
        ledger: Optional[BandwidthLedger] = None,
        tier: Optional[str] = None,
    ) -> None:
        if num_dimms < 1:
            raise ConfigError("need at least one DIMM")
        if capacity_bytes % num_dimms:
            raise ConfigError("capacity must divide evenly across DIMMs")
        self.layout = MultiChannelLayout(
            num_dimms=num_dimms, interleave_bytes=interleave_bytes
        )
        config = nma_config if nma_config is not None else NmaConfig()
        # Each DIMM's NMA compresses with the per-DIMM window (Fig. 9b).
        from repro.compression.deflate import DeflateCodec

        self._codec_window = max(256, PAGE_SIZE // num_dimms)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tier_name = tier if tier is not None else "xfm-mc"
        labels = {"tier": tier} if tier is not None else {}
        self.dimms: List[XfmDimm] = [
            XfmDimm.build(
                index=i,
                region_bytes=capacity_bytes // num_dimms,
                nma_config=config,
                codec=DeflateCodec(window_size=self._codec_window),
                registry=self.registry,
                labels=labels,
            )
            for i in range(num_dimms)
        ]
        self.index: Dict[int, _StripeEntry] = {}
        self.stats = SwapStats(registry=self.registry, labels=labels)
        self.ledger = ledger if ledger is not None else BandwidthLedger()
        self.cpu_freq_hz = cpu_freq_hz
        #: Internal fragmentation accumulated by same-offset placement.
        self.fragmentation_bytes = 0

    @property
    def num_dimms(self) -> int:
        return len(self.dimms)

    @property
    def capacity_bytes(self) -> int:
        return sum(dimm.region.capacity_bytes for dimm in self.dimms)

    def stored_pages(self) -> int:
        return len(self.index)

    def used_bytes(self) -> int:
        """Slab footprint summed across every DIMM's region."""
        return sum(
            dimm.region.used_slabs() * dimm.region.slab_size
            for dimm in self.dimms
        )

    def effective_bytes_freed(self) -> int:
        """Resident bytes released minus pool footprint consumed."""
        return self.stored_pages() * PAGE_SIZE - self.used_bytes()

    def contains(self, vaddr: int) -> bool:
        return vaddr in self.index

    # -- swap-out: scatter + per-DIMM offload ---------------------------------

    def swap_out(self, page: Page) -> SwapOutcome:
        """Stripe the page, offload each stripe to its DIMM's NMA, and
        place all segments at the same region offset."""
        if page.swapped:
            raise SfmError(f"page 0x{page.vaddr:x} already swapped")
        if page.data is None:
            raise SfmError(f"page 0x{page.vaddr:x} has no resident data")

        stripes = self.layout.split(page.data)
        segments: List[bytes] = []
        for dimm, stripe in zip(self.dimms, stripes):
            try:
                dimm.driver.submit_compress(
                    source_row=page.vaddr >> 13, input_bytes=len(stripe)
                )
                dimm.nma.pop_request()
                try:
                    segments.append(dimm.nma.compress_page(stripe))
                finally:
                    # Timed out or not, the stripe leaves the SPM.
                    dimm.driver.notify_release(len(stripe))
                self.ledger.record("nma", "read", len(stripe))
            except (SpmFullError, QueueFullError, DeviceFault) as exc:
                # CPU fallback for this stripe (rare; accounted as host
                # work + channel traffic).
                self.stats.cpu_fallback_compressions += 1
                if isinstance(exc, DeviceFault):
                    self.stats.device_faults += 1
                    self.stats.fallbacks_device_fault += 1
                    reason = reasons.DEVICE_FAULT
                elif isinstance(exc, SpmFullError):
                    self.stats.fallbacks_spm_full += 1
                    reason = reasons.SPM_FULL
                else:
                    self.stats.fallbacks_queue_full += 1
                    reason = reasons.QUEUE_FULL
                if _trace.tracing_enabled():
                    _trace.fallback(
                        reason, "compress", vaddr=page.vaddr, dimm=dimm.index
                    )
                codec = dimm.nma.codec
                segments.append(codec.compress(stripe))
                self.stats.cpu_compress_cycles += (
                    codec.spec.compress_cycles_per_byte * len(stripe)
                )
                self.ledger.record("sfm_cpu", "read", len(stripe))

        slot = max(len(segment) for segment in segments)
        if slot * self.num_dimms > int(PAGE_SIZE * self.max_stored_fraction):
            self.stats.rejected += 1
            return SwapOutcome(accepted=False, reason="incompressible")

        handles: List[int] = []
        try:
            for dimm, segment in zip(self.dimms, segments):
                # Same-offset placement: reserve the full slot on every
                # DIMM; the segment occupies its prefix.
                padded = segment + bytes(slot - len(segment))
                handles.append(dimm.region.store(padded))
                self.ledger.record("nma", "write", len(segment))
        except ZpoolFullError:
            for dimm, handle in zip(self.dimms, handles):
                dimm.region.free(handle)
            self.stats.rejected += 1
            return SwapOutcome(accepted=False, reason="pool-full")

        entry = _StripeEntry(
            handles=tuple(handles),
            segment_lengths=tuple(len(s) for s in segments),
        )
        self.fragmentation_bytes += entry.slot_bytes - sum(
            entry.segment_lengths
        )
        self.index[page.vaddr] = entry
        page.swapped = True
        page.data = None
        self.stats.swap_outs += 1
        self.stats.offloaded_compressions += 1
        self.stats.bytes_out_uncompressed += PAGE_SIZE
        self.stats.bytes_out_compressed += sum(entry.segment_lengths)
        return SwapOutcome(
            accepted=True, compressed_len=sum(entry.segment_lengths)
        )

    # -- swap-in: gather-decompress (CPU_Fallback of Fig. 9b) -------------------

    def swap_in(self, page: Page, do_offload: bool = False) -> bytes:
        """Promote a striped page: decompress each DIMM's segment and
        re-interleave. ``do_offload`` routes decompression through the
        NMAs; the default is the host gather path."""
        if not page.swapped:
            raise SfmError(f"page 0x{page.vaddr:x} is not in far memory")
        try:
            entry = self.index[page.vaddr]
        except KeyError:
            raise EntryNotFoundError(
                f"page 0x{page.vaddr:x} not in the index"
            ) from None
        stripes: List[bytes] = []
        if not do_offload:
            # Host gather path: each stripe decodes on the CPU with its
            # own DIMM's codec; accounting starts once every stripe did.
            stripes = [
                dimm.nma.codec.decompress(dimm.region.load(handle)[:length])
                for dimm, handle, length in zip(
                    self.dimms, entry.handles, entry.segment_lengths
                )
            ]
            for dimm, length in zip(self.dimms, entry.segment_lengths):
                codec = dimm.nma.codec
                self.stats.cpu_decompress_cycles += (
                    codec.spec.decompress_cycles_per_byte * length
                )
                self.ledger.record("sfm_cpu", "read", length)
                self.stats.cpu_fallback_decompressions += 1
                self.stats.fallbacks_demand += 1
                if _trace.tracing_enabled():
                    _trace.fallback(
                        reasons.DEMAND_FAULT,
                        "decompress",
                        vaddr=page.vaddr,
                        dimm=dimm.index,
                    )
        else:
            for dimm, handle, length in zip(
                self.dimms, entry.handles, entry.segment_lengths
            ):
                blob = dimm.region.load(handle)[:length]
                try:
                    stripes.append(dimm.nma.decompress_blob(blob))
                except DeviceFault:
                    # Stalled engine: this stripe decodes on the host.
                    self.stats.device_faults += 1
                    self.stats.cpu_fallback_decompressions += 1
                    self.stats.fallbacks_device_fault += 1
                    if _trace.tracing_enabled():
                        _trace.fallback(
                            reasons.DEVICE_FAULT,
                            "decompress",
                            vaddr=page.vaddr,
                            dimm=dimm.index,
                        )
                    stripes.append(dimm.nma.codec.decompress(blob))
                    self.stats.cpu_decompress_cycles += (
                        dimm.nma.codec.spec.decompress_cycles_per_byte
                        * length
                    )
                    self.ledger.record("sfm_cpu", "read", length)
                    continue
                self.ledger.record("nma", "read", length)
                self.ledger.record(
                    "nma", "write", PAGE_SIZE // self.num_dimms
                )
                self.stats.offloaded_decompressions += 1
        data = self.layout.gather(stripes)
        if not do_offload:
            self.ledger.record("sfm_cpu", "write", PAGE_SIZE)
        self._drop(page.vaddr)
        page.swapped = False
        page.data = data
        self.stats.swap_ins += 1
        self.stats.bytes_in_uncompressed += PAGE_SIZE
        self.stats.bytes_in_compressed += sum(entry.segment_lengths)
        return data

    def promote(self, page: Page) -> bytes:
        """Prefetch-style promotion: route decompression through the NMAs."""
        return self.swap_in(page, do_offload=True)

    def invalidate(self, vaddr: int) -> bool:
        """Free every DIMM's segment of a striped page without the
        gather-decompress (swap-slot-freed path)."""
        if vaddr not in self.index:
            return False
        self._drop(vaddr)
        return True

    def _drop(self, vaddr: int) -> None:
        entry = self.index.pop(vaddr)
        for dimm, handle in zip(self.dimms, entry.handles):
            dimm.region.free(handle)
        self.fragmentation_bytes -= entry.slot_bytes - sum(
            entry.segment_lengths
        )

    # -- accounting --------------------------------------------------------------

    def per_dimm_occupancy(self) -> Dict[int, float]:
        return {dimm.index: dimm.region.occupancy() for dimm in self.dimms}

    def effective_ratio(self) -> float:
        """Compression ratio including same-offset slot fragmentation."""
        stored = sum(
            dimm.region.stored_bytes() for dimm in self.dimms
        )
        if not stored:
            return 0.0
        return self.stored_pages() * PAGE_SIZE / stored

    def compact(self) -> int:
        moved = 0
        for dimm in self.dimms:
            moved += dimm.region.compact()
        self.ledger.record("sfm_cpu", "read", moved)
        self.ledger.record("sfm_cpu", "write", moved)
        return moved

    def swap_latency_s(self, direction: str) -> float:
        """Single-stripe host (de)compression latency — the per-DIMM
        window codec over one stripe, at the host clock."""
        spec = self.dimms[0].nma.codec.spec
        stripe = PAGE_SIZE // self.num_dimms
        if direction == "out":
            cycles = spec.compress_cycles_per_byte * stripe
        elif direction == "in":
            cycles = spec.decompress_cycles_per_byte * stripe
        else:
            raise ConfigError(f"direction must be in/out, got {direction}")
        return cycles / self.cpu_freq_hz

"""XFM_Backend: the modified SFM backend with near-memory offload (§6).

``xfm_swap_out`` mirrors the baseline swap-out flow but pushes the selected
page into the Compress_Request_Queue instead of compressing on the CPU;
``xfm_swap_in`` calls ``CPU_Fallback`` *by default* — decompression latency
sits on the fault path, so offload happens only when the controller asserts
``do_offload`` (prefetch-style promotions). All NMA data movement is
charged to the ``nma`` ledger (on-DIMM, invisible to the DDR channel),
which is exactly the bandwidth-elimination claim of Fig. 1/Fig. 11.
"""

from __future__ import annotations

from typing import Optional

from repro.compression.base import Codec
from repro.core.driver import XfmDriver
from repro.core.nma import NearMemoryAccelerator, NmaConfig
from repro.errors import (
    CorruptedBlobError,
    DeviceFault,
    QueueFullError,
    SfmError,
    SpmFullError,
    ZpoolFullError,
)
from repro.resilience.integrity import content_digest, page_digest
from repro.resilience.retry import retry_with_backoff
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page
from repro.sim import CLOCK as _sim_clock
from repro.telemetry import reasons, spans as _spans, trace as _trace
from repro.tiering.protocol import SwapOutcome


class XfmBackend(SfmBackend):
    """SFM backend whose data plane is the near-memory accelerator."""

    def __init__(
        self,
        capacity_bytes: int,
        nma: Optional[NearMemoryAccelerator] = None,
        codec: Optional[Codec] = None,
        cpu_freq_hz: float = 2.6e9,
        row_bytes: int = 8192,
        registry=None,
        ledger=None,
        tier: Optional[str] = None,
    ) -> None:
        self.nma = nma if nma is not None else NearMemoryAccelerator(
            NmaConfig(), codec=codec
        )
        super().__init__(
            capacity_bytes,
            codec=self.nma.codec,
            cpu_freq_hz=cpu_freq_hz,
            registry=registry,
            ledger=ledger,
            tier=tier,
        )
        if tier is None:
            self.tier_name = "xfm"
        # Driver counters re-home into the same per-System registry as
        # the swap statistics.
        self.driver = XfmDriver(self.nma, registry=self.registry)
        self.driver.xfm_paramset(sfm_base=0, sfm_size=capacity_bytes)
        self.row_bytes = row_bytes

    def _row_of(self, addr: int) -> int:
        """Rank-row index of an address inside the SFM region (the
        granularity the refresh side channel schedules on)."""
        return addr // self.row_bytes

    def _count_fallback_reason(self, exc: Exception) -> str:
        """Map a submit failure to its reason code and bump the
        matching per-reason counter."""
        if isinstance(exc, DeviceFault):
            self.stats.fallbacks_device_fault += 1
            return reasons.DEVICE_FAULT
        if isinstance(exc, SpmFullError):
            self.stats.fallbacks_spm_full += 1
            return reasons.SPM_FULL
        self.stats.fallbacks_queue_full += 1
        return reasons.QUEUE_FULL

    def _read_staged_verified(self, entry_id: int, expected_digest: bytes):
        """Read a staged SPM payload back, digest-verified with bounded
        re-reads (SPM read flips are transient). Raises
        :class:`DeviceFault` when the retries are exhausted — the caller
        recovers through the CPU path, so a flipped bit never escapes."""

        def read_once() -> bytes:
            staged = self.nma.spm.read_payload(entry_id)
            if staged is None or content_digest(staged) != expected_digest:
                self.stats.corruptions_detected += 1
                raise DeviceFault("SPM readback failed its digest check")
            return staged

        detected_before = self.stats.corruptions_detected
        staged = retry_with_backoff(
            read_once, on_retry=self._count_transient_retry
        )
        if self.stats.corruptions_detected > detected_before:
            self.stats.corruptions_recovered += 1
        return staged

    # -- swap-out: offload with CPU fallback ---------------------------------

    def _fallback_compress(self, page: Page, exc: Exception) -> SwapOutcome:
        """Degrade a failed offload to the baseline CPU swap-out."""
        self.stats.cpu_fallback_compressions += 1
        reason = self._count_fallback_reason(exc)
        if _trace.tracing_enabled():
            extra = {"vaddr": page.vaddr}
            parent = _spans.current_span_id()
            if parent is not None:
                extra["parent"] = parent
            _trace.fallback(reason, "compress", **extra)
        return super().swap_out(page)

    def _fallback_decompress(self, page: Page, exc: Exception) -> bytes:
        """Degrade a failed offload to the baseline CPU swap-in."""
        self.stats.cpu_fallback_decompressions += 1
        reason = self._count_fallback_reason(exc)
        if _trace.tracing_enabled():
            extra = {"vaddr": page.vaddr}
            parent = _spans.current_span_id()
            if parent is not None:
                extra["parent"] = parent
            _trace.fallback(reason, "decompress", **extra)
        return super().swap_in(page)

    def xfm_swap_out(self, page: Page) -> SwapOutcome:
        """Offload compression to the NMA; falls back to the CPU when the
        SPM or the request queue is exhausted."""
        if page.swapped:
            raise SfmError(f"page 0x{page.vaddr:x} already swapped")
        if page.data is None:
            raise SfmError(f"page 0x{page.vaddr:x} has no resident data")
        try:
            # The doorbell may be transiently lost (DeviceFault): bounded
            # retries re-ring it; exhaustion degrades to the CPU path.
            request = retry_with_backoff(
                lambda: self.driver.submit_compress(
                    source_row=self._row_of(page.vaddr),
                    input_bytes=PAGE_SIZE,
                ),
                on_retry=self._count_transient_retry,
            )
        except (SpmFullError, QueueFullError, DeviceFault) as exc:
            if isinstance(exc, DeviceFault):
                self.stats.device_faults += 1
            return self._fallback_compress(page, exc)

        # Device side: stage, compress, write back — all on-DIMM.
        self.nma.pop_request()
        try:
            entry = self.nma.spm.admit(PAGE_SIZE)
        except SpmFullError as exc:
            # The device-side staging admit can lose a race the driver's
            # lazy bound did not see.
            self.driver.notify_release(PAGE_SIZE)
            return self._fallback_compress(page, exc)
        try:
            blob = retry_with_backoff(
                lambda: self.nma.compress_page(page.data),
                on_retry=self._count_transient_retry,
            )
        except DeviceFault as exc:
            self.stats.device_faults += 1
            self.nma.spm.release(entry.entry_id)
            self.driver.notify_release(PAGE_SIZE)
            return self._fallback_compress(page, exc)
        self.ledger.record("nma", "read", PAGE_SIZE)
        if len(blob) > int(PAGE_SIZE * self.max_stored_fraction):
            self.nma.spm.release(entry.entry_id)
            self.driver.notify_release(PAGE_SIZE)
            self.stats.rejected += 1
            return SwapOutcome(accepted=False, reason="incompressible")
        # The blob is staged in the SPM before the pool writeback; the
        # readback is digest-verified (SPM bit flips happen *here*).
        self.nma.spm.complete(
            entry.entry_id, output_bytes=len(blob), payload=blob
        )
        try:
            blob = self._read_staged_verified(
                entry.entry_id, content_digest(blob)
            )
        except DeviceFault as exc:
            # Persistent readback corruption: the page is still resident
            # in host memory, so the CPU path recovers it loss-free.
            self.nma.spm.release(entry.entry_id)
            self.driver.notify_release(PAGE_SIZE)
            self.stats.corruptions_recovered += 1
            return self._fallback_compress(page, exc)
        try:
            handle = self.zpool.store(blob)
        except ZpoolFullError:
            self.nma.spm.release(entry.entry_id)
            self.driver.notify_release(PAGE_SIZE)
            self.stats.rejected += 1
            return SwapOutcome(accepted=False, reason="pool-full")
        self.ledger.record("nma", "write", len(blob))
        self.nma.spm.release(entry.entry_id)
        self.driver.notify_release(PAGE_SIZE)

        self.stats.offloaded_compressions += 1
        self._commit(page, handle, blob, page_digest(page.data))
        if _trace.tracing_enabled():
            dur_ns = self.nma.config.compress_time_ns(PAGE_SIZE)
            _spans.emit_under(
                "nma_compress",
                _trace.TRACK_NMA,
                _sim_clock.now_ns(),
                dur_ns,
                args={
                    "request_id": request.request_id,
                    "blob_bytes": len(blob),
                },
            )
            self._lat_store.observe(dur_ns)
        del request
        return SwapOutcome(accepted=True, compressed_len=len(blob))

    # -- swap-in: CPU by default, offload for prefetch ------------------------

    def xfm_swap_in(self, page: Page, do_offload: bool = False) -> bytes:
        """Promote a page out of far memory.

        ``CPU_Fallback`` is the default (§6: applications are sensitive to
        the XFM datapath's decompression latency); the controller asserts
        ``do_offload`` for prefetch promotions.
        """
        if not do_offload:
            self.stats.cpu_fallback_decompressions += 1
            self.stats.fallbacks_demand += 1
            if _trace.tracing_enabled():
                _trace.fallback(
                    reasons.DEMAND_FAULT, "decompress", vaddr=page.vaddr
                )
            return super().swap_in(page)
        if not page.swapped:
            raise SfmError(f"page 0x{page.vaddr:x} is not in far memory")
        record = self._record(page.vaddr)
        blob_len = self.zpool.entry(record.handle).length
        try:
            request = retry_with_backoff(
                lambda: self.driver.submit_decompress(
                    source_row=self._row_of(page.vaddr),
                    input_bytes=blob_len,
                    dest_row=self._row_of(page.vaddr),
                ),
                on_retry=self._count_transient_retry,
            )
        except (SpmFullError, QueueFullError, DeviceFault) as exc:
            if isinstance(exc, DeviceFault):
                self.stats.device_faults += 1
            return self._fallback_decompress(page, exc)

        self.nma.pop_request()
        try:
            # Verified read: corruption is detected (and poisoned when
            # unrecoverable) before the accelerator touches the blob.
            blob = self._load_verified(record, page.vaddr)
        except CorruptedBlobError:
            self.driver.notify_release(PAGE_SIZE)
            raise
        self.ledger.record("nma", "read", len(blob))
        try:
            entry = self.nma.spm.admit(PAGE_SIZE)
        except SpmFullError as exc:
            self.driver.notify_release(PAGE_SIZE)
            return self._fallback_decompress(page, exc)
        try:
            data = retry_with_backoff(
                lambda: self.nma.decompress_blob(blob),
                on_retry=self._count_transient_retry,
            )
        except DeviceFault as exc:
            self.stats.device_faults += 1
            self.nma.spm.release(entry.entry_id)
            self.driver.notify_release(PAGE_SIZE)
            return self._fallback_decompress(page, exc)
        if len(data) != PAGE_SIZE:
            raise SfmError(
                f"decompressed page is {len(data)} bytes, expected {PAGE_SIZE}"
            )
        # The decompressed page stages in the SPM before its writeback;
        # verify the readback just like the compress direction.
        self.nma.spm.complete(entry.entry_id, payload=data)
        try:
            data = self._read_staged_verified(
                entry.entry_id, content_digest(data)
            )
        except DeviceFault as exc:
            # The blob is still intact in the pool: the CPU path decodes
            # it again, loss-free.
            self.nma.spm.release(entry.entry_id)
            self.driver.notify_release(PAGE_SIZE)
            self.stats.corruptions_recovered += 1
            return self._fallback_decompress(page, exc)
        self.ledger.record("nma", "write", PAGE_SIZE)
        self.nma.spm.release(entry.entry_id)
        self.driver.notify_release(PAGE_SIZE)

        self._drop(page.vaddr)
        page.swapped = False
        page.data = data
        self.stats.swap_ins += 1
        self.stats.offloaded_decompressions += 1
        self.stats.bytes_in_uncompressed += PAGE_SIZE
        self.stats.bytes_in_compressed += len(blob)
        if _trace.tracing_enabled():
            dur_ns = self.nma.config.decompress_time_ns(len(blob))
            _spans.emit_under(
                "nma_decompress",
                _trace.TRACK_NMA,
                _sim_clock.now_ns(),
                dur_ns,
                args={
                    "request_id": request.request_id,
                    "blob_bytes": len(blob),
                },
            )
            self._lat_load.observe(dur_ns)
        return data

    # -- drop-in aliases --------------------------------------------------------

    def swap_out(self, page: Page) -> SwapOutcome:
        """Drop-in override: route the baseline API through the NMA."""
        return self.xfm_swap_out(page)

    def swap_in(self, page: Page) -> bytes:
        """Drop-in override: demand faults use the CPU path (§6 default)."""
        return self.xfm_swap_in(page, do_offload=False)

    def promote(self, page: Page) -> bytes:
        """Prefetch-style promotion: the controller asserts offload."""
        return self.xfm_swap_in(page, do_offload=True)

    def xfm_compact(self) -> int:
        """Manually-initiated compaction (host memcpys, §6)."""
        return self.compact()

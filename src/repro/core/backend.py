"""XFM_Backend: the modified SFM backend with near-memory offload (§6).

``xfm_swap_out`` mirrors the baseline swap-out flow but pushes the selected
page into the Compress_Request_Queue instead of compressing on the CPU;
``xfm_swap_in`` calls ``CPU_Fallback`` *by default* — decompression latency
sits on the fault path, so offload happens only when the controller asserts
``do_offload`` (prefetch-style promotions). All NMA data movement is
charged to the ``nma_*_bytes`` traffic (on-DIMM, invisible to the DDR channel),
which is exactly the bandwidth-elimination claim of Fig. 1/Fig. 11.

Multi-channel mode (§6, Fig. 9) is the same backend over N DIMMs, one
NMA and one driver each: a page splits into one 256 B-interleaved stripe
per DIMM (:class:`~repro.core.multichannel.MultiChannelLayout`), every
stripe takes the offload path on its own DIMM, and the page is stored as
one blob of slot-padded segments. The CPU paths reach the striped layout
through the ``_compress``/``_decompress`` hooks, so fallbacks, demand
faults and verified recovery are the baseline's. With one DIMM the
stripe is the page and nothing is padded.
"""

from __future__ import annotations

from typing import Optional

from repro.compression.base import Codec
from repro.core.driver import XfmDriver
from repro.core.multichannel import MultiChannelLayout
from repro.core.nma import NearMemoryAccelerator, NmaConfig
from repro.errors import (
    ConfigError,
    DeviceFault,
    QueueFullError,
    SfmError,
    SpmFullError,
    ZpoolFullError,
)
from repro.resilience.integrity import content_digest
from repro.resilience.retry import retry_with_backoff
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page
from repro.sim import CLOCK as _sim_clock
from repro.telemetry import reasons, spans as _spans, trace as _trace
from repro.tiering.protocol import SwapOutcome

#: Offload failures the backend answers with ``CPU_Fallback``.
_OFFLOAD_FAILURES = (SpmFullError, QueueFullError, DeviceFault)


class XfmBackend(SfmBackend):
    """SFM backend whose data plane is one near-memory accelerator per
    DIMM."""

    def __init__(
        self,
        capacity_bytes: int,
        nma: Optional[NearMemoryAccelerator] = None,
        codec: Optional[Codec] = None,
        cpu_freq_hz: float = 2.6e9,
        row_bytes: int = 8192,
        registry=None,
        tier: Optional[str] = None,
        num_dimms: int = 1,
    ) -> None:
        self.layout = MultiChannelLayout(num_dimms)
        if capacity_bytes % num_dimms:
            raise ConfigError("capacity must divide evenly across DIMMs")
        if num_dimms == 1:
            self.nmas = [
                nma if nma is not None
                else NearMemoryAccelerator(NmaConfig(), codec=codec)
            ]
        elif nma is not None or codec is not None:
            raise ConfigError(
                "a multi-DIMM backend builds one accelerator per DIMM, "
                "each with the per-DIMM window codec"
            )
        else:
            self.nmas = [
                NearMemoryAccelerator(NmaConfig(), codec=self.layout.codec)
                for _ in range(num_dimms)
            ]
        super().__init__(
            capacity_bytes,
            codec=self.nmas[0].codec,
            cpu_freq_hz=cpu_freq_hz,
            registry=registry,
            tier=tier,
        )
        if tier is None:
            self.tier_name = "xfm"
        # Driver counters re-home into the same per-System registry as
        # the swap statistics; with several DIMMs each driver's series
        # carry its DIMM index. Each DIMM holds its stripe of the region.
        self.drivers = []
        for index, accelerator in enumerate(self.nmas):
            driver = XfmDriver(
                accelerator,
                registry=self.registry,
                labels={"dimm": index} if num_dimms > 1 else None,
            )
            driver.xfm_paramset(
                sfm_base=index << 40, sfm_size=capacity_bytes // num_dimms
            )
            self.drivers.append(driver)
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

    def _retried(self, call):
        """Run a doorbell or engine call with bounded retries (a lost
        doorbell or a stalled engine is transient); exhausted retries
        count one device fault and raise :class:`DeviceFault`."""
        try:
            return retry_with_backoff(
                call, on_retry=self._count_transient_retry
            )
        except DeviceFault:
            self.stats.device_faults += 1
            raise

    def _read_staged_verified(
        self, nma: NearMemoryAccelerator, entry_id: int, expected_digest: bytes
    ) -> bytes:
        """Read a staged SPM payload back, digest-verified with bounded
        re-reads (SPM read flips are transient). Raises
        :class:`DeviceFault` when the retries are exhausted — the caller
        recovers through the CPU path from the resident page or the
        pooled blob, so a flipped bit never escapes."""

        def read_once() -> bytes:
            staged = nma.spm.read_payload(entry_id)
            if staged is None or content_digest(staged) != expected_digest:
                self.stats.corruptions_detected += 1
                raise DeviceFault("SPM readback failed its digest check")
            return staged

        detected_before = self.stats.corruptions_detected
        try:
            staged = retry_with_backoff(
                read_once, on_retry=self._count_transient_retry
            )
        except DeviceFault:
            self.stats.corruptions_recovered += 1
            raise
        if self.stats.corruptions_detected > detected_before:
            self.stats.corruptions_recovered += 1
        return staged

    # -- CPU paths: the striped layout behind the baseline's hooks -------------

    def _compress(self, data: bytes) -> bytes:
        layout, codec = self.layout, self.codec
        return layout.pack([codec.compress(s) for s in layout.split(data)])

    def _decompress(self, blob: bytes) -> bytes:
        layout, codec = self.layout, self.codec
        return layout.gather([codec.decompress(s) for s in layout.unpack(blob)])

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

    def _compress_stripe(self, nma, driver, row: int, stripe: bytes, digest):
        """One stripe through its DIMM: doorbell, SPM staging, compress,
        verified readback. Returns ``(request, segment, digest)``, with
        segment ``None`` when it is too large for the page to be stored
        and ``digest`` its :func:`content_digest`; raises
        an :data:`_OFFLOAD_FAILURES` error for the CPU fallback. Both
        reservations are released on every path."""
        request = self._retried(
            lambda: driver.submit_compress(
                source_row=row, input_bytes=len(stripe)
            )
        )
        try:
            # Device side: stage, compress, write back — all on-DIMM.
            nma.pop_request()
            # The device-side staging admit can lose a race the driver's
            # lazy bound did not see.
            entry = nma.spm.admit(len(stripe))
            try:
                segment = self._retried(
                    lambda: nma.compress_page(stripe, digest)
                )
                self.traffic.nma_read_bytes += len(stripe)
                if len(segment) * self.layout.num_dimms > int(
                    PAGE_SIZE * self.max_stored_fraction
                ):
                    return request, None, None
                # The segment is staged in the SPM before the pool
                # writeback; the readback is digest-verified (SPM bit
                # flips happen *here*).
                nma.spm.complete(
                    entry.entry_id, output_bytes=len(segment), payload=segment
                )
                segment_digest = content_digest(segment)
                return request, self._read_staged_verified(
                    nma, entry.entry_id, segment_digest
                ), segment_digest
            finally:
                nma.spm.release(entry.entry_id)
        finally:
            driver.notify_release(len(stripe))

    def xfm_swap_out(self, page: Page) -> SwapOutcome:
        """Offload compression to the NMAs; falls back to the CPU when an
        SPM or a request queue is exhausted or a device fault outlasts
        its retries."""
        if page.swapped:
            raise SfmError(f"page 0x{page.vaddr:x} already swapped")
        if page.data is None:
            raise SfmError(f"page 0x{page.vaddr:x} has no resident data")
        # One page hash per store: the NMA memo key and the record's
        # page digest.
        digest = self._store_digest(page.data)
        row = self._row_of(page.vaddr)
        stripes = self.layout.split(page.data)
        requests, segments = [], []
        for nma, driver, stripe in zip(self.nmas, self.drivers, stripes):
            try:
                request, segment, blob_digest = self._compress_stripe(
                    nma, driver, row, stripe, digest
                )
            except _OFFLOAD_FAILURES as exc:
                return self._fallback_compress(page, exc)
            if segment is None:
                self.stats.rejected += 1
                return SwapOutcome(False, "incompressible")
            requests.append(request)
            segments.append(segment)
        blob = self.layout.pack(segments)
        try:
            handle = self.zpool.store(blob)
        except ZpoolFullError:
            self.stats.rejected += 1
            return SwapOutcome(False, "pool-full")
        self.traffic.nma_write_bytes += len(blob)
        self.stats.offloaded_compressions += 1
        if len(segments) > 1:
            # One segment is the blob, already hashed; several are not.
            blob_digest = content_digest(blob)
        self._commit(page, handle, blob, digest, blob_digest)
        if _trace.tracing_enabled():
            # The DIMMs compress their stripes in parallel.
            dur_ns = self.nmas[0].config.compress_time_ns(len(stripes[0]))
            for request, segment in zip(requests, segments):
                _spans.emit_under(
                    "nma_compress",
                    _trace.TRACK_NMA,
                    _sim_clock.now_ns(),
                    dur_ns,
                    args={
                        "request_id": request.request_id,
                        "blob_bytes": len(segment),
                    },
                )
            self._lat_store.observe(dur_ns)
        return SwapOutcome(True, "ok", len(blob))

    # -- swap-in: CPU by default, offload for prefetch ------------------------

    def _decompress_stripe(self, nma, segment: bytes, stripe_bytes: int):
        """One segment through its DIMM's engine: SPM staging,
        decompress, verified readback; the SPM entry is released on
        every path."""
        entry = nma.spm.admit(stripe_bytes)
        try:
            data = self._retried(lambda: nma.decompress_blob(segment))
            if len(data) != stripe_bytes:
                raise SfmError(
                    f"decompressed stripe is {len(data)} bytes, "
                    f"expected {stripe_bytes}"
                )
            # The decompressed stripe stages in the SPM before its
            # writeback; verify the readback just like the compress
            # direction.
            nma.spm.complete(entry.entry_id, payload=data)
            return self._read_staged_verified(
                nma, entry.entry_id, content_digest(data)
            )
        finally:
            nma.spm.release(entry.entry_id)

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
        num_dimms = self.layout.num_dimms
        segment_bytes = self.zpool.entry(record.handle).length // num_dimms
        stripe_bytes = PAGE_SIZE // num_dimms
        row = self._row_of(page.vaddr)
        requests = []
        try:
            try:
                for nma, driver in zip(self.nmas, self.drivers):
                    requests.append(self._retried(
                        lambda: driver.submit_decompress(
                            source_row=row,
                            input_bytes=segment_bytes,
                            dest_row=row,
                            output_bytes=stripe_bytes,
                        )
                    ))
                    nma.pop_request()
                # Verified read: corruption is detected (and poisoned
                # when unrecoverable) before the accelerators touch the
                # blob.
                blob = self._load_verified(record, page.vaddr)
                self.traffic.nma_read_bytes += len(blob)
                stripes = [
                    self._decompress_stripe(nma, segment, stripe_bytes)
                    for nma, segment in zip(
                        self.nmas, self.layout.unpack(blob)
                    )
                ]
            finally:
                for driver in self.drivers[: len(requests)]:
                    driver.notify_release(stripe_bytes)
        except _OFFLOAD_FAILURES as exc:
            return self._fallback_decompress(page, exc)
        data = self.layout.gather(stripes)
        self.traffic.nma_write_bytes += PAGE_SIZE
        self._drop(page.vaddr)
        page.swapped = False
        page.data = data
        self.stats.swap_ins += 1
        self.stats.offloaded_decompressions += 1
        self.stats.bytes_in_uncompressed += PAGE_SIZE
        self.stats.bytes_in_compressed += len(blob)
        if _trace.tracing_enabled():
            dur_ns = self.nmas[0].config.decompress_time_ns(segment_bytes)
            for request in requests:
                _spans.emit_under(
                    "nma_decompress",
                    _trace.TRACK_NMA,
                    _sim_clock.now_ns(),
                    dur_ns,
                    args={
                        "request_id": request.request_id,
                        "blob_bytes": segment_bytes,
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

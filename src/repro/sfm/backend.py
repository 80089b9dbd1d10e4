"""Baseline CPU SFM backend: the zswap-like ``swapOut``/``swapIn`` path.

Implements the control flow of §6's baseline: ``swap_out`` checks pool
capacity (compacting if needed), compresses the cold page on the CPU, and
stores it in the zpool under one index record per page (pool handle plus
integrity digests); ``swap_in`` looks up the record, decompresses, and
returns the page. Every step charges CPU cycles
(via the codec's :class:`~repro.compression.base.CodecSpec`) and DDR
channel traffic (cold page read + compressed write, and the reverse on
swap-in) — overheads O2/O3 of §3.2 that XFM later removes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.compression.base import Codec
from repro.compression.zstd_like import ZstdLikeCodec
from repro.errors import (
    ConfigError,
    CorruptedBlobError,
    CorruptStreamError,
    EntryNotFoundError,
    SfmError,
    ZpoolFullError,
)
from repro.resilience.integrity import BlobRecord, content_digest, page_digest
from repro.resilience.retry import retry_with_backoff
from repro.sfm.digest_cache import DIGEST_CYCLES_PER_BYTE, DigestPageCache
from repro.sfm.metrics import SwapStats, TrafficStats
from repro.sfm.page import PAGE_SIZE, Page
from repro.sfm.zpool import Zpool
from repro.sim import CLOCK as _sim_clock
from repro.telemetry import flightrec as _flightrec
from repro.telemetry import spans as _spans
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.tiering.protocol import SwapOutcome
from repro.validation.hooks import checkpoint

__all__ = ["BLOB_SIZE_BUCKETS", "SfmBackend"]

#: Compressed-blob size histogram bounds (bytes): page fractions the
#: Fig. 8 ratio sweeps care about.
BLOB_SIZE_BUCKETS = (256, 512, 1024, 1536, 2048, 3072, 4096)


class SfmBackend:
    """CPU-compression far-memory backend over a bounded zpool."""

    #: Pages compressing worse than this fraction of PAGE_SIZE are
    #: rejected: storing them would waste pool space (zswap rejects
    #: same-size-or-bigger results; production stacks use a threshold).
    max_stored_fraction = 0.9

    def __init__(
        self,
        capacity_bytes: int,
        codec: Optional[Codec] = None,
        cpu_freq_hz: float = 2.6e9,
        page_cache_entries: int = 1024,
        registry: Optional[MetricsRegistry] = None,
        tier: Optional[str] = None,
    ) -> None:
        self.codec = codec if codec is not None else ZstdLikeCodec()
        self.cpu_freq_hz = cpu_freq_hz
        self.zpool = Zpool(capacity_bytes)
        #: vaddr -> the stored page's one record: its pool handle and the
        #: digests checked on every swap-in, so a corrupted blob is
        #: detected before (and after) decompression instead of
        #: returning garbage.
        self.index: Dict[int, BlobRecord] = {}
        #: Per-System metrics home: swap counters, driver counters (XFM),
        #: and the blob-size histogram all live here.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Report/registry label; ``tier=None`` keeps the historical
        #: unlabelled series names (the single-backend case).
        self.tier_name = tier if tier is not None else "cpu"
        labels = {"tier": tier} if tier is not None else {}
        self.stats = SwapStats(registry=self.registry, labels=labels)
        self.traffic = TrafficStats(registry=self.registry, labels=labels)
        self.blob_sizes = self.registry.histogram(
            "swap.blob_bytes", buckets=BLOB_SIZE_BUCKETS, **labels
        )
        #: Device-level latency quantiles per op class (simulated ns),
        #: recorded only under tracing; cached so the hot path skips the
        #: registry lookup.
        self._lat_store = self.registry.quantile(
            "op_latency_ns", op="store", tier=self.tier_name
        )
        self._lat_load = self.registry.quantile(
            "op_latency_ns", op="load", tier=self.tier_name
        )
        #: Content-keyed blob cache; ``page_cache_entries=0`` disables it.
        self.page_cache: Optional[DigestPageCache] = (
            DigestPageCache(page_cache_entries) if page_cache_entries else None
        )

    # -- capacity ------------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.zpool.capacity_bytes

    def stored_pages(self) -> int:
        return len(self.index)

    def used_bytes(self) -> int:
        """Pool footprint: slabs consumed times slab size."""
        return self.zpool.used_slabs() * self.zpool.slab_size

    def effective_bytes_freed(self) -> int:
        """Resident bytes released minus pool footprint consumed — the
        memory SFM actually wins back."""
        resident_released = self.stored_pages() * PAGE_SIZE
        footprint = self.zpool.used_slabs() * self.zpool.slab_size
        return resident_released - footprint

    def contains(self, vaddr: int) -> bool:
        return vaddr in self.index

    # -- swap-out path (compression) -------------------------------------------

    def swap_out(self, page: Page) -> SwapOutcome:
        """Compress ``page`` into far memory, one page per call.

        A digest-cache hit reuses an earlier blob of identical content
        and charges only the hash. Returns a rejected
        :class:`SwapOutcome` (rather than raising) when the page is
        incompressible or the pool is full — both are normal
        control-plane signals, not errors.
        """
        if page.swapped:
            raise SfmError(f"page 0x{page.vaddr:x} already swapped")
        if page.data is None:
            raise SfmError(f"page 0x{page.vaddr:x} has no resident data")

        # One hash per store: the cache key and the record's page digest.
        digest = page_digest(page.data)
        page_cache = self.page_cache
        cached = None if page_cache is None else page_cache.get(digest)
        max_blob_len = int(PAGE_SIZE * self.max_stored_fraction)
        if cached is not None:
            # Identical content was compressed before: reuse the blob
            # (and its digest, once it was stored) and pay only the
            # hash, not the compressor.
            blob_len, blob, blob_digest = cached
            self.stats.digest_cache_hits += 1
            cycles = DIGEST_CYCLES_PER_BYTE * PAGE_SIZE
        else:
            if page_cache is not None:
                self.stats.digest_cache_misses += 1
            blob = self._compress(page.data)
            blob_len = len(blob)
            blob_digest = None
            cycles = self.codec.spec.compress_cycles_per_byte * PAGE_SIZE
            if page_cache is not None:
                # A blob too large to store is cached as its verdict
                # alone: a hit on it only needs the length to refuse.
                page_cache.put(
                    digest,
                    (blob_len, blob if blob_len <= max_blob_len else None, None),
                )
        self.stats.cpu_compress_cycles += cycles
        if _trace.tracing_enabled():
            dur_ns = cycles / self.cpu_freq_hz * 1e9
            _spans.emit_under(
                "cpu_compress",
                _trace.TRACK_CPU,
                _sim_clock.now_ns(),
                dur_ns,
                args={"cached": cycles == DIGEST_CYCLES_PER_BYTE * PAGE_SIZE},
            )
            _sim_clock.advance_ns(dur_ns)
            self._lat_store.observe(dur_ns)
        # O3: the cold page is read from DRAM, the blob written back.
        self.traffic.channel_read_bytes += PAGE_SIZE

        if blob_len > max_blob_len:
            self.stats.rejected += 1
            return SwapOutcome(
                accepted=False, reason="incompressible", cpu_cycles=cycles
            )
        try:
            handle = self.zpool.store(blob)
        except ZpoolFullError:
            self.stats.rejected += 1
            return SwapOutcome(
                accepted=False, reason="pool-full", cpu_cycles=cycles
            )
        self.traffic.channel_write_bytes += blob_len
        if blob_digest is None:
            # Only a stored blob is hashed, and only once per cached entry.
            blob_digest = content_digest(blob)
            if page_cache is not None:
                page_cache.put(digest, (blob_len, blob, blob_digest))
        self._commit(page, handle, blob, digest, blob_digest)
        return SwapOutcome(
            accepted=True, compressed_len=blob_len, cpu_cycles=cycles
        )

    def _compress(self, data: bytes) -> bytes:
        return self.codec.compress(data)

    def swap_out_batch(self, pages: Sequence[Page]) -> List[SwapOutcome]:
        # Kept only as a patch point of benchmarks/e2e/layers.py.
        return [self.swap_out(page) for page in pages]

    # -- the index ----------------------------------------------------------------

    def _commit(
        self,
        page: Page,
        handle: int,
        blob: bytes,
        digest: bytes,
        blob_digest: bytes,
    ) -> None:
        """Index ``page`` by its pooled ``blob`` and account the
        swap-out; the tail of every accepted store path. ``digest`` is
        the page's :func:`page_digest`, ``blob_digest`` the blob's
        :func:`content_digest`."""
        self.index[page.vaddr] = BlobRecord(
            handle=handle,
            blob_digest=blob_digest,
            page_digest=digest,
        )
        page.swapped = True
        page.data = None
        self.stats.swap_outs += 1
        self.stats.bytes_out_uncompressed += PAGE_SIZE
        self.stats.bytes_out_compressed += len(blob)
        self.blob_sizes.observe(len(blob))
        checkpoint(self)

    def _record(self, vaddr: int) -> BlobRecord:
        try:
            return self.index[vaddr]
        except KeyError:
            raise EntryNotFoundError(
                f"page 0x{vaddr:x} not in the index"
            ) from None

    def _drop(self, vaddr: int) -> None:
        """Free ``vaddr``'s blob and forget its record."""
        self.zpool.free(self.index.pop(vaddr).handle)
        checkpoint(self)

    # -- verified recovery -------------------------------------------------------

    def _load_verified(self, record: BlobRecord, vaddr: int) -> bytes:
        """Load a blob and check it against its integrity record.

        A digest mismatch is *detected* corruption: re-reads (bounded,
        backed-off) heal transient read corruption and count as
        *recovered*; persistent media corruption exhausts the retries,
        poisons the page, and raises :class:`CorruptedBlobError` — an
        explicit data-loss report, never silent garbage.
        """
        blob = self.zpool.load(record.handle)
        if record.blob_ok(blob):
            return blob
        self.stats.corruptions_detected += 1

        def reread() -> bytes:
            data = self.zpool.load(record.handle)
            if not record.blob_ok(data):
                raise CorruptedBlobError(
                    f"blob for page 0x{vaddr:x} failed its digest check",
                    vaddr=vaddr,
                )
            return data

        try:
            blob = retry_with_backoff(
                reread,
                retry_on=(CorruptedBlobError,),
                on_retry=self._count_transient_retry,
            )
        except CorruptedBlobError:
            self._poison(vaddr)
            raise
        self.stats.corruptions_recovered += 1
        return blob

    def _count_transient_retry(
        self, attempt: int, exc: BaseException
    ) -> None:
        self.stats.transient_retries += 1

    def _poison(self, vaddr: int) -> None:
        """Unrecoverable corruption: drop the blob and its record,
        account the loss, and leave the caller an explicit error."""
        self.stats.poison_pages += 1
        self._drop(vaddr)
        if _trace.tracing_enabled():
            _spans.instant_under(
                "poison_page",
                _trace.TRACK_CPU,
                args={"vaddr": vaddr},
            )
        _flightrec.trigger(
            _flightrec.REASON_POISON,
            {"vaddr": vaddr, "tier": self.tier_name},
        )

    # -- swap-in path (decompression) ---------------------------------------------

    def swap_in(self, page: Page) -> bytes:
        """Decompress ``page`` back into local memory and return its data.

        Raises :class:`~repro.errors.CorruptedBlobError` when the stored
        blob fails verified recovery — the page is poisoned (dropped
        from the pool) and the caller must treat its contents as lost.
        """
        if not page.swapped:
            raise SfmError(f"page 0x{page.vaddr:x} is not in far memory")
        record = self._record(page.vaddr)
        blob = self._load_verified(record, page.vaddr)
        self.traffic.channel_read_bytes += len(blob)
        try:
            data = self._decompress(blob)
        except CorruptStreamError:
            # The blob digest matched yet the stream is bad — recorded
            # corruption (stored corrupt): poison, report explicitly.
            self.stats.corruptions_detected += 1
            self._poison(page.vaddr)
            raise CorruptedBlobError(
                f"stored blob for page 0x{page.vaddr:x} does not decode",
                vaddr=page.vaddr,
            ) from None
        if len(data) != PAGE_SIZE:
            raise SfmError(
                f"decompressed page is {len(data)} bytes, "
                f"expected {PAGE_SIZE}"
            )
        if not record.page_ok(data):
            # The codec tolerated a flipped bit (e.g. in a literal run):
            # caught by the end-to-end page digest.
            self.stats.corruptions_detected += 1
            self._poison(page.vaddr)
            raise CorruptedBlobError(
                f"page 0x{page.vaddr:x} decoded to different contents",
                vaddr=page.vaddr,
            )
        cycles = self.codec.spec.decompress_cycles_per_byte * PAGE_SIZE
        self.stats.cpu_decompress_cycles += cycles
        if _trace.tracing_enabled():
            dur_ns = cycles / self.cpu_freq_hz * 1e9
            _spans.emit_under(
                "cpu_decompress",
                _trace.TRACK_CPU,
                _sim_clock.now_ns(),
                dur_ns,
                args={"blob_bytes": len(blob)},
            )
            _sim_clock.advance_ns(dur_ns)
            self._lat_load.observe(dur_ns)
        self.traffic.channel_write_bytes += PAGE_SIZE
        self._drop(page.vaddr)
        page.swapped = False
        page.data = data
        self.stats.swap_ins += 1
        self.stats.bytes_in_uncompressed += PAGE_SIZE
        self.stats.bytes_in_compressed += len(blob)
        return data

    def _decompress(self, blob: bytes) -> bytes:
        return self.codec.decompress(blob)

    def promote(self, page: Page) -> bytes:
        """Promotion path; the CPU tier has no accelerator, so this is
        the demand path."""
        return self.swap_in(page)

    def invalidate(self, vaddr: int) -> bool:
        """Drop the stored copy of ``vaddr`` without decompressing it
        (swap-slot-freed path); returns False when not held."""
        if vaddr not in self.index:
            return False
        self._drop(vaddr)
        return True

    # -- maintenance ------------------------------------------------------------

    def compact(self) -> int:
        """Manually-initiated compaction (``xfm_compact`` analogue, §6)."""
        moved = self.zpool.compact()
        # Compaction memcpys cross the channel twice (read + write).
        self.traffic.channel_read_bytes += moved
        self.traffic.channel_write_bytes += moved
        checkpoint(self)
        return moved

    def swap_latency_s(self, direction: str) -> float:
        """Single-page CPU (de)compression latency at this backend's clock."""
        if direction == "out":
            cycles = self.codec.spec.compress_cycles_per_byte * PAGE_SIZE
        elif direction == "in":
            cycles = self.codec.spec.decompress_cycles_per_byte * PAGE_SIZE
        else:
            raise ConfigError(f"direction must be in/out, got {direction}")
        return cycles / self.cpu_freq_hz

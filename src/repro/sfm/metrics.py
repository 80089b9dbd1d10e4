"""Counters shared by the SFM backends and the XFM emulator.

Two kinds of count matter for the paper's experiments: swap statistics
(how much was compressed/decompressed, at what CPU cost) and memory
traffic — the CPU-side SFM traffic over the DDR channel that Fig. 1/
Fig. 11 charge against co-runners versus the NMA-side traffic XFM hides
inside refresh windows.

:class:`SwapStats` and :class:`TrafficStats` are
:class:`~repro.telemetry.stats.Stats`: plain fields the swap paths
increment, read by a bound
:class:`~repro.telemetry.registry.MetricsRegistry` at snapshot time.
Every backend owns one of each, bound under one ``tier`` label, so a
tier's traffic exports as ``swap.channel_read_bytes{tier=...}`` and
``swap.nma_*_bytes{tier=...}`` beside its ``swap.*`` counters.
"""

from __future__ import annotations

from repro.telemetry.stats import Stats


class SwapStats(Stats):
    """Aggregate swap-path statistics (plain fields, registry views)."""

    _PREFIX = "swap"
    _FIELDS = {
        "swap_outs": 0,
        "swap_ins": 0,
        "rejected": 0,
        "bytes_out_uncompressed": 0,
        "bytes_out_compressed": 0,
        "bytes_in_uncompressed": 0,
        "bytes_in_compressed": 0,
        "cpu_compress_cycles": 0.0,
        "cpu_decompress_cycles": 0.0,
        "cpu_fallback_compressions": 0,
        "cpu_fallback_decompressions": 0,
        "offloaded_compressions": 0,
        "offloaded_decompressions": 0,
        # Digest-keyed page-cache accounting: a hit reuses a previously
        # compressed blob for identical page content and skips the
        # compressor; a miss runs the compressor as usual.
        "digest_cache_hits": 0,
        "digest_cache_misses": 0,
        # Per-reason fallback ledger (repro.telemetry.reasons codes).
        # Invariant: these sum to cpu_fallback_compressions +
        # cpu_fallback_decompressions, and each trace ``cpu_fallback``
        # event carries exactly one of the codes — the reconciliation
        # the `python -m repro trace` acceptance test checks.
        "fallbacks_spm_full": 0,
        "fallbacks_queue_full": 0,
        "fallbacks_demand": 0,
        "fallbacks_device_fault": 0,
        # Resilience accounting (repro.resilience): transient device
        # faults observed, bounded-retry attempts spent on them, and the
        # verified-recovery ledger — a detection is an integrity-digest
        # mismatch; it either becomes a recovery (re-read or CPU-path
        # fallback succeeded) or a poison page (data explicitly lost,
        # surfaced as CorruptedBlobError, never returned as garbage).
        "device_faults": 0,
        "transient_retries": 0,
        "corruptions_detected": 0,
        "corruptions_recovered": 0,
        "poison_pages": 0,
    }
    __slots__ = tuple(_FIELDS)

    @property
    def mean_compression_ratio(self) -> float:
        if not self.bytes_out_compressed:
            return 0.0
        return self.bytes_out_uncompressed / self.bytes_out_compressed

    @property
    def total_cpu_cycles(self) -> float:
        return self.cpu_compress_cycles + self.cpu_decompress_cycles


class TrafficStats(Stats):
    """Memory traffic of one tier's swap paths, in bytes (plain fields,
    registry views under the ``swap`` prefix).

    ``channel_*`` is what crosses the DDR channel or the DFM link: the
    CPU reading a cold page and writing its blob, and the reverse on
    swap-in. ``nma_*`` stays on the DIMM: the accelerator's own reads
    and writes, invisible to the channel.
    """

    _PREFIX = "swap"
    _FIELDS = {
        "channel_read_bytes": 0,
        "channel_write_bytes": 0,
        "nma_read_bytes": 0,
        "nma_write_bytes": 0,
    }
    __slots__ = tuple(_FIELDS)

    @property
    def channel_bytes(self) -> int:
        """Bytes that crossed the DDR channel or the DFM link."""
        return self.channel_read_bytes + self.channel_write_bytes

    @property
    def nma_bytes(self) -> int:
        """Bytes the near-memory accelerator moved on the DIMM."""
        return self.nma_read_bytes + self.nma_write_bytes

    @property
    def total_bytes(self) -> int:
        return self.channel_bytes + self.nma_bytes


def promotion_rate(bytes_accessed_per_min: float, far_bytes: float) -> float:
    """Promotion rate (§2.1): fraction of far memory accessed per minute."""
    if far_bytes <= 0:
        return 0.0
    return bytes_accessed_per_min / far_bytes


def gb_swapped_per_min(extra_gb: float, promo_rate: float) -> float:
    """EQ1: GBSwappedPerMin = ExtraGB x PromotionRate."""
    return extra_gb * promo_rate

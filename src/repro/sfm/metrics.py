"""Counters shared by the SFM backends and the XFM emulator.

Two ledgers matter for the paper's experiments: swap statistics (how much
was compressed/decompressed, at what CPU cost) and memory-channel traffic
split by actor — the CPU-side SFM traffic that Fig. 1/Fig. 11 charge
against co-runners versus the NMA-side traffic XFM hides inside refresh
windows.

:class:`SwapStats` is a :class:`~repro.telemetry.stats.Stats`: plain
fields the swap paths increment, read by a bound
:class:`~repro.telemetry.registry.MetricsRegistry` at snapshot time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro._units import SECONDS_PER_MINUTE
from repro.errors import ConfigError
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
    def digest_cache_hit_rate(self) -> float:
        """Fraction of digest-cache *lookups* that hit.

        The denominator is cache lookups (hits + misses), not swap-outs:
        same-filled pages bypass the backend entirely in the zswap
        frontend, and runs with the cache disabled perform no lookups at
        all, so neither appears here. For the share of swap-out attempts
        that consulted the cache, see :attr:`digest_cache_lookup_rate`.
        """
        total = self.digest_cache_hits + self.digest_cache_misses
        return self.digest_cache_hits / total if total else 0.0

    @property
    def digest_cache_lookup_rate(self) -> float:
        """Fraction of swap-out attempts that consulted the digest cache.

        Attempts = accepted swap-outs + rejected ones; lookups = hits +
        misses. This is 1.0 when the cache is enabled (every backend
        swap-out hashes the page first) and 0.0 when it is disabled —
        the honest companion to :attr:`digest_cache_hit_rate`, whose
        denominator excludes non-lookups.
        """
        attempts = self.swap_outs + self.rejected
        lookups = self.digest_cache_hits + self.digest_cache_misses
        return lookups / attempts if attempts else 0.0

    @property
    def mean_compression_ratio(self) -> float:
        if not self.bytes_out_compressed:
            return 0.0
        return self.bytes_out_uncompressed / self.bytes_out_compressed

    @property
    def total_cpu_cycles(self) -> float:
        return self.cpu_compress_cycles + self.cpu_decompress_cycles

    @property
    def fallback_fraction(self) -> float:
        """Fraction of (de)compressions the CPU had to perform (Fig. 12)."""
        fallbacks = (
            self.cpu_fallback_compressions + self.cpu_fallback_decompressions
        )
        offloads = (
            self.offloaded_compressions + self.offloaded_decompressions
        )
        total = fallbacks + offloads
        return fallbacks / total if total else 0.0


#: (actor, direction) -> ledger key, filled on the first use of a pair.
_LEDGER_KEYS: Dict[Tuple[str, str], str] = {}


def _ledger_key(actor: str, direction: str) -> str:
    """Check a pair's direction and remember its ledger key."""
    if direction not in ("read", "write"):
        raise ConfigError(f"direction must be read/write, got {direction}")
    key = _LEDGER_KEYS[actor, direction] = f"{actor}:{direction}"
    return key


@dataclass
class BandwidthLedger:
    """Memory-channel traffic accounting, bytes by (actor, direction).

    Actors: ``app`` (co-running applications), ``sfm_cpu`` (CPU-side swap
    traffic over the DDR channel), ``nma`` (on-DIMM accelerator traffic,
    invisible to the channel).
    """

    window_s: float = SECONDS_PER_MINUTE
    _bytes: Dict[str, int] = field(default_factory=dict)

    def record(self, actor: str, direction: str, num_bytes: int) -> None:
        """Add ``num_bytes`` of traffic for (actor, direction)."""
        key = _LEDGER_KEYS.get((actor, direction))
        if key is None:
            key = _ledger_key(actor, direction)
        self._bytes[key] = self._bytes.get(key, 0) + num_bytes

    def total(self, actor: str) -> int:
        """Total bytes (read + write) for ``actor``."""
        return sum(
            count
            for key, count in self._bytes.items()
            if key.startswith(f"{actor}:")
        )

    def channel_bytes(self) -> int:
        """Bytes that crossed the DDR channel (everything but the NMA)."""
        return sum(
            count
            for key, count in self._bytes.items()
            if not key.startswith("nma:")
        )

    def bandwidth_bps(self, actor: str, elapsed_s: float) -> float:
        """Average bandwidth of ``actor`` over ``elapsed_s`` seconds."""
        if elapsed_s <= 0:
            return 0.0
        return self.total(actor) / elapsed_s

    def snapshot(self) -> Dict[str, int]:
        return dict(self._bytes)

    def reset(self) -> None:
        self._bytes.clear()


def promotion_rate(bytes_accessed_per_min: float, far_bytes: float) -> float:
    """Promotion rate (§2.1): fraction of far memory accessed per minute."""
    if far_bytes <= 0:
        return 0.0
    return bytes_accessed_per_min / far_bytes


def gb_swapped_per_min(extra_gb: float, promo_rate: float) -> float:
    """EQ1: GBSwappedPerMin = ExtraGB x PromotionRate."""
    return extra_gb * promo_rate

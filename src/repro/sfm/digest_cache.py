"""Digest-keyed compressed-page cache for the SFM store path.

Google's TMTS and Meta's TMO observe that swapped-out working sets carry
heavy content duplication (zeroed allocator slabs, fork-shared pages,
templated heap objects). zswap already special-cases the degenerate form
— same-value-filled pages — in the frontend; this cache generalises the
idea to *any* repeated page content at the backend: the compressed blob
is cached under a digest of the uncompressed page, so storing a page
whose exact bytes were compressed before skips the compressor entirely
and reuses the blob.

Content addressing makes invalidation free: a mutated page hashes to a
different key and simply misses, so no store/invalidate bookkeeping can
ever serve stale bytes. The only failure mode is a digest collision;
with a 128-bit keyed BLAKE2b digest this is negligible (the same
trade-off content-addressed storage systems make). The key is the
page's integrity digest, :func:`repro.resilience.integrity.page_digest`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.errors import ConfigError

#: Cycles/byte charged for hashing a page on the hit path (BLAKE2b runs
#: ~2 cycles/byte on a server core; the miss path's hash cost is noise
#: against the compressor and is folded into its cycles/byte figure).
DIGEST_CYCLES_PER_BYTE = 2.0


class DigestPageCache:
    """Bounded LRU map: page digest -> compressed blob."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ConfigError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: "OrderedDict[bytes, bytes]" = OrderedDict()

    def get(self, digest: bytes) -> Optional[bytes]:
        """Cached blob for ``digest``, refreshing its LRU position."""
        blob = self._entries.get(digest)
        if blob is not None:
            self._entries.move_to_end(digest)
        return blob

    def put(self, digest: bytes, blob: bytes) -> None:
        """Insert (or refresh) a digest -> blob mapping, evicting LRU."""
        entries = self._entries
        if digest in entries:
            entries.move_to_end(digest)
        entries[digest] = blob
        if len(entries) > self.max_entries:
            entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._entries

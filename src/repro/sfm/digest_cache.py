"""Digest-keyed compressed-page cache for the SFM store path.

Google's TMTS and Meta's TMO observe that swapped-out working sets carry
heavy content duplication (zeroed allocator slabs, fork-shared pages,
templated heap objects). zswap already special-cases the degenerate form
— same-value-filled pages — in the frontend; this cache generalises the
idea to *any* repeated page content at the backend: the compressed blob
is cached under a digest of the uncompressed page, so storing a page
whose exact bytes were compressed before skips the compressor entirely
and reuses the blob. Beside the blob the SFM backend keeps the blob's
own digest, so a hit hashes nothing but the page, and for a blob it
refuses as incompressible it keeps only the length, the verdict a hit
needs.

Content addressing makes invalidation free: a mutated page hashes to a
different key and simply misses, so no store/invalidate bookkeeping can
ever serve stale bytes. The only failure mode is a digest collision;
with a 128-bit SHA-256 prefix this is negligible for accidental
duplicates (the same trade-off content-addressed storage systems make).
The key is the page's integrity digest,
:func:`repro.resilience.integrity.page_digest`.

The XFM backend's accelerator reuses this class, unmodelled, as the
memo of its functional compress
(:meth:`repro.core.nma.NearMemoryAccelerator.compress_page`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.errors import ConfigError

#: Cycles/byte charged for hashing a page on the hit path: the page
#: digest is SHA-256, which a server core's SHA extensions run at ~2
#: cycles/byte. It models that hardware hash, not the host's, and is
#: deliberately unchanged from when the digest was BLAKE2b.
#: The miss path's hash cost is noise against the compressor and is
#: folded into its cycles/byte figure.
DIGEST_CYCLES_PER_BYTE = 2.0


class DigestPageCache:
    """Bounded LRU map: page digest -> what its owner cached for it (the
    SFM backend: ``(blob length, blob, blob digest)``, with no blob kept
    for one too large to store; the NMA memo: a blob)."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ConfigError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: "OrderedDict[bytes, Any]" = OrderedDict()

    def get(self, digest: bytes) -> Optional[Any]:
        """Cached value for ``digest``, refreshing its LRU position."""
        value = self._entries.get(digest)
        if value is not None:
            self._entries.move_to_end(digest)
        return value

    def put(self, digest: bytes, value: Any) -> None:
        """Insert (or refresh) a mapping for ``digest``, evicting LRU."""
        entries = self._entries
        if digest in entries:
            entries.move_to_end(digest)
        entries[digest] = value
        if len(entries) > self.max_entries:
            entries.popitem(last=False)


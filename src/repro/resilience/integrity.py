"""Per-page integrity digests backing verified recovery.

The SFM backend indexes every stored page by one :class:`BlobRecord`:
the page's pool handle, the digest of the compressed blob as written,
and the digest of the original page contents. On swap-in the blob
digest is checked before decompression (catches media/read corruption
without relying on the codec to notice) and the page digest after
(catches anything the codec silently tolerated, e.g. a bit flip in a
literal run).

The page digest (:func:`page_digest`, 16-byte blake2b) is also the key
of the digest page cache (and of the XFM accelerator's compress memo),
so a store hashes its page once for both; the blob digest
(:func:`content_digest`) is an 8-byte blake2b, kept beside a cached
blob so a cache hit does not hash the blob again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: 128 bits: collision probability ~2^-64 at a billion pages.
DIGEST_SIZE = 16


def page_digest(data: bytes) -> bytes:
    """Content key of a page: 128-bit blake2b digest."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


def content_digest(data: bytes) -> bytes:
    """8-byte blake2b digest of a blob."""
    return hashlib.blake2b(data, digest_size=8).digest()


@dataclass(frozen=True)
class BlobRecord:
    """Index record for one stored page."""

    #: Pool handle of the compressed blob.
    handle: int
    #: :func:`content_digest` of the blob exactly as handed to the pool.
    blob_digest: bytes
    #: :func:`page_digest` of the original (uncompressed) page contents.
    page_digest: bytes

    def blob_ok(self, blob: bytes) -> bool:
        return content_digest(blob) == self.blob_digest

    def page_ok(self, page: bytes) -> bool:
        return page_digest(page) == self.page_digest

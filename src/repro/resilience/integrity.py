"""Per-page integrity digests backing verified recovery.

The SFM backend indexes every stored page by one :class:`BlobRecord`:
the page's pool handle, the digest of the compressed blob as written,
and the digest of the original page contents. On swap-in the blob
digest is checked before decompression (catches media/read corruption
without relying on the codec to notice) and the page digest after
(catches anything the codec silently tolerated, e.g. a bit flip in a
literal run).

The page digest (:func:`page_digest`, SHA-256 truncated to 128 bits)
is also the key of the digest page cache (and of the XFM accelerator's
compress memo), so a store hashes its page once for both; the blob
digest (:func:`content_digest`, SHA-256 truncated to 64 bits) is kept
beside a cached blob so a cache hit does not hash the blob again.

SHA-256/128 and SHA-256/64 because server cores hash SHA-256 in
hardware (x86 SHA extensions, ARMv8 SHA2), which OpenSSL's
``hashlib.sha256`` uses: on a Xeon with ``sha_ni`` a 4 KiB page hashes
in 3.3 µs against 5.4-5.8 µs for BLAKE2b-128. Only host time changes; the modelled hash cost on the digest-cache hit path
(:data:`repro.sfm.digest_cache.DIGEST_CYCLES_PER_BYTE`) stands for the
hardware hash and is unchanged. These digests live only in memory: the
trace format's on-disk page digest
(:func:`repro.scenarios.format.digest_hex`) stays BLAKE2b-128.
"""

from __future__ import annotations

from hashlib import sha256
from typing import NamedTuple

#: 128 bits: collision probability ~2^-64 at a billion pages.
DIGEST_SIZE = 16


def page_digest(data: bytes) -> bytes:
    """Content key of a page: SHA-256 truncated to 128 bits."""
    return sha256(data).digest()[:DIGEST_SIZE]


def content_digest(data: bytes) -> bytes:
    """Digest of a blob: SHA-256 truncated to 64 bits."""
    return sha256(data).digest()[:8]


class BlobRecord(NamedTuple):
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

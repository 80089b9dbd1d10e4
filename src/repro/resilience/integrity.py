"""Per-blob integrity digests backing verified recovery.

The SFM backend indexes every stored page by one :class:`BlobRecord`:
the page's pool handle, the digest of the compressed blob as written,
and the digest of the original page contents. On swap-in the blob
digest is checked before decompression (catches media/read corruption
without relying on the codec to notice) and the page digest after
(catches anything the codec silently tolerated, e.g. a bit flip in a
literal run).

Digests are 8-byte blake2b — the same size/primitive as the digest page
cache in :mod:`repro.sfm.backend`, a few microseconds per 4 KiB page
against millisecond-scale Python codec work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def content_digest(data: bytes) -> bytes:
    """8-byte blake2b digest of ``data``."""
    return hashlib.blake2b(bytes(data), digest_size=8).digest()


@dataclass(frozen=True)
class BlobRecord:
    """Index record for one stored page."""

    #: Pool handle of the compressed blob.
    handle: int
    #: Digest of the compressed blob exactly as handed to the pool.
    blob_digest: bytes
    #: Digest of the original (uncompressed) page contents.
    page_digest: bytes

    def blob_ok(self, blob: bytes) -> bool:
        return content_digest(blob) == self.blob_digest

    def page_ok(self, page: bytes) -> bool:
        return content_digest(page) == self.page_digest

"""The integrity digests and the trace format's digest are two hashes.

The in-memory integrity digests (:mod:`repro.resilience.integrity`) are
SHA-256 prefixes, hashed in hardware on server cores; the trace format's
page key (:func:`repro.scenarios.format.digest_hex`) is on disk and
stays BLAKE2b-128, pinned here by a known answer so a change to the
integrity digest can never move a shipped trace.

A one-bit flip in a *stored blob* is caught by ``BlobRecord.blob_ok``
through the backend in
``tests/resilience/test_recovery.py::TestZpoolCorruption::
test_transient_read_corruption_recovered``; the decoded-page side,
``page_ok``, is checked directly below.
"""

import hashlib

import pytest

from repro.compression.zstd_like import ZstdLikeCodec
from repro.resilience.integrity import (
    DIGEST_SIZE,
    BlobRecord,
    content_digest,
    page_digest,
)
from repro.scenarios.format import digest_hex
from repro.sfm.page import PAGE_SIZE
from repro.workloads.corpus import generate_corpus


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_trace_format_digest_is_blake2b_128():
    assert digest_hex(bytes(PAGE_SIZE)) == "5f6df6002bc71ca2d81a7492de37025d"


def test_integrity_digest_sizes():
    page = bytes(range(256)) * (PAGE_SIZE // 256)
    assert DIGEST_SIZE == 16
    assert len(page_digest(page)) == 16
    assert len(content_digest(page[:2000])) == 8


def test_integrity_digests_are_sha256_prefixes():
    page = bytes(range(256)) * (PAGE_SIZE // 256)
    full = hashlib.sha256(page).digest()
    assert page_digest(page) == full[:16]
    assert content_digest(page) == full[:8]


@pytest.fixture(scope="module")
def stored():
    page = generate_corpus("json-records", PAGE_SIZE, seed=5)
    blob = ZstdLikeCodec().compress(page)
    return page, blob, BlobRecord(7, content_digest(blob), page_digest(page))


def test_record_accepts_intact_blob_and_page(stored):
    page, blob, record = stored
    assert record.blob_ok(blob) and record.page_ok(page)


@pytest.mark.parametrize("where", [0, 0.5, 1])
def test_one_bit_flip_in_a_decoded_page_is_caught(stored, where):
    page, _, record = stored
    byte = min(int(where * len(page)), len(page) - 1)
    for bit in range(8):
        assert not record.page_ok(_flip(page, byte * 8 + bit))


def test_record_is_immutable(stored):
    _, _, record = stored
    with pytest.raises(AttributeError):
        record.handle = 8  # type: ignore[misc]

"""Page-batch codec API: equivalence, edge pages, and telemetry.

The batch contract (DESIGN.md codec section): ``compress_batch(pages)[i]
== compress(pages[i])`` byte-for-byte — batching is a call-site concept,
and ``Codec`` holds its one implementation. These tests pin that
equivalence across all registered codecs, exercise the degenerate
batches the tier pipeline actually produces (empty pages, duplicated
same-filled pages), and assert the ``batch_stats`` counters the
swap-path tests rely on.
"""

import pytest

from repro.compression import DeflateCodec, LzFastCodec, ZstdLikeCodec
from repro.compression.base import Codec, batch_stats
from repro.workloads.corpus import corpus_pages

CODEC_FACTORIES = {
    "deflate": DeflateCodec,
    "deflate-1k": lambda: DeflateCodec(window_size=1024),
    "lzfast": LzFastCodec,
    "zstd-like": ZstdLikeCodec,
}


@pytest.fixture(params=sorted(CODEC_FACTORIES))
def codec(request):
    return CODEC_FACTORIES[request.param]()


def _mixed_pages():
    pages = [
        page
        for corpus in ("json-records", "heap-pointers")
        for page in corpus_pages(corpus, 3, seed=9)
    ]
    # The degenerate shapes swap paths actually see: empty data, an
    # all-zero page, a short run page, and an exact duplicate.
    pages += [b"", b"\x00" * 4096, b"\xab" * 4096, pages[0]]
    return pages


class TestBatchEqualsScalar:
    def test_compress_batch_matches_scalar_blob_for_blob(self, codec):
        pages = _mixed_pages()
        assert codec.compress_batch(pages) == [
            codec.compress(page) for page in pages
        ]

    def test_decompress_batch_round_trips(self, codec):
        pages = _mixed_pages()
        blobs = codec.compress_batch(pages)
        assert codec.decompress_batch(blobs) == pages

    def test_empty_batch(self, codec):
        assert codec.compress_batch([]) == []
        assert codec.decompress_batch([]) == []

    def test_all_same_filled_pages(self, codec):
        pages = [b"\x55" * 4096] * 8
        blobs = codec.compress_batch(pages)
        assert len(set(blobs)) == 1  # identical input, identical blob
        assert codec.decompress_batch(blobs) == pages


class TestBatchTelemetry:
    def test_batch_calls_and_pages_counted(self, codec):
        batch_stats.reset()
        pages = _mixed_pages()
        blobs = codec.compress_batch(pages)
        codec.decompress_batch(blobs)
        assert batch_stats.compress_batch_calls == 1
        assert batch_stats.decompress_batch_calls == 1
        assert batch_stats.compress_batch_pages == len(pages)
        assert batch_stats.decompress_batch_pages == len(pages)

    def test_codecs_share_the_base_class_implementation(self, codec):
        assert type(codec).compress_batch is Codec.compress_batch
        assert type(codec).decompress_batch is Codec.decompress_batch

    def test_record_site_accumulates(self):
        batch_stats.reset()
        batch_stats.record_site("multichannel", 4)
        batch_stats.record_site("multichannel", 3)
        batch_stats.record_site("tier_demote", 8)
        assert batch_stats.site_pages == {
            "multichannel": 7,
            "tier_demote": 8,
        }

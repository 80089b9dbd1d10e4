"""Native C hot-path kernels vs the pure-Python reference.

The accelerator contract is byte-identity: ``_hotpath.c`` is a
decision-for-decision translation, so flipping ``REPRO_NO_NATIVE`` must
change *nothing* about any emitted blob or decoded page. These tests
run each codec twice — native allowed, native forbidden — over the same
corpus and compare output bytes, which also pins the golden-CRC suite
to a single answer regardless of which engine a CI host loads.
"""

import os

import pytest

from repro.compression import _native
from repro.compression.deflate import DeflateCodec, train_static_tables
from repro.compression.lz77 import Lz77Matcher
from repro.compression.lzfast import LzFastCodec
from repro.compression.tuning import DEFAULT_GRID
from repro.workloads.corpus import CORPUS_NAMES, corpus_pages


@pytest.fixture
def no_native(monkeypatch):
    """Force the pure-Python engines for the duration of one test."""
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    _native.reset_for_tests()
    yield
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    _native.reset_for_tests()


def _corpus():
    return [
        page
        for corpus in sorted(CORPUS_NAMES)
        for page in corpus_pages(corpus, 2, seed=21)
    ] + [b"", b"\x00" * 4096, b"a" * 4096]


@pytest.mark.skipif(
    not _native.available() and not os.environ.get("REPRO_NO_NATIVE"),
    reason="no native kernels on this host; differential is vacuous",
)
class TestNativeVsPython:
    def test_deflate_blobs_byte_identical(self, no_native):
        pages = _corpus()
        python_blobs = DeflateCodec().compress_batch(pages)
        _native.reset_for_tests()
        del os.environ["REPRO_NO_NATIVE"]
        native_codec = DeflateCodec()
        assert native_codec.compress_batch(pages) == python_blobs
        assert native_codec.decompress_batch(python_blobs) == pages

    def test_lzfast_blobs_byte_identical(self, no_native):
        pages = _corpus()
        python_blobs = LzFastCodec().compress_batch(pages)
        _native.reset_for_tests()
        del os.environ["REPRO_NO_NATIVE"]
        native_codec = LzFastCodec()
        assert native_codec.compress_batch(pages) == python_blobs
        assert native_codec.decompress_batch(python_blobs) == pages

    def test_static_mode_blobs_byte_identical(self, no_native):
        pages = [p for p in _corpus() if p]
        tables = train_static_tables(pages, domain="diff")
        static = DeflateCodec(window_size=4096, static_tables=tables)
        python_blobs = static.compress_batch(pages)
        _native.reset_for_tests()
        del os.environ["REPRO_NO_NATIVE"]
        tables2 = train_static_tables(pages, domain="diff")
        assert tables2.table_id == tables.table_id
        static2 = DeflateCodec(window_size=4096, static_tables=tables2)
        assert static2.compress_batch(pages) == python_blobs
        # Cross-engine decode: native decoder reads python-encoded
        # blobs (and the plain codec reads mode-3 registry-free).
        assert DeflateCodec().decompress_batch(python_blobs) == pages


@pytest.mark.skipif(
    not _native.available(), reason="no native kernels on this host"
)
class TestNativeMatcherVsScalarReference:
    """The matcher link of the oracle chain, on page-sized input: the C
    kernel against the declared reference, token for token."""

    @pytest.mark.parametrize("window_size,max_chain,lazy", DEFAULT_GRID)
    def test_tokens_identical(self, window_size, max_chain, lazy):
        matcher = Lz77Matcher(
            window_size=window_size, max_chain=max_chain, lazy=lazy
        )
        for page in _corpus() + [bytes(range(37)) + b"y" * (4096 - 37)]:
            native = matcher._tokenize_packed_native(page)
            assert native is not None
            assert list(native) == list(matcher._tokenize_packed_scalar(page))

"""Native C hot-path kernels vs the pure-Python reference.

The accelerator contract is byte-identity: ``_hotpath.c`` is a
decision-for-decision translation, so flipping ``REPRO_NO_NATIVE`` must
change *nothing* about any emitted blob or decoded page. These tests
run each codec twice — native allowed, native forbidden — over the same
corpus and compare output bytes, which also pins the golden-CRC suite
to a single answer regardless of which engine a CI host loads.
"""

import os
import random

import numpy as np
import pytest

from repro.compression import _native
from repro.compression.base import MAX_EXPANSION
from repro.compression.bitio import BitReader, read_varint_bits
from repro.compression.deflate import DeflateCodec, train_static_tables
from repro.compression.huffman import code_lengths_from_frequencies
from repro.compression.lz77 import Lz77Matcher
from repro.compression.lzfast import LzFastCodec
from repro.compression.tuning import DEFAULT_GRID
from repro.compression.zstd_like import ZstdLikeCodec
from repro.errors import ConfigError, CorruptStreamError
from repro.validation.fuzz import case_seed
from repro.validation.generators import gen_blob_mutation, tail_damage
from repro.validation.oracles import decode_outcome
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


def _zstd_like_boundary_pages():
    rng = random.Random(5)
    return [
        b"q" * 5,  # one distinct literal; stored (too short to pay off)
        bytes([3]) * 2 + bytes([9]) * 4094,  # two literals' worth of table
        bytes(range(256)) * 16,  # all 256 byte values as literals
        bytes(rng.getrandbits(8) for _ in range(4096)),  # incompressible
    ]


def _frequency_vectors():
    """Seeded frequency vectors per alphabet: empty, single-symbol, flat,
    random, and Fibonacci-weighted (the shape that drives tree depth
    past any clamp and forces the Kraft repair)."""
    rng = random.Random(20)
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    for n in (19, 30, 256, 286):
        yield [0] * n
        yield [0] * (n - 1) + [5]
        yield [1] * n
        for _ in range(12):
            used = rng.randint(2, n)
            for weights in (
                [rng.randint(1, 4096) for _ in range(used)],
                [rng.choice(fib) for _ in range(used)],
                fib[: min(used, len(fib))],
            ):
                yield rng.sample(weights + [0] * (n - len(weights)), n)


def _lengths_or_error(frequencies, max_length):
    try:
        return code_lengths_from_frequencies(frequencies, max_length)
    except ConfigError as exc:
        return str(exc)


#: Corpora whose pages compress (not stored) under every codec, so the
#: last bytes of their blobs are bit stream.
_TAIL_CORPORA = ("json-records", "text-english", "binary-structs")


def _tail_damaged_blobs(codec):
    """``tail_damage`` of one compressed-mode blob per corpus. When the
    kernels are loaded, each intact blob must decode on them: a kernel
    that stops short of the last bytes would otherwise hide behind the
    Python fallback."""
    cases = []
    for corpus in _TAIL_CORPORA:
        page = corpus_pages(corpus, 1, seed=24)[0]
        blob = codec.compress(page)
        assert blob[1] != 0  # compressed, not stored
        if _native.load() is not None:
            assert codec._decompress_native(blob) == page
        cases += tail_damage(blob)
    return cases


def _mutated_blobs(count=600):
    return [
        gen_blob_mutation(random.Random(case_seed(20, index)))
        for index in range(count)
    ] + _tail_damaged_blobs(ZstdLikeCodec())


@pytest.mark.skipif(
    not _native.available() and not os.environ.get("REPRO_NO_NATIVE"),
    reason="no native kernels on this host; differential is vacuous",
)
class TestNativeVsPython:
    @pytest.mark.parametrize("window_size", [4096, 128 * 1024])
    def test_zstd_like_blobs_byte_identical(self, no_native, window_size):
        pages = _corpus() + _zstd_like_boundary_pages()
        python_codec = ZstdLikeCodec(window_size=window_size)
        python_blobs = [python_codec.compress(page) for page in pages]
        _native.reset_for_tests()
        del os.environ["REPRO_NO_NATIVE"]
        native_codec = ZstdLikeCodec(window_size=window_size)
        native_blobs = [native_codec.compress(page) for page in pages]
        assert native_blobs == python_blobs
        assert {blob[1] for blob in native_blobs} == {0, 1}  # both modes
        assert [native_codec.decompress(blob) for blob in python_blobs] == pages
        os.environ["REPRO_NO_NATIVE"] = "1"
        _native.reset_for_tests()
        assert [python_codec.decompress(blob) for blob in native_blobs] == pages

    def test_huffman_lengths_identical(self, no_native):
        cases = [
            (freq, max_length)
            for freq in _frequency_vectors()
            for max_length in (7, 9, 15)
        ]
        python = [_lengths_or_error(*case) for case in cases]
        _native.reset_for_tests()
        del os.environ["REPRO_NO_NATIVE"]
        native = [_lengths_or_error(*case) for case in cases]
        assert native == python
        clamped = sum(
            1 for (_, max_length), lengths in zip(cases, python)
            if not isinstance(lengths, str) and lengths.count(max_length) > 2
        )
        refused = sum(1 for lengths in python if isinstance(lengths, str))
        assert clamped > 50 and refused > 10  # the repair and the refusal ran

    def test_zstd_like_decode_errors_identical(self, no_native):
        """Damaged blobs: same bytes, or same exception type and message."""
        # Native first: the generator compresses one page per case.
        del os.environ["REPRO_NO_NATIVE"]
        _native.reset_for_tests()
        blobs = _mutated_blobs()
        native = [
            decode_outcome(ZstdLikeCodec().decompress, blob) for blob in blobs
        ]
        os.environ["REPRO_NO_NATIVE"] = "1"
        _native.reset_for_tests()
        python = [
            decode_outcome(ZstdLikeCodec().decompress, blob) for blob in blobs
        ]
        assert native == python
        kinds = {outcome[:2] for outcome in python if outcome[0] != "ok"}
        assert len(kinds) >= 8  # the mutations reach many distinct checks
        assert any(outcome[0] == "ok" for outcome in python)

    def test_deflate_blobs_byte_identical(self, no_native):
        pages = _corpus()
        python_codec = DeflateCodec()
        python_blobs = [python_codec.compress(page) for page in pages]
        _native.reset_for_tests()
        del os.environ["REPRO_NO_NATIVE"]
        native_codec = DeflateCodec()
        assert [native_codec.compress(page) for page in pages] == python_blobs
        assert [native_codec.decompress(blob) for blob in python_blobs] == pages

    def test_lzfast_blobs_byte_identical(self, no_native):
        pages = _corpus()
        python_codec = LzFastCodec()
        python_blobs = [python_codec.compress(page) for page in pages]
        _native.reset_for_tests()
        del os.environ["REPRO_NO_NATIVE"]
        native_codec = LzFastCodec()
        assert [native_codec.compress(page) for page in pages] == python_blobs
        assert [native_codec.decompress(blob) for blob in python_blobs] == pages

    def test_static_mode_blobs_byte_identical(self, no_native):
        pages = [p for p in _corpus() if p]
        tables = train_static_tables(pages, domain="diff")
        static = DeflateCodec(window_size=4096, static_tables=tables)
        python_blobs = [static.compress(page) for page in pages]
        _native.reset_for_tests()
        del os.environ["REPRO_NO_NATIVE"]
        tables2 = train_static_tables(pages, domain="diff")
        assert tables2.table_id == tables.table_id
        static2 = DeflateCodec(window_size=4096, static_tables=tables2)
        assert [static2.compress(page) for page in pages] == python_blobs
        # Cross-engine decode: native decoder reads python-encoded
        # blobs (and the plain codec reads mode-3 registry-free).
        plain = DeflateCodec()
        assert [plain.decompress(blob) for blob in python_blobs] == pages


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


@pytest.mark.skipif(
    not _native.available(), reason="no native kernels on this host"
)
def test_zstd_like_native_decoder_writes_inside_its_buffers():
    """Hand the kernel guarded buffers for every damaged blob: whatever
    it returns, the bytes either side of ``out``, ``literals`` and the
    table scratch are untouched."""
    lib = _native.load()
    guard = 64
    table = np.full((1 << 15) + 2 * guard, 0xA5A5A5A5, dtype=np.uint32)
    checked = 0
    for blob in _mutated_blobs():
        reader = BitReader(blob)
        try:
            reader.read_bits(16)
            orig_len = read_varint_bits(reader)
            reader.read_bits(32)
        except CorruptStreamError:
            continue
        if orig_len > MAX_EXPANSION * len(blob):
            continue
        start = len(blob) - reader.bits_remaining // 8
        out = np.full(orig_len + 2 * guard, 0xA5, dtype=np.uint8)
        literals = np.full(orig_len + 2 * guard, 0xA5, dtype=np.uint8)
        blob_np = np.frombuffer(blob, dtype=np.uint8)
        decoded = lib.zstdlike_decode_body(
            blob_np.ctypes.data, len(blob), start,
            table.ctypes.data + 4 * guard,
            literals.ctypes.data + guard,
            out.ctypes.data + guard,
            orig_len,
        )
        assert decoded <= orig_len
        for buf in (out, literals):
            assert (buf[:guard] == 0xA5).all() and (buf[-guard:] == 0xA5).all()
        assert (table[:guard] == 0xA5A5A5A5).all()
        assert (table[-guard:] == 0xA5A5A5A5).all()
        checked += 1
    assert checked > 400


#: ``orig_len`` = 2**42 - 1 in each header's varint flavour (byte groups
#: with the continue flag in the high bit; bit groups with it in the low).
_HUGE_ORIG_LEN = {
    DeflateCodec: "ffffffffff7f",
    LzFastCodec: "ffffffffff7f",
    ZstdLikeCodec: "fffffffffffe",
}


@pytest.fixture(params=["native", "python"])
def engine(request, monkeypatch):
    """Both decode paths; the native one only where a kernel loads."""
    if request.param == "python":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    elif os.environ.get("REPRO_NO_NATIVE"):
        pytest.skip("native kernels are switched off for this run")
    _native.reset_for_tests()
    if request.param == "native" and not _native.available():
        pytest.skip("no native kernels on this host")
    yield request.param
    monkeypatch.undo()
    _native.reset_for_tests()


@pytest.mark.parametrize("codec_cls", sorted(_HUGE_ORIG_LEN, key=repr))
def test_damaged_header_length_is_corrupt_not_an_allocation(codec_cls, engine):
    """A garbage ``orig_len`` varint used to reach ``np.empty`` in the
    native adapters (``MemoryError: Unable to allocate 4.00 TiB``) and
    was unbounded in the Python decoders."""
    import tracemalloc

    page = corpus_pages("json-records", 1, seed=22)[0]
    blob = codec_cls().compress(page)
    assert blob[1] != 0 and len(blob) < len(page)  # a compressed mode
    damaged = blob[:2] + bytes.fromhex(_HUGE_ORIG_LEN[codec_cls]) + blob[4:]
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError, match="header claims"):
            codec_cls().decompress(damaged)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * len(damaged)
    assert codec_cls().decompress(blob) == page


def test_deflate_blob_denser_than_the_native_bound_still_decodes(engine):
    """A valid deflate blob can stand for more than 256 bytes per byte
    (258-byte matches in two bits); the native adapter leaves those to
    Python, which must not mistake them for damage."""
    data = bytes(1 << 16)
    blob = DeflateCodec().compress(data)
    assert len(data) > MAX_EXPANSION * len(blob)
    assert DeflateCodec().decompress(blob) == data

"""Two implementations per codec, held together by generated input.

Every codec is a Python reference plus one C entry per direction
(``repro/compression/_hotpath.c``). This file is the generated half of
the contract ``test_native_differential.py`` states on corpus pages:

* a Hypothesis differential over structured pages x every constructor
  setting a caller uses — native blob == reference blob, each engine
  decodes the other's blob, the elected deflate mode matches;
* the C copy of the RFC 1951 length/distance tables against the Python
  one, code by code;
* seeded damaged blobs of every codec: same bytes, or the same
  exception type and message, on both engines;
* 0xA5 guard bands either side of every buffer every exported entry
  writes, on valid and on damaged input;
* a counting proxy around the loaded library: one kernel call per page
  per direction.

Engines are flipped the one way the suite has: the ``no_native`` and
``engine`` fixtures of ``test_native_differential.py``.
"""

import ctypes
import os
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compression import _native
from repro.compression.base import native_header
from repro.compression.deflate import (
    _DIST_CODES,
    _LENGTH_CODES,
    DeflateCodec,
    _distance_to_code,
    _length_to_code,
)
from repro.compression.lz77 import (
    PACKED_LENGTH_BITS,
    PACKED_LENGTH_MASK,
    Lz77Matcher,
)
from repro.compression.lzfast import LzFastCodec
from repro.compression.static_tables import StaticTableRegistry
from repro.compression.zstd_like import ZstdLikeCodec
from repro.validation.fuzz import case_seed
from repro.validation.generators import gen_blob_mutation
from repro.validation.oracles import decode_outcome
from repro.workloads.corpus import corpus_pages, xorshift_bytes
from tests.compression.test_native_differential import (  # noqa: F401
    _tail_damaged_blobs,
    engine,
    no_native,
)

needs_native = pytest.mark.skipif(
    not _native.available(), reason="no native kernels on this host"
)

_SHIPPED = StaticTableRegistry.load_default().get("json").tables

#: Every constructor setting a caller in ``src/`` or ``benchmarks/`` uses.
CODECS = {
    f"deflate-w{window}-{'lazy' if lazy else 'greedy'}"
    f"{'-static' if static else ''}": (
        lambda window=window, lazy=lazy, static=static: DeflateCodec(
            window_size=window, lazy=lazy, static_tables=static
        )
    )
    for window in (1024, 4096, 32 * 1024)
    for lazy in (True, False)
    for static in (None, _SHIPPED)
}
CODECS["zstd-like-w4096"] = lambda: ZstdLikeCodec(window_size=4096)
CODECS["zstd-like-w131072"] = lambda: ZstdLikeCodec(window_size=128 * 1024)
CODECS["lzfast"] = LzFastCodec

_WORDS = (
    b"the far memory page is compressed near the refresh window and "
    b"promoted on demand while the accelerator idles between banks"
).split()


@st.composite
def _segments(draw, size):
    """``size`` bytes of one redundancy structure."""
    kind = draw(st.sampled_from(("runs", "units", "noise", "text")))
    out = bytearray()
    if kind == "runs":
        while len(out) < size:
            out += bytes([draw(st.integers(0, 255))]) * draw(
                st.integers(1, 600)
            )
    elif kind == "units":
        unit = xorshift_bytes(
            draw(st.integers(1, 2**32 - 1)), draw(st.integers(1, 300))
        )
        out += unit * (size // len(unit) + 1)
    elif kind == "noise":
        out += xorshift_bytes(draw(st.integers(1, 2**32 - 1)), size)
    else:
        while len(out) < size:
            out += draw(st.sampled_from(_WORDS)) + b" "
    return bytes(out[:size])


@st.composite
def structured_pages(draw):
    """Pages at the lengths where matchers and bit writers change
    behaviour, made of one to three segments; or 64 KiB of zeros, the
    blob denser than the native header bound."""
    if draw(st.integers(0, 19)) == 0:
        return bytes(1 << 16)
    size = draw(
        st.sampled_from((0, 1, 2, 3, 257, 258, 259, 4095, 4096, 4097))
    )
    cuts = sorted(draw(st.lists(st.integers(0, size), max_size=2)))
    bounds = [0, *cuts, size]
    return b"".join(
        draw(_segments(end - start))
        for start, end in zip(bounds, bounds[1:])
    )


def _both_engines(make_codec, page):
    """(reference blob, native blob), each decoded by the other engine.
    Runs under ``no_native`` and leaves the reference engine selected."""
    python_codec = make_codec()
    python_blob = python_codec.compress(page)
    del os.environ["REPRO_NO_NATIVE"]
    _native.reset_for_tests()
    try:
        native_codec = make_codec()
        native_blob = native_codec.compress(page)
        assert native_codec.decompress(python_blob) == page
    finally:
        os.environ["REPRO_NO_NATIVE"] = "1"
        _native.reset_for_tests()
    assert python_codec.decompress(native_blob) == page
    return python_blob, native_blob


def _check_identical(make_codec, page):
    python_blob, native_blob = _both_engines(make_codec, page)
    assert native_blob[1] == python_blob[1], "engines elected different modes"
    assert native_blob == python_blob


_SHORT = settings(
    max_examples=12,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_LONG = settings(
    _SHORT,
    derandomize=False,
    # ~10 ms an example x 15 codecs: about a third of the budget.
    max_examples=max(
        12, 2 * int(float(os.environ.get("FUZZ_TIME_BUDGET_S", "6")))
    ),
)


@needs_native
@pytest.mark.parametrize("name", sorted(CODECS))
@_SHORT
@given(page=structured_pages())
def test_native_blob_is_the_reference_blob(no_native, name, page):
    _check_identical(CODECS[name], page)


@needs_native
@pytest.mark.fuzz
@pytest.mark.parametrize("name", sorted(CODECS))
@_LONG
@given(page=structured_pages())
def test_fuzz_native_blob_is_the_reference_blob(no_native, name, page):
    _check_identical(CODECS[name], page)


@needs_native
def test_every_deflate_mode_is_elected_identically(no_native):
    """Stored, dynamic, fixed and static, each on the page shape that
    elects it — on both engines."""
    json_page = corpus_pages("json-records", 1, seed=5)[0]
    plain = CODECS["deflate-w4096-lazy"]
    static = CODECS["deflate-w4096-lazy-static"]
    elected = {
        _both_engines(make_codec, page)[1][1]
        for make_codec, page in (
            (plain, xorshift_bytes(9, 4096)),
            (plain, json_page),
            (plain, b"far memory, " * 4),
            (static, json_page),
        )
    }
    assert elected == {0, 1, 2, 3}


def _page_with_match(distance, length):
    """A seed of ``distance`` noise bytes, its first ``length`` bytes
    again (period ``distance``), then one byte that ends the match."""
    seed = xorshift_bytes(distance * 2654435761 % 2**32 or 1, distance)
    body = seed + (seed * (length // distance + 1))[:length]
    return body + bytes([body[len(body) - distance] ^ 0xFF])


@needs_native
def test_c_length_and_distance_tables_match_the_python_ones(no_native):
    """``_hotpath.c`` keeps RFC 1951's tables as ``static const`` data;
    ``deflate.py`` derives them. One page per end of every code's range
    puts each code through both encoders (blobs identical) and, on the
    cross-decode, through both decoders."""
    def ends(codes, top):
        for index, (base, extra) in enumerate(codes):
            last = min(base + (1 << extra) - 1, top)
            yield from ((base, index), (last, index))

    lengths = list(ends(_LENGTH_CODES[:-1], 257)) + [(258, 28), (258, 28)]
    distances = list(ends(_DIST_CODES, 32 * 1024))
    matcher = Lz77Matcher()
    seen_lengths, seen_distances = set(), set()
    for case, (distance, _) in enumerate(distances):
        page = _page_with_match(distance, lengths[case % len(lengths)][0])
        _check_identical(DeflateCodec, page)
        for token in matcher.tokenize_packed(page):
            if token >= 256:
                seen_lengths.add(
                    _length_to_code(token & PACKED_LENGTH_MASK)[0] - 257
                )
                seen_distances.add(
                    _distance_to_code(token >> PACKED_LENGTH_BITS)[0]
                )
    assert seen_lengths == set(range(29))
    assert seen_distances == set(range(30))


def _damaged_blobs(codec_cls, count=300):
    """Seeded mutations, then truncations and bit flips in the last
    bytes, where the decoders' word-wide refill hands over to their
    byte loop."""
    return [
        gen_blob_mutation(random.Random(case_seed(24, index)), codec_cls)
        for index in range(count)
    ] + _tail_damaged_blobs(codec_cls())


@needs_native
@pytest.mark.parametrize("codec_cls", [DeflateCodec, LzFastCodec], ids=repr)
def test_decode_errors_identical(no_native, codec_cls):
    """Damaged blobs: same bytes, or same exception type and message,
    whichever engine ``decompress`` starts on (the zstd-like format has
    its own, structural, edition in ``test_native_differential.py``)."""
    # Native first: the generator compresses one page per case.
    del os.environ["REPRO_NO_NATIVE"]
    _native.reset_for_tests()
    blobs = _damaged_blobs(codec_cls)
    native = [decode_outcome(codec_cls().decompress, blob) for blob in blobs]
    os.environ["REPRO_NO_NATIVE"] = "1"
    _native.reset_for_tests()
    python = [decode_outcome(codec_cls().decompress, blob) for blob in blobs]
    assert native == python
    kinds = {outcome[:2] for outcome in python if outcome[0] != "ok"}
    assert len(kinds) >= 4  # the damage reaches several distinct checks
    assert any(outcome[0] == "ok" for outcome in python)


# -- kernels stay inside their buffers ---------------------------------------

_GUARD = 64


class _Guarded:
    """``size`` writable bytes with 0xA5 canaries either side."""

    def __init__(self, size):
        self.size = size
        self.raw = (ctypes.c_uint8 * (size + 2 * _GUARD))()
        ctypes.memset(self.raw, 0xA5, len(self.raw))
        self.ptr = ctypes.addressof(self.raw) + _GUARD

    def intact(self):
        canary = b"\xa5" * _GUARD
        return (
            bytes(self.raw[:_GUARD]) == canary
            and bytes(self.raw[_GUARD + self.size :]) == canary
        )


def _valid_pages():
    rng = random.Random(24)
    return [
        b"",
        b"x",
        bytes(4096),
        bytes(1 << 16),
        xorshift_bytes(7, 4096),
        *corpus_pages("json-records", 2, seed=24),
        *corpus_pages("binary-structs", 2, seed=24),
        bytes(rng.getrandbits(8) for _ in range(259)),
    ]


def _guard_lz77_tokenize(lib):
    for page in _valid_pages():
        n = len(page)
        head, prev, out = _Guarded(4 << 15), _Guarded(4 * n), _Guarded(8 * n)
        ntok = lib.lz77_tokenize(
            page, n, 4096, 3, 258, 64, 1, head.ptr, prev.ptr, out.ptr
        )
        assert 0 <= ntok <= n
        yield head, prev, out


def _guard_huffman_code_lengths(lib):
    rng = random.Random(24)
    for n in (0, 1, 19, 30, 256, 286, 512):
        freq = (ctypes.c_int64 * n)(*(rng.randrange(50) for _ in range(n)))
        lengths = _Guarded(n)
        for max_length in (7, 15):
            assert lib.huffman_code_lengths(freq, n, max_length, lengths.ptr) <= 0
            yield (lengths,)


def _guard_compress(entry, matcher_args, static_args=()):
    def run(lib):
        for page in _valid_pages():
            n = len(page)
            # The adapter's capacity, and ones too small for any body.
            for cap in (n, n // 8, 0):
                out = _Guarded(cap)
                mode = ctypes.c_int64(-1)
                written = getattr(lib, entry)(
                    page, n, *matcher_args, *static_args,
                    out.ptr, cap, ctypes.byref(mode),
                )
                assert written <= cap
                yield (out,)

    return run


def _guard_lzfast_compress(lib):
    for page in _valid_pages():
        n = len(page)
        for cap in (n + n // 128 + 16, n // 8, 0):
            table, out = _Guarded(4 << 13), _Guarded(cap)
            written = lib.lzfast_compress(
                page, n, 0xFFFF, table.ptr, out.ptr, cap
            )
            assert written <= cap
            yield table, out


def _guard_decompress(codec_cls, call):
    def run(lib):
        blobs = [codec_cls().compress(page) for page in _valid_pages()]
        checked = 0
        for blob in blobs + _damaged_blobs(codec_cls):
            header = native_header(
                blob, blob[0] if blob else 0, codec_cls is ZstdLikeCodec
            )
            if header is None:
                continue
            mode, orig_len, _, pos = header
            buffers = call(lib, blob, pos, mode, orig_len)
            checked += 1
            yield buffers
        assert checked > 200

    return run


def _call_deflate_decompress(lib, blob, pos, mode, orig_len):
    out = _Guarded(orig_len)
    assert lib.deflate_decompress(
        blob, len(blob), pos, mode, out.ptr, orig_len
    ) <= orig_len
    return (out,)


def _call_lzfast_decompress(lib, blob, pos, mode, orig_len):
    out = _Guarded(orig_len)
    assert lib.lzfast_decompress(
        blob, len(blob), pos, out.ptr, orig_len
    ) <= orig_len
    return (out,)


def _call_zstdlike_decode_body(lib, blob, pos, mode, orig_len):
    table, literals, out = (
        _Guarded(4 << 15), _Guarded(orig_len), _Guarded(orig_len)
    )
    assert lib.zstdlike_decode_body(
        blob, len(blob), pos, table.ptr, literals.ptr, out.ptr, orig_len
    ) <= orig_len
    return table, literals, out


GUARDED_ENTRIES = {
    "lz77_tokenize": _guard_lz77_tokenize,
    "huffman_code_lengths": _guard_huffman_code_lengths,
    "deflate_compress": _guard_compress(
        "deflate_compress", (32768, 3, 258, 64, 1), (None, None, None, 0)
    ),
    "deflate_compress[static]": _guard_compress(
        "deflate_compress", (4096, 3, 258, 64, 1), _SHIPPED.kernel_args
    ),
    "deflate_decompress": _guard_decompress(
        DeflateCodec, _call_deflate_decompress
    ),
    "lzfast_compress": _guard_lzfast_compress,
    "lzfast_decompress": _guard_decompress(
        LzFastCodec, _call_lzfast_decompress
    ),
    "zstdlike_compress": _guard_compress(
        "zstdlike_compress", (128 * 1024, 3, 258, 96, 1)
    ),
    "zstdlike_decode_body": _guard_decompress(
        ZstdLikeCodec, _call_zstdlike_decode_body
    ),
}


@needs_native
@pytest.mark.parametrize("entry", sorted(GUARDED_ENTRIES))
def test_kernel_writes_inside_its_buffers(entry):
    """Whatever an entry returns — on valid input, on an output capacity
    too small for the result, on seeded damaged blobs — the bytes either
    side of every buffer it was handed are untouched."""
    calls = 0
    for buffers in GUARDED_ENTRIES[entry](_native.load()):
        assert all(buffer.intact() for buffer in buffers)
        calls += 1
    assert calls >= 10


def test_every_exported_entry_has_a_guard_band_test():
    source = Path(_native._SOURCE).read_text(encoding="utf-8")
    exported = set(re.findall(r"^int64_t (\w+)\(", source, re.MULTILINE))
    assert exported == {name.split("[")[0] for name in GUARDED_ENTRIES}


# -- one crossing per page ---------------------------------------------------


class _CountingLibrary:
    """The loaded library, counting calls per entry."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = Counter()

    def __getattr__(self, name):
        entry = getattr(self._lib, name)

        def counted(*args):
            self.calls[name] += 1
            return entry(*args)

        return counted


@needs_native
@pytest.mark.parametrize(
    "name,encode_entry,decode_entry",
    [
        ("deflate-w4096-lazy", "deflate_compress", "deflate_decompress"),
        ("deflate-w32768-lazy", "deflate_compress", "deflate_decompress"),
        ("deflate-w4096-lazy-static", "deflate_compress", "deflate_decompress"),
        ("zstd-like-w131072", "zstdlike_compress", "zstdlike_decode_body"),
        ("lzfast", "lzfast_compress", "lzfast_decompress"),
    ],
)
def test_one_kernel_call_per_page_per_direction(
    monkeypatch, name, encode_entry, decode_entry
):
    page = corpus_pages("json-records", 1, seed=24)[0]
    codec = CODECS[name]()
    counting = _CountingLibrary(_native.load())
    monkeypatch.setattr(_native, "_lib", counting)
    blob = codec.compress(page)
    assert counting.calls == {encode_entry: 1}
    assert blob[1] != 0 and len(blob) < len(page)  # a compressed mode
    counting.calls.clear()
    assert codec.decompress(blob) == page
    assert counting.calls == {decode_entry: 1}

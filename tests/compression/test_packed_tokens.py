"""Packed-token equivalence: the hot-path rewrite cannot drift.

Two layers of pinning:

* **Token-sequence equivalence** — a copy of the seed (pre-overhaul)
  tokenizer lives in this file as the oracle, verbatim except that it
  emits packed ints instead of token objects; the scalar reference
  engine (and whichever engine ``tokenize_packed`` dispatches to) must
  emit the identical token sequence on every corpus class, every
  adversarial buffer, and seeded fuzz pages from the PR-1 generators.

* **Compressed-byte identity** — CRC32s of the blobs the *seed*
  implementation produced (captured at commit 5beed81, before any hot
  path change) for all three codecs across all sixteen corpus classes.
  Any format or token drift in a future rewrite fails these directly.
"""

import random

import pytest
import zlib
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.deflate import DeflateCodec
from repro.compression.lz77 import (
    MIN_MATCH,
    PACKED_LENGTH_BITS,
    PACKED_LENGTH_MASK,
    Lz77Matcher,
    detokenize_packed,
)
from repro.compression.lzfast import LzFastCodec
from repro.compression.zstd_like import ZstdLikeCodec
from repro.validation.generators import ADVERSARIAL_BUFFERS, gen_page
from repro.workloads.corpus import CORPUS_NAMES, corpus_pages

# -- reference implementation (seed tokenizer, verbatim) ---------------------

_HASH_SHIFT = 16
_HASH_MULT = 2654435761
_HASH_BITS = 15
_HASH_MASK = (1 << _HASH_BITS) - 1


def _hash3(data, i):
    key = data[i] | (data[i + 1] << 8) | (data[i + 2] << 16)
    return ((key * _HASH_MULT) >> _HASH_SHIFT) & _HASH_MASK


def _reference_best_match(m, data, pos, head, prev):
    limit = len(data)
    if pos + m.min_match > limit:
        return None
    best_len = m.min_match - 1
    best_dist = 0
    max_len = min(m.max_match, limit - pos)
    window_floor = pos - m.window_size
    candidate = head[_hash3(data, pos)]
    chain_budget = m.max_chain
    while candidate >= 0 and candidate >= window_floor and chain_budget > 0:
        chain_budget -= 1
        if (
            best_len >= m.min_match
            and data[candidate + best_len] != data[pos + best_len]
        ):
            candidate = prev[candidate]
            continue
        length = 0
        while length < max_len and data[candidate + length] == data[pos + length]:
            length += 1
        if length > best_len:
            best_len = length
            best_dist = pos - candidate
            if length >= max_len:
                break
        candidate = prev[candidate]
    if best_len >= m.min_match:
        return (best_dist << PACKED_LENGTH_BITS) | best_len
    return None


def reference_tokenize(m, data):
    """The seed ``Lz77Matcher.tokenize``, emitting packed ints."""
    n = len(data)
    tokens = []
    if n == 0:
        return tokens
    head = [-1] * (1 << _HASH_BITS)
    prev = [-1] * n

    def insert(i):
        if i + MIN_MATCH <= n:
            h = _hash3(data, i)
            prev[i] = head[h]
            head[h] = i

    pos = 0
    while pos < n:
        match = _reference_best_match(m, data, pos, head, prev)
        if match is None:
            tokens.append(data[pos])
            insert(pos)
            pos += 1
            continue
        if m.lazy and pos + 1 + m.min_match <= n:
            insert(pos)
            next_match = _reference_best_match(m, data, pos + 1, head, prev)
            if next_match is not None and (
                next_match & PACKED_LENGTH_MASK
            ) > (match & PACKED_LENGTH_MASK):
                tokens.append(data[pos])
                pos += 1
                continue
            tokens.append(match)
            for i in range(pos + 1, pos + (match & PACKED_LENGTH_MASK)):
                insert(i)
            pos += match & PACKED_LENGTH_MASK
            continue
        tokens.append(match)
        for i in range(pos, pos + (match & PACKED_LENGTH_MASK)):
            insert(i)
        pos += match & PACKED_LENGTH_MASK
    return tokens


def _assert_equivalent(matcher, data):
    reference = reference_tokenize(matcher, data)
    scalar = matcher._tokenize_packed_scalar(data)
    assert list(scalar) == reference
    assert list(matcher.tokenize_packed(data)) == reference
    assert detokenize_packed(scalar) == data


_MATCHER_CONFIGS = (
    {},
    {"window_size": 1024, "max_chain": 16},
    {"window_size": 4096},
    {"lazy": False},
    {"window_size": 128 * 1024, "max_chain": 96},
)


class TestPackedEquivalence:
    @pytest.mark.parametrize("corpus", CORPUS_NAMES)
    def test_all_corpus_classes(self, corpus):
        matcher = Lz77Matcher(window_size=4096)
        for page in corpus_pages(corpus, 2, seed=33):
            _assert_equivalent(matcher, page)

    @pytest.mark.parametrize(
        "data", ADVERSARIAL_BUFFERS, ids=lambda d: f"{len(d)}B"
    )
    def test_adversarial_buffers(self, data):
        for config in _MATCHER_CONFIGS:
            _assert_equivalent(Lz77Matcher(**config), data)

    def test_fuzz_pages_across_configs(self):
        """Seeded PR-1 fuzz pages through every matcher configuration."""
        rng = random.Random(0xC0DEC)
        pages = [gen_page(rng) for _ in range(12)]
        for config in _MATCHER_CONFIGS:
            matcher = Lz77Matcher(**config)
            for page in pages:
                _assert_equivalent(matcher, page)

    @settings(max_examples=30)
    @given(st.binary(max_size=2048))
    def test_arbitrary_bytes_property(self, data):
        _assert_equivalent(Lz77Matcher(window_size=1024, max_chain=16), data)

    @settings(max_examples=15)
    @given(st.binary(min_size=1, max_size=48), st.integers(2, 30))
    def test_repetitive_property(self, chunk, repeats):
        _assert_equivalent(Lz77Matcher(), chunk * repeats)


# -- compressed-byte identity vs the seed implementation ---------------------

#: zlib.crc32 of ``codec.compress(page)`` produced by the pre-overhaul
#: kernels (commit 5beed81) on ``corpus_pages(corpus, 2, seed=33)``.
GOLDEN_BLOB_CRCS = {
    "deflate:base64-blob": [2033680836, 2987753445],
    "deflate:binary-structs": [2551638217, 1535188930],
    "deflate:csv-table": [726266825, 3556245702],
    "deflate:db-btree": [3283631886, 1809755752],
    "deflate:float-matrix": [674487570, 1712529329],
    "deflate:heap-pointers": [552806621, 804764814],
    "deflate:html-markup": [1596670951, 91875110],
    "deflate:integer-array": [3554351039, 2003553437],
    "deflate:json-records": [4252886337, 1840281181],
    "deflate:random-bytes": [3294375240, 3318924845],
    "deflate:server-log": [3275866204, 184359895],
    "deflate:source-code": [988741381, 805781646],
    "deflate:sparse-pages": [4209857504, 860926125],
    "deflate:text-english": [795703595, 500155804],
    "deflate:xml-config": [3628030109, 3055226391],
    "deflate:zero-pages": [110426704, 110426704],
    "lzfast:base64-blob": [905591197, 1351556485],
    "lzfast:binary-structs": [4113586234, 3629963429],
    "lzfast:csv-table": [3705396174, 1113919508],
    "lzfast:db-btree": [219192951, 432923849],
    "lzfast:float-matrix": [3807909628, 1433209291],
    "lzfast:heap-pointers": [650962910, 1725580586],
    "lzfast:html-markup": [4219830341, 489085864],
    "lzfast:integer-array": [1887133426, 2522208087],
    "lzfast:json-records": [237180247, 2584565026],
    "lzfast:random-bytes": [3241890906, 3233136447],
    "lzfast:server-log": [4254133619, 3865853907],
    "lzfast:source-code": [2540642209, 1740401984],
    "lzfast:sparse-pages": [2454964565, 4238913067],
    "lzfast:text-english": [2870287248, 770800523],
    "lzfast:xml-config": [1690030437, 1402761130],
    "lzfast:zero-pages": [3618843886, 3618843886],
    "zstd-like:base64-blob": [58728479, 3358117449],
    "zstd-like:binary-structs": [3283655505, 526043428],
    "zstd-like:csv-table": [1292199262, 4089329792],
    "zstd-like:db-btree": [2946601528, 1493359563],
    "zstd-like:float-matrix": [3334139706, 1898967053],
    "zstd-like:heap-pointers": [3834265891, 2822181719],
    "zstd-like:html-markup": [1427936506, 2341598232],
    "zstd-like:integer-array": [657245126, 1244992238],
    "zstd-like:json-records": [784783410, 2499461565],
    "zstd-like:random-bytes": [3849956764, 3841410809],
    "zstd-like:server-log": [865893622, 3593094440],
    "zstd-like:source-code": [14794354, 3875238551],
    "zstd-like:sparse-pages": [3963575376, 3673044585],
    "zstd-like:text-english": [3831380030, 4147754371],
    "zstd-like:xml-config": [2156333477, 876788913],
    "zstd-like:zero-pages": [1799772536, 1799772536],
}


def _codec_for(name):
    return {
        "deflate": DeflateCodec,
        "lzfast": LzFastCodec,
        "zstd-like": ZstdLikeCodec,
    }[name]()


class TestCompressedByteIdentity:
    @pytest.mark.parametrize("codec_name", ("deflate", "lzfast", "zstd-like"))
    @pytest.mark.parametrize("corpus", CORPUS_NAMES)
    def test_blobs_match_seed_implementation(self, codec_name, corpus):
        codec = _codec_for(codec_name)
        pages = corpus_pages(corpus, 2, seed=33)
        expected = GOLDEN_BLOB_CRCS[f"{codec_name}:{corpus}"]
        for page, crc in zip(pages, expected):
            blob = codec.compress(page)
            assert zlib.crc32(blob) == crc, (
                f"{codec_name} output drifted from the seed implementation "
                f"on corpus {corpus!r}"
            )
            assert codec.decompress(blob) == page

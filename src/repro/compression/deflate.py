"""Deflate-style codec: LZ77 + two-level canonical Huffman.

This is the algorithm family the paper's FPGA accelerator implements
(an open-source Deflate core, §7). The stream layout follows RFC 1951's
structure — dynamic literal/length and distance trees whose code-length
vectors are themselves RLE'd and Huffman-coded — without the zlib container.
Window size is a constructor parameter because Fig. 8 studies ratio loss as
the window shrinks under multi-DIMM interleaving.

Blob layout::

    magic(1) | mode(1) | orig_len(varint) | crc32(4) | payload

``mode`` 0 = stored (incompressible input), 1 = dynamic-table huffman
block, 2 = fixed-tree huffman block (RFC 1951 BTYPE=01 analog), 3 =
corpus-trained static-table huffman block.

Mode-3 payload::

    version(1) | table_id(4) | table header (dynamic encoding) | pad | symbols

Static blobs are **self-describing**: the trained code lengths are
embedded with the same RLE encoding the dynamic header uses, so any
decoder can reconstruct the tables from the blob alone — no registry
required. The ``table_id`` (a digest of the code lengths) plus the
byte-aligned symbol start let a decoder that *does* hold the matching
:class:`StaticTableSet` skip the header parse entirely and jump straight
to the symbol stream with pre-built tables. The version byte gates
future format changes.

Hot paths dispatch to the optional native kernels in
:mod:`repro.compression._native` (bit-exact C translations, compiled on
demand); every call falls back to the pure-Python/numpy engines when the
library is unavailable, and any native decode error re-runs the Python
decoder so error semantics stay identical.
"""

from __future__ import annotations

import ctypes
import hashlib
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression import _native
from repro.compression.base import (
    Codec,
    CodecSpec,
    native_header,
    refuse_overclaim,
    register_codec,
)
from repro.compression.bitio import (
    BitReader,
    BitWriter,
    read_varint_bits,
    write_varint_bits,
)
from repro.compression.huffman import MAX_CODE_LENGTH, HuffmanTable
from repro.compression.lz77 import (
    PACKED_LENGTH_BITS,
    PACKED_LENGTH_MASK,
    Lz77Matcher,
    extend_match,
)
from repro.errors import ConfigError, CorruptStreamError

_MAGIC = 0xD5
_MODE_STORED = 0
_MODE_HUFFMAN = 1
#: RFC 1951 BTYPE=01: pre-agreed fixed trees, no header — wins on small
#: inputs (the 1 KiB per-DIMM stripes of multi-channel mode).
_MODE_HUFFMAN_FIXED = 2
#: Corpus-trained static tables: per-page table build and header render
#: are skipped (the pre-rendered header bytes are copied in), zstd-
#: dictionary style.
_MODE_HUFFMAN_STATIC = 3

#: Version byte leading every mode-3 payload.
_STATIC_FORMAT_VERSION = 1

#: Decoded bytes per blob byte this format can reach: a 258-byte match
#: in a one-bit length code plus a one-bit distance code.
_MAX_EXPANSION = 258 * 8 // 2

_EOB = 256
_NUM_LITLEN = 286
_NUM_DIST = 30
_NUM_CODELEN = 19

# RFC 1951 length-code table: (base_length, extra_bits) for codes 257..285.
_LENGTH_CODES: List[Tuple[int, int]] = (
    [(3 + i, 0) for i in range(8)]
    + [(11 + 2 * i, 1) for i in range(4)]
    + [(19 + 4 * i, 2) for i in range(4)]
    + [(35 + 8 * i, 3) for i in range(4)]
    + [(67 + 16 * i, 4) for i in range(4)]
    + [(131 + 32 * i, 5) for i in range(4)]
    + [(258, 0)]
)

# RFC 1951 distance-code table: (base_distance, extra_bits) for codes 0..29.
_DIST_CODES: List[Tuple[int, int]] = [(1, 0), (2, 0), (3, 0), (4, 0)] + [
    (base, extra)
    for extra in range(1, 14)
    for base in (
        (1 << (extra + 1)) + 1,
        (1 << (extra + 1)) + (1 << extra) + 1,
    )
]


def _length_to_code(length: int) -> Tuple[int, int, int]:
    """Map a match length to (litlen symbol, extra value, extra bits)."""
    if length == 258:
        return 285, 0, 0
    for code_index in range(len(_LENGTH_CODES) - 1, -1, -1):
        base, extra = _LENGTH_CODES[code_index]
        if length >= base:
            return 257 + code_index, length - base, extra
    raise ValueError(f"unencodable match length {length}")


def _distance_to_code(distance: int) -> Tuple[int, int, int]:
    """Map a match distance to (dist symbol, extra value, extra bits)."""
    for code_index in range(len(_DIST_CODES) - 1, -1, -1):
        base, extra = _DIST_CODES[code_index]
        if distance >= base:
            return code_index, distance - base, extra
    raise ValueError(f"unencodable match distance {distance}")


# Hot-path lookup tables replacing the linear scans above. Lengths are a
# direct table over 3..258. Distances use two levels: a direct table for
# 1..256, and a 128-distance-granular table beyond that — valid because
# every distance code past 256 carries >= 7 extra bits, so its range is
# aligned to and spans whole 128-distance slots.
_LEN_TO_CODE: Tuple[Tuple[int, int, int], ...] = tuple(
    _length_to_code(length) if length >= 3 else (0, 0, 0)
    for length in range(259)
)

# (symbol, base, extra_bits) per distance 1..256 (index 0 unused).
_DIST_LO: Tuple[Tuple[int, int, int], ...] = tuple(
    (sym, _DIST_CODES[sym][0], _DIST_CODES[sym][1])
    for d in range(257)
    for sym in (_distance_to_code(d)[0] if d else 0,)
)

# (symbol, base, extra_bits) per 128-distance slot for distances > 256:
# slot = (distance - 1) >> 7. Slots 0/1 cover distances <= 256 and are
# only present so the index needs no offset.
_DIST_HIGH: Tuple[Tuple[int, int, int], ...] = tuple(
    (sym, _DIST_CODES[sym][0], _DIST_CODES[sym][1])
    for slot in range(256)
    for sym in (_distance_to_code(max((slot << 7) + 1, 1))[0],)
)

# Vectorized forms of the mapping tables, shared by the numpy frequency
# accumulator and the native encode/decode kernels (which receive them
# by pointer, keeping Python the single source of truth for the format).
_LEN_SYM_NP = np.array([c[0] for c in _LEN_TO_CODE], dtype=np.uint16)
_LEN_EXTRA_NP = np.array([c[1] for c in _LEN_TO_CODE], dtype=np.uint16)
_LEN_EBITS_NP = np.array([c[2] for c in _LEN_TO_CODE], dtype=np.uint8)
_DIST_LO_SYM_NP = np.array([c[0] for c in _DIST_LO], dtype=np.uint8)
_DIST_HIGH_SYM_NP = np.array([c[0] for c in _DIST_HIGH], dtype=np.uint8)
_DIST_SYM_BASE_NP = np.array([b for b, _ in _DIST_CODES], dtype=np.int32)
_DIST_SYM_EBITS_NP = np.array([e for _, e in _DIST_CODES], dtype=np.uint8)
_LEN_SYM_BASE_NP = np.array([b for b, _ in _LENGTH_CODES], dtype=np.int32)
_LEN_SYM_EBITS_NP = np.array([e for _, e in _LENGTH_CODES], dtype=np.uint8)


def _write_varint(writer: BitWriter, value: int) -> None:
    """LEB128-style varint, written byte-aligned."""
    if value < 0:
        raise ValueError("varint must be non-negative")
    while True:
        chunk = value & 0x7F
        value >>= 7
        writer.write_bits(chunk | (0x80 if value else 0), 8)
        if not value:
            return


def _read_varint(reader: BitReader) -> int:
    value = 0
    shift = 0
    while True:
        byte = reader.read_bits(8)
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7
        if shift > 35:
            raise CorruptStreamError("varint too long")


def _rle_code_lengths(lengths: Sequence[int]) -> List[Tuple[int, int]]:
    """RLE a code-length vector into (symbol, extra) pairs per RFC 1951.

    Symbols 0..15 are literal lengths; 16 repeats the previous length 3-6
    times; 17 emits 3-10 zeros; 18 emits 11-138 zeros.
    """
    out: List[Tuple[int, int]] = []
    i = 0
    n = len(lengths)
    prev = -1
    while i < n:
        value = lengths[i]
        run = 1
        while i + run < n and lengths[i + run] == value:
            run += 1
        if value == 0:
            remaining = run
            while remaining >= 11:
                chunk = min(remaining, 138)
                out.append((18, chunk - 11))
                remaining -= chunk
            while remaining >= 3:
                chunk = min(remaining, 10)
                out.append((17, chunk - 3))
                remaining -= chunk
            for _ in range(remaining):
                out.append((0, 0))
        else:
            start = 0
            if value != prev:
                out.append((value, 0))
                start = 1
            remaining = run - start
            while remaining >= 3:
                chunk = min(remaining, 6)
                out.append((16, chunk - 3))
                remaining -= chunk
            for _ in range(remaining):
                out.append((value, 0))
        prev = value
        i += run
    return out


_CL_EXTRA_BITS = {16: 2, 17: 3, 18: 7}


def _fixed_litlen_lengths() -> List[int]:
    """RFC 1951 fixed literal/length code lengths (3.2.6)."""
    lengths = [8] * 144 + [9] * 112 + [7] * 24 + [8] * 8
    return lengths[:_NUM_LITLEN]


def _fixed_dist_lengths() -> List[int]:
    """RFC 1951 fixed distance code lengths: all 5 bits."""
    return [5] * _NUM_DIST


_FIXED_LITLEN_TABLE = HuffmanTable.from_lengths(_fixed_litlen_lengths())
_FIXED_DIST_TABLE = HuffmanTable.from_lengths(_fixed_dist_lengths())


# ---------------------------------------------------------------------------
# Vectorized token statistics and cached derived state
# ---------------------------------------------------------------------------


def _token_stats(tok_np: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """Symbol-frequency accumulation over a packed token array.

    Vectorized replacement for the per-token Python counting loop:
    returns (litlen frequencies incl. the end-of-block symbol, distance
    frequencies, total extra-bit payload) — exactly what the scalar
    accumulation produced.
    """
    lit_mask = tok_np < 256
    ll_freq = np.bincount(tok_np[lit_mask], minlength=_NUM_LITLEN)
    ll_freq[_EOB] += 1
    matches = tok_np[~lit_mask]
    if len(matches):
        lengths = matches & PACKED_LENGTH_MASK
        dists = matches >> PACKED_LENGTH_BITS
        lsym = _LEN_SYM_NP[lengths].astype(np.int64)
        ll_freq += np.bincount(lsym, minlength=_NUM_LITLEN)
        dsym = np.where(
            dists <= 256,
            _DIST_LO_SYM_NP[np.minimum(dists, 256)],
            _DIST_HIGH_SYM_NP[(dists - 1) >> 7],
        ).astype(np.int64)
        dist_freq = np.bincount(dsym, minlength=_NUM_DIST)
        extra_bits = int(_LEN_EBITS_NP[lengths].sum()) + int(
            _DIST_SYM_EBITS_NP[dsym].sum()
        )
    else:
        dist_freq = np.zeros(_NUM_DIST, dtype=np.int64)
        extra_bits = 0
    return ll_freq, dist_freq, extra_bits


def _symbol_bits(ll_freq, dist_freq, extra_bits, ll_len_np, d_len_np) -> int:
    """Exact bit cost of the symbol stream under the given code lengths."""
    return int(extra_bits + ll_freq @ ll_len_np + dist_freq @ d_len_np)


#: Huffman tables keyed by (max_length, frequency bytes). Pages from one
#: workload repeat symbol distributions constantly (and benchmarks
#: repeat pages exactly), so the heap build — the priciest per-page step
#: after matching — amortises to a dict probe.
_TABLE_CACHE: Dict[Tuple[int, bytes], HuffmanTable] = {}
_TABLE_CACHE_LIMIT = 1024


def _table_from_frequencies(
    frequencies, max_length: int = MAX_CODE_LENGTH
) -> HuffmanTable:
    freq_np = np.asarray(frequencies, dtype=np.int64)
    key = (max_length, freq_np.tobytes())
    table = _TABLE_CACHE.get(key)
    if table is None:
        if len(_TABLE_CACHE) >= _TABLE_CACHE_LIMIT:
            _TABLE_CACHE.clear()
        table = HuffmanTable.from_frequencies(
            [int(f) for f in freq_np], max_length
        )
        _TABLE_CACHE[key] = table
    return table


def _enc_arrays(table: HuffmanTable) -> Tuple[np.ndarray, np.ndarray]:
    """(codes_lsb uint16, lengths uint8) arrays, cached on the table."""
    arrays = getattr(table, "_enc_arrays", None)
    if arrays is None:
        arrays = (
            np.array(table.codes_lsb, dtype=np.uint16),
            np.array(table.lengths, dtype=np.uint8),
        )
        object.__setattr__(table, "_enc_arrays", arrays)
    return arrays


def _render_table_header(
    writer: BitWriter, litlen_table: HuffmanTable, dist_table: HuffmanTable
) -> None:
    """Write the code-length header shared by dynamic and static blobs:
    19 x 3-bit code-length-code lengths, a bit-level varint RLE count,
    then the RLE'd litlen+dist length vector under the code-length code.
    """
    combined = list(litlen_table.lengths) + list(dist_table.lengths)
    rle = _rle_code_lengths(combined)
    cl_freq = [0] * _NUM_CODELEN
    for symbol, _ in rle:
        cl_freq[symbol] += 1
    cl_table = _table_from_frequencies(cl_freq, max_length=7)
    for length in cl_table.lengths:
        writer.write_bits(length, 3)
    write_varint_bits(writer, len(rle))
    for symbol, extra in rle:
        cl_table.encode(writer, symbol)
        extra_bits = _CL_EXTRA_BITS.get(symbol, 0)
        if extra_bits:
            writer.write_bits(extra, extra_bits)


#: Rendered dynamic headers keyed by (litlen lengths, dist lengths):
#: (whole bytes, partial accumulator, partial bit count, total bits).
_HEADER_CACHE: Dict[Tuple[tuple, tuple], Tuple[bytes, int, int, int]] = {}


def _dynamic_header(
    litlen_table: HuffmanTable, dist_table: HuffmanTable
) -> Tuple[bytes, int, int, int]:
    key = (litlen_table.lengths, dist_table.lengths)
    cached = _HEADER_CACHE.get(key)
    if cached is None:
        if len(_HEADER_CACHE) >= _TABLE_CACHE_LIMIT:
            _HEADER_CACHE.clear()
        writer = BitWriter()
        _render_table_header(writer, litlen_table, dist_table)
        cached = (
            bytes(writer._out),
            writer._acc,
            writer._nbits,
            writer.bit_length,
        )
        _HEADER_CACHE[key] = cached
    return cached


_FIXED_LL_LEN_I64 = np.array(_FIXED_LITLEN_TABLE.lengths, dtype=np.int64)
_FIXED_D_LEN_I64 = np.array(_FIXED_DIST_TABLE.lengths, dtype=np.int64)

#: Native decode-table scratch (two full-width 15-bit tables), allocated
#: once; the harness is single-threaded.
_DECODE_SCRATCH: List[np.ndarray] = []


def _decode_scratch() -> Tuple[np.ndarray, np.ndarray]:
    if not _DECODE_SCRATCH:
        _DECODE_SCRATCH.append(np.empty(1 << MAX_CODE_LENGTH, dtype=np.uint32))
        _DECODE_SCRATCH.append(np.empty(1 << MAX_CODE_LENGTH, dtype=np.uint32))
    return _DECODE_SCRATCH[0], _DECODE_SCRATCH[1]


# ---------------------------------------------------------------------------
# Corpus-trained static tables
# ---------------------------------------------------------------------------


class StaticTableSet:
    """One trained litlen/dist table pair plus pre-rendered blob header.

    Owning the format details here keeps mode-3 blobs constructible and
    decodable from this module alone; persistence and per-domain lookup
    live in :mod:`repro.compression.static_tables`.
    """

    __slots__ = (
        "domain",
        "litlen_table",
        "dist_table",
        "table_id",
        "header_bytes",
        "_ll_len_i64",
        "_d_len_i64",
    )

    def __init__(
        self,
        litlen_lengths: Sequence[int],
        dist_lengths: Sequence[int],
        domain: str = "generic",
    ) -> None:
        if len(litlen_lengths) != _NUM_LITLEN:
            raise ConfigError(
                f"need {_NUM_LITLEN} litlen lengths, got {len(litlen_lengths)}"
            )
        if len(dist_lengths) != _NUM_DIST:
            raise ConfigError(
                f"need {_NUM_DIST} dist lengths, got {len(dist_lengths)}"
            )
        self.domain = domain
        self.litlen_table = HuffmanTable.from_lengths(litlen_lengths)
        self.dist_table = HuffmanTable.from_lengths(dist_lengths)
        digest = hashlib.blake2b(
            bytes(litlen_lengths) + bytes(dist_lengths), digest_size=4
        ).digest()
        self.table_id = int.from_bytes(digest, "little")
        writer = BitWriter()
        writer.write_bits(_STATIC_FORMAT_VERSION, 8)
        writer.write_bits(self.table_id, 32)
        _render_table_header(writer, self.litlen_table, self.dist_table)
        # Byte-align so the symbol stream starts on a byte boundary:
        # lets a table-holding decoder jump straight to the symbols.
        self.header_bytes = writer.getvalue()
        self._ll_len_i64 = np.array(self.litlen_table.lengths, dtype=np.int64)
        self._d_len_i64 = np.array(self.dist_table.lengths, dtype=np.int64)

    def symbol_bits(
        self, ll_freq: np.ndarray, dist_freq: np.ndarray, extra_bits: int
    ) -> Optional[int]:
        """Bit cost of a symbol stream under these tables.

        ``None`` when some needed symbol has no code (the page cannot be
        encoded statically and must fall back to another mode).
        """
        if ((ll_freq > 0) & (self._ll_len_i64 == 0)).any():
            return None
        if ((dist_freq > 0) & (self._d_len_i64 == 0)).any():
            return None
        return _symbol_bits(
            ll_freq, dist_freq, extra_bits, self._ll_len_i64, self._d_len_i64
        )


def train_static_tables(
    pages: Sequence[bytes],
    domain: str = "generic",
    window_size: int = 4096,
    max_chain: int = 64,
    lazy: bool = True,
) -> StaticTableSet:
    """Train a :class:`StaticTableSet` from a page corpus.

    Tokenizes every page with the given matcher parameters, accumulates
    symbol frequencies corpus-wide, and add-one smooths them so every
    symbol keeps a code — a static table must be able to encode pages
    that deviate from the corpus (unseen literals, unseen distance
    slots), trading a fraction of a bit of optimality for totality.
    """
    corpus = [p for p in pages if p]
    if not corpus:
        raise ConfigError(
            f"domain {domain!r}: cannot train static tables on an "
            "empty corpus"
        )
    matcher = Lz77Matcher(
        window_size=window_size, max_chain=max_chain, lazy=lazy
    )
    ll_freq = np.zeros(_NUM_LITLEN, dtype=np.int64)
    dist_freq = np.zeros(_NUM_DIST, dtype=np.int64)
    for page in corpus:
        page_ll, page_dist, _ = _token_stats(
            np.frombuffer(matcher.tokenize_packed(page), dtype=np.int64)
        )
        ll_freq += page_ll
        dist_freq += page_dist
    ll_freq += 1
    dist_freq += 1
    litlen_table = _table_from_frequencies(ll_freq)
    dist_table = _table_from_frequencies(dist_freq)
    return StaticTableSet(
        litlen_table.lengths, dist_table.lengths, domain=domain
    )


# ---------------------------------------------------------------------------
# The codec
# ---------------------------------------------------------------------------


@register_codec
class DeflateCodec(Codec):
    """Deflate-style codec; the paper's accelerated algorithm family."""

    name = "deflate"
    # Software deflate (zlib -6) runs ~50-90 MBps/core compress and
    # ~300 MBps/core decompress on a ~2.6 GHz server core.
    spec = CodecSpec(
        name="deflate",
        compress_cycles_per_byte=35.0,
        decompress_cycles_per_byte=9.0,
    )

    def __init__(
        self,
        window_size: int = 32 * 1024,
        max_chain: int = 64,
        lazy: bool = True,
        static_tables: Optional[StaticTableSet] = None,
    ) -> None:
        if window_size > 32 * 1024:
            raise ConfigError(
                f"deflate window cannot exceed 32 KiB, got {window_size}"
            )
        self._matcher = Lz77Matcher(
            window_size=window_size, max_chain=max_chain, lazy=lazy
        )
        self.window_size = window_size
        self._static_tables = static_tables

    # -- encode ----------------------------------------------------------

    def compress(self, data: bytes) -> bytes:
        if data:
            mode, body = self._encode_body(
                data, self._matcher.tokenize_packed(data)
            )
        else:
            mode, body = _MODE_STORED, data
        writer = BitWriter()
        writer.write_bits(_MAGIC, 8)
        writer.write_bits(mode, 8)
        _write_varint(writer, len(data))
        # Content checksum, as production codecs carry (zlib's adler32,
        # zstd's xxhash): a lucky bit flip must not decode silently.
        writer.write_bits(zlib.crc32(data), 32)
        writer.write_bytes(body)
        return writer.getvalue()

    def _encode_body(self, data: bytes, packed) -> Tuple[int, bytes]:
        """Pick the cheapest mode analytically, then render only it.

        Without static tables the candidate order (stored, dynamic,
        fixed; first strictly smaller wins) matches the historical
        behavior bit-for-bit. With static tables configured, the
        per-page dynamic table build is skipped entirely — candidates
        are stored, static, fixed — which is the whole point of
        training tables offline.
        """
        tok_np = np.frombuffer(packed, dtype=np.int64)
        ll_freq, dist_freq, extra_bits = _token_stats(tok_np)
        best_len = len(data)
        mode = _MODE_STORED
        static = self._static_tables
        if static is not None:
            static_sym_bits = static.symbol_bits(ll_freq, dist_freq, extra_bits)
            if static_sym_bits is not None:
                static_bits = 8 * len(static.header_bytes) + static_sym_bits
                if (static_bits + 7) // 8 < best_len:
                    mode, best_len = _MODE_HUFFMAN_STATIC, (static_bits + 7) // 8
        else:
            litlen_table = _table_from_frequencies(ll_freq)
            dist_table = _table_from_frequencies(dist_freq)
            header = _dynamic_header(litlen_table, dist_table)
            dyn_bits = header[3] + _symbol_bits(
                ll_freq,
                dist_freq,
                extra_bits,
                np.asarray(_enc_arrays(litlen_table)[1], dtype=np.int64),
                np.asarray(_enc_arrays(dist_table)[1], dtype=np.int64),
            )
            if (dyn_bits + 7) // 8 < best_len:
                mode, best_len = _MODE_HUFFMAN, (dyn_bits + 7) // 8
        fixed_bits = _symbol_bits(
            ll_freq, dist_freq, extra_bits, _FIXED_LL_LEN_I64, _FIXED_D_LEN_I64
        )
        if (fixed_bits + 7) // 8 < best_len:
            mode = _MODE_HUFFMAN_FIXED

        if mode == _MODE_HUFFMAN:
            prefix, acc, nbits, _ = header
            body = self._render_symbols(
                packed, tok_np, litlen_table, dist_table, prefix, acc, nbits
            )
        elif mode == _MODE_HUFFMAN_FIXED:
            body = self._render_symbols(
                packed, tok_np, _FIXED_LITLEN_TABLE, _FIXED_DIST_TABLE, b"", 0, 0
            )
        elif mode == _MODE_HUFFMAN_STATIC:
            body = self._render_symbols(
                packed,
                tok_np,
                static.litlen_table,
                static.dist_table,
                static.header_bytes,
                0,
                0,
            )
        else:
            body = data
        return mode, body

    def _render_symbols(
        self,
        packed,
        tok_np: np.ndarray,
        litlen_table: HuffmanTable,
        dist_table: HuffmanTable,
        prefix: bytes,
        acc: int,
        nbits: int,
    ) -> bytes:
        """Huffman-code the token stream after ``prefix`` (+ partial bits)."""
        lib = _native.load()
        if lib is not None:
            body = _encode_symbols_native(
                lib, tok_np, litlen_table, dist_table, prefix, acc, nbits
            )
            if body is not None:
                return body
        writer = BitWriter()
        writer._out = bytearray(prefix)
        writer._acc = acc
        writer._nbits = nbits
        self._write_symbols_packed(writer, packed, litlen_table, dist_table)
        return writer.getvalue()

    def _write_symbols_packed(
        self,
        writer: BitWriter,
        packed,
        litlen_table: HuffmanTable,
        dist_table: HuffmanTable,
    ) -> None:
        # The stream is LSB-first, so consecutive write_bits calls can be
        # fused: write_bits(a, x) then write_bits(b, y) is exactly
        # write_bits(a | b << x, x + y). A whole token — litlen code,
        # length extra, distance code, distance extra — becomes one call.
        write_bits = writer.write_bits
        ll_lengths = litlen_table.lengths
        ll_codes = litlen_table.codes_lsb
        d_lengths = dist_table.lengths
        d_codes = dist_table.codes_lsb
        len_mask = PACKED_LENGTH_MASK
        len_to_code = _LEN_TO_CODE
        dist_lo = _DIST_LO
        dist_high = _DIST_HIGH
        for token in packed.tolist():
            if token < 256:
                nbits = ll_lengths[token]
                if nbits == 0:
                    raise CorruptStreamError(f"symbol {token} has no code")
                write_bits(ll_codes[token], nbits)
                continue
            distance = token >> PACKED_LENGTH_BITS
            lsym, lextra, lbits = len_to_code[token & len_mask]
            if distance <= 256:
                dsym, dbase, dbits = dist_lo[distance]
            else:
                dsym, dbase, dbits = dist_high[(distance - 1) >> 7]
            nbits = ll_lengths[lsym]
            if nbits == 0:
                raise CorruptStreamError(f"symbol {lsym} has no code")
            value = ll_codes[lsym]
            if lbits:
                value |= lextra << nbits
                nbits += lbits
            dlen = d_lengths[dsym]
            if dlen == 0:
                raise CorruptStreamError(f"symbol {dsym} has no code")
            value |= d_codes[dsym] << nbits
            nbits += dlen
            if dbits:
                value |= (distance - dbase) << nbits
                nbits += dbits
            write_bits(value, nbits)
        litlen_table.encode(writer, _EOB)

    # -- decode ----------------------------------------------------------

    def decompress(self, blob: bytes) -> bytes:
        out = self._decompress_native(blob)
        if out is not None:
            return out
        return self._decompress_python(blob)

    def _decompress_native(self, blob: bytes) -> Optional[bytes]:
        """Native fast path; ``None`` means "re-run the Python decoder".

        Success is only claimed for fully valid blobs (crc verified), so
        every malformed input takes the Python path and raises exactly
        the error it always raised.
        """
        lib = _native.load()
        if lib is None:
            return None
        header = native_header(blob, _MAGIC)
        if header is None:
            return None
        mode, orig_len, checksum, pos = header
        if mode == _MODE_STORED:
            if pos + orig_len > len(blob):
                return None
            out = blob[pos : pos + orig_len]
        elif mode == _MODE_HUFFMAN:
            out = _decode_block_native(lib, blob, pos, orig_len, None, None)
        elif mode == _MODE_HUFFMAN_FIXED:
            out = _decode_block_native(
                lib, blob, pos, orig_len, _FIXED_LITLEN_TABLE, _FIXED_DIST_TABLE
            )
        elif mode == _MODE_HUFFMAN_STATIC:
            static = self._static_tables
            if static is None:
                return None
            header = static.header_bytes
            if blob[pos : pos + len(header)] != header:
                # Different table set (or version): parse the embedded
                # self-describing header on the Python path.
                return None
            out = _decode_block_native(
                lib,
                blob,
                pos + len(header),
                orig_len,
                static.litlen_table,
                static.dist_table,
            )
        else:
            return None
        if out is None or zlib.crc32(out) != checksum:
            return None
        return out

    def _decompress_python(self, blob: bytes) -> bytes:
        reader = BitReader(blob)
        magic = reader.read_bits(8)
        if magic != _MAGIC:
            raise CorruptStreamError(f"bad magic byte 0x{magic:02x}")
        mode = reader.read_bits(8)
        orig_len = _read_varint(reader)
        refuse_overclaim(orig_len, len(blob), _MAX_EXPANSION)
        checksum = reader.read_bits(32)
        if mode == _MODE_STORED:
            out = reader.read_bytes(orig_len)
        elif mode == _MODE_HUFFMAN_FIXED:
            out = self._decode_symbols(
                reader,
                orig_len,
                _FIXED_LITLEN_TABLE.build_decoder(),
                _FIXED_DIST_TABLE.build_decoder(),
            )
        elif mode == _MODE_HUFFMAN:
            litlen_decoder, dist_decoder = _read_dynamic_tables(reader)
            out = self._decode_symbols(
                reader, orig_len, litlen_decoder, dist_decoder
            )
        elif mode == _MODE_HUFFMAN_STATIC:
            out = self._decompress_static(reader, orig_len)
        else:
            raise CorruptStreamError(f"unknown block mode {mode}")
        if zlib.crc32(out) != checksum:
            raise CorruptStreamError("content checksum mismatch")
        return out

    def _decompress_static(self, reader: BitReader, orig_len: int) -> bytes:
        """Mode-3 decode from the embedded header — no registry needed."""
        version = reader.read_bits(8)
        if version != _STATIC_FORMAT_VERSION:
            raise CorruptStreamError(
                f"unsupported static-table blob version {version}"
            )
        reader.read_bits(32)  # table id: advisory; the header is embedded
        litlen_decoder, dist_decoder = _read_dynamic_tables(reader)
        reader.align_to_byte()
        return self._decode_symbols(
            reader, orig_len, litlen_decoder, dist_decoder
        )

    def _decode_symbols(
        self, reader: BitReader, orig_len: int, litlen_decoder, dist_decoder
    ) -> bytes:
        out = bytearray()
        append = out.append
        lit_decode = litlen_decoder.decode
        dist_decode = dist_decoder.decode
        length_codes = _LENGTH_CODES
        dist_codes = _DIST_CODES
        # The symbol loop runs once per decoded token; keeping the bit
        # accumulator in locals (instead of syncing reader attributes on
        # every decode/read_bits call) is the difference between one
        # attribute access per token and six. The reader is synced before
        # any fallback into the decoder object and again on exit, so the
        # observable bit-consumption order is unchanged. A token needs at
        # most 15 + 5 + 15 + 13 = 48 bits, so one top-of-loop refill
        # suffices: ``nbits < extra`` afterwards can only mean the stream
        # really is exhausted.
        ll_table = litlen_decoder._root_table
        ll_mask = litlen_decoder._root_mask
        d_table = dist_decoder._root_table
        d_mask = dist_decoder._root_mask
        data = reader._data
        acc = reader._acc
        nbits = reader._nbits
        pos = reader._pos
        while True:
            if nbits < 48:
                chunk = data[pos : pos + 8]
                if chunk:
                    acc |= int.from_bytes(chunk, "little") << nbits
                    pos += len(chunk)
                    nbits += 8 * len(chunk)
            entry = ll_table[acc & ll_mask]
            if entry:
                clen = entry >> 16
                if clen > nbits:
                    raise CorruptStreamError("bit stream exhausted")
                acc >>= clen
                nbits -= clen
                symbol = entry & 0xFFFF
            else:
                reader._acc = acc
                reader._nbits = nbits
                reader._pos = pos
                symbol = lit_decode(reader)
                acc = reader._acc
                nbits = reader._nbits
                pos = reader._pos
            if symbol < 256:
                append(symbol)
                continue
            if symbol == _EOB:
                break
            base, extra = length_codes[symbol - 257]
            if extra:
                if extra > nbits:
                    raise CorruptStreamError("bit stream exhausted")
                length = base + (acc & ((1 << extra) - 1))
                acc >>= extra
                nbits -= extra
            else:
                length = base
            entry = d_table[acc & d_mask]
            if entry:
                clen = entry >> 16
                if clen > nbits:
                    raise CorruptStreamError("bit stream exhausted")
                acc >>= clen
                nbits -= clen
                dsym = entry & 0xFFFF
            else:
                reader._acc = acc
                reader._nbits = nbits
                reader._pos = pos
                dsym = dist_decode(reader)
                acc = reader._acc
                nbits = reader._nbits
                pos = reader._pos
            dbase, dextra = dist_codes[dsym]
            if dextra:
                if dextra > nbits:
                    raise CorruptStreamError("bit stream exhausted")
                distance = dbase + (acc & ((1 << dextra) - 1))
                acc >>= dextra
                nbits -= dextra
            else:
                distance = dbase
            start = len(out) - distance
            if start < 0:
                raise CorruptStreamError("match distance before stream start")
            extend_match(out, start, length)
        reader._acc = acc
        reader._nbits = nbits
        reader._pos = pos
        if len(out) != orig_len:
            raise CorruptStreamError(
                f"decoded {len(out)} bytes, header said {orig_len}"
            )
        return bytes(out)


def _read_dynamic_tables(reader: BitReader):
    """Parse the code-length header; returns (litlen, dist) decoders."""
    cl_lengths = [reader.read_bits(3) for _ in range(_NUM_CODELEN)]
    cl_decoder = HuffmanTable.from_lengths(cl_lengths).build_decoder()
    rle_count = read_varint_bits(reader)
    combined: List[int] = []
    for _ in range(rle_count):
        symbol = cl_decoder.decode(reader)
        if symbol <= 15:
            combined.append(symbol)
        elif symbol == 16:
            if not combined:
                raise CorruptStreamError("repeat with no previous length")
            repeat = 3 + reader.read_bits(2)
            combined.extend([combined[-1]] * repeat)
        elif symbol == 17:
            combined.extend([0] * (3 + reader.read_bits(3)))
        else:
            combined.extend([0] * (11 + reader.read_bits(7)))
    if len(combined) != _NUM_LITLEN + _NUM_DIST:
        raise CorruptStreamError(
            f"code-length vector has {len(combined)} entries, expected "
            f"{_NUM_LITLEN + _NUM_DIST}"
        )
    litlen_decoder = HuffmanTable.from_lengths(
        combined[:_NUM_LITLEN]
    ).build_decoder()
    dist_decoder = HuffmanTable.from_lengths(
        combined[_NUM_LITLEN:]
    ).build_decoder()
    return litlen_decoder, dist_decoder


# ---------------------------------------------------------------------------
# Native kernel adapters
# ---------------------------------------------------------------------------


def _encode_symbols_native(
    lib,
    tok_np: np.ndarray,
    litlen_table: HuffmanTable,
    dist_table: HuffmanTable,
    prefix: bytes,
    acc: int,
    nbits: int,
) -> Optional[bytes]:
    ll_codes, ll_lens = _enc_arrays(litlen_table)
    d_codes, d_lens = _enc_arrays(dist_table)
    out = np.empty(len(tok_np) * 6 + 16, dtype=np.uint8)
    acc_io = ctypes.c_uint64(acc)
    nbits_io = ctypes.c_int64(nbits)
    written = lib.deflate_encode_symbols(
        tok_np.ctypes.data,
        len(tok_np),
        ll_codes.ctypes.data,
        ll_lens.ctypes.data,
        d_codes.ctypes.data,
        d_lens.ctypes.data,
        _LEN_SYM_NP.ctypes.data,
        _LEN_EXTRA_NP.ctypes.data,
        _LEN_EBITS_NP.ctypes.data,
        _DIST_LO_SYM_NP.ctypes.data,
        _DIST_HIGH_SYM_NP.ctypes.data,
        _DIST_SYM_BASE_NP.ctypes.data,
        _DIST_SYM_EBITS_NP.ctypes.data,
        ctypes.byref(acc_io),
        ctypes.byref(nbits_io),
        out.ctypes.data,
        len(out),
    )
    if written < 0:
        return None
    body = prefix + out[:written].tobytes()
    if nbits_io.value:
        # align_to_byte: the partial accumulator zero-padded to a byte.
        body += bytes((acc_io.value,))
    return body


def _decode_block_native(
    lib,
    blob: bytes,
    start: int,
    orig_len: int,
    litlen_table: Optional[HuffmanTable],
    dist_table: Optional[HuffmanTable],
) -> Optional[bytes]:
    """Decode one block natively; ``None`` on any error (caller falls back).

    ``litlen_table``/``dist_table`` of ``None`` means the dynamic header
    is parsed from the stream inside the kernel.
    """
    have_tables = litlen_table is not None
    if have_tables:
        ll_lens = _enc_arrays(litlen_table)[1]
        d_lens = _enc_arrays(dist_table)[1]
    else:
        ll_lens = _enc_arrays(_FIXED_LITLEN_TABLE)[1]  # unread by the kernel
        d_lens = _enc_arrays(_FIXED_DIST_TABLE)[1]
    out = np.empty(max(orig_len, 1), dtype=np.uint8)
    ll_scratch, d_scratch = _decode_scratch()
    blob_np = np.frombuffer(blob, dtype=np.uint8)
    decoded = lib.deflate_decode_block(
        blob_np.ctypes.data,
        len(blob),
        start,
        1 if have_tables else 0,
        ll_lens.ctypes.data,
        d_lens.ctypes.data,
        _LEN_SYM_BASE_NP.ctypes.data,
        _LEN_SYM_EBITS_NP.ctypes.data,
        _DIST_SYM_BASE_NP.ctypes.data,
        _DIST_SYM_EBITS_NP.ctypes.data,
        ll_scratch.ctypes.data,
        d_scratch.ctypes.data,
        out.ctypes.data,
        orig_len,
    )
    if decoded != orig_len:
        return None
    return out[:orig_len].tobytes()

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
decoder reconstructs the tables from the blob alone — no registry
required, and neither decoder consults one. The ``table_id`` (a digest
of the code lengths) is advisory, for forensics; the pad byte-aligns
the symbol stream so the encoder can copy the pre-rendered header in.
The version byte gates future format changes.

The codec has exactly two implementations. ``compress`` and
``decompress`` make one call into :mod:`repro.compression._native` —
``deflate_compress`` takes the page and returns the body and its mode,
``deflate_decompress`` takes the blob and returns the page — and
everything else in this module is the reference: the definition those
kernels are tested against (plain counting loops, one ``write_bits``
per field, one ``decoder.decode`` per symbol), what runs when no kernel
loads, and the decoder that re-reads every blob the native one will not
vouch for, so error semantics stay Python's.
"""

from __future__ import annotations

import ctypes
import hashlib
import zlib
from typing import List, Optional, Sequence, Tuple

from repro.compression import _native
from repro.compression.base import (
    Codec,
    CodecSpec,
    byte_varint,
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
from repro.compression.huffman import HuffmanDecoder, HuffmanTable
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
# ``_hotpath.c`` holds this table and the next as ``static const`` data;
# ``test_codec_differential.py`` ties the two copies code by code.
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

# RFC 1951 3.2.6 fixed trees: litlen lengths 8/9/7/8, every distance 5.
_FIXED_LITLEN_TABLE = HuffmanTable.from_lengths(
    [8] * 144 + [9] * 112 + [7] * 24 + [8] * (_NUM_LITLEN - 280)
)
_FIXED_DIST_TABLE = HuffmanTable.from_lengths([5] * _NUM_DIST)


# ---------------------------------------------------------------------------
# The reference encoder and decoder
# ---------------------------------------------------------------------------


def _count_symbols(packed) -> Tuple[List[int], List[int], int]:
    """Symbol frequencies of a packed token stream (end-of-block
    included) and the extra-bit payload its matches carry."""
    ll_freq = [0] * _NUM_LITLEN
    dist_freq = [0] * _NUM_DIST
    extra_bits = 0
    for token in packed:
        if token < 256:
            ll_freq[token] += 1
            continue
        symbol, _, nbits = _length_to_code(token & PACKED_LENGTH_MASK)
        ll_freq[symbol] += 1
        extra_bits += nbits
        symbol, _, nbits = _distance_to_code(token >> PACKED_LENGTH_BITS)
        dist_freq[symbol] += 1
        extra_bits += nbits
    ll_freq[_EOB] += 1
    return ll_freq, dist_freq, extra_bits


def _stream_bits(
    ll_freq: Sequence[int],
    dist_freq: Sequence[int],
    extra_bits: int,
    litlen_table: HuffmanTable,
    dist_table: HuffmanTable,
) -> Optional[int]:
    """Exact size in bits of the symbol stream under a table pair;
    ``None`` when a symbol in use has no code (the pair cannot encode
    the page)."""
    bits = extra_bits
    for freq, table in ((ll_freq, litlen_table), (dist_freq, dist_table)):
        for count, length in zip(freq, table.lengths):
            if count and not length:
                return None
            bits += count * length
    return bits


def _write_table_header(
    writer: BitWriter, litlen_table: HuffmanTable, dist_table: HuffmanTable
) -> None:
    """Write the code-length header shared by dynamic and static blobs:
    19 x 3-bit code-length-code lengths, a bit-level varint RLE count,
    then the RLE'd litlen+dist length vector under the code-length code.
    """
    rle = _rle_code_lengths(litlen_table.lengths + dist_table.lengths)
    cl_freq = [0] * _NUM_CODELEN
    for symbol, _ in rle:
        cl_freq[symbol] += 1
    cl_table = HuffmanTable.from_frequencies(cl_freq, max_length=7)
    for length in cl_table.lengths:
        writer.write_bits(length, 3)
    write_varint_bits(writer, len(rle))
    for symbol, extra in rle:
        cl_table.encode(writer, symbol)
        writer.write_bits(extra, _CL_EXTRA_BITS.get(symbol, 0))


def _read_table_header(
    reader: BitReader,
) -> Tuple[HuffmanDecoder, HuffmanDecoder]:
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


def _write_symbols(
    writer: BitWriter,
    packed,
    litlen_table: HuffmanTable,
    dist_table: HuffmanTable,
) -> None:
    """Huffman-code the token stream, then the end-of-block symbol."""
    for token in packed:
        if token < 256:
            litlen_table.encode(writer, token)
            continue
        symbol, extra, nbits = _length_to_code(token & PACKED_LENGTH_MASK)
        litlen_table.encode(writer, symbol)
        writer.write_bits(extra, nbits)
        symbol, extra, nbits = _distance_to_code(token >> PACKED_LENGTH_BITS)
        dist_table.encode(writer, symbol)
        writer.write_bits(extra, nbits)
    litlen_table.encode(writer, _EOB)


def _read_symbols(
    reader: BitReader,
    orig_len: int,
    litlen_decoder: HuffmanDecoder,
    dist_decoder: HuffmanDecoder,
) -> bytes:
    """Decode symbols up to end-of-block; the inverse of
    :func:`_write_symbols`."""
    out = bytearray()
    while True:
        symbol = litlen_decoder.decode(reader)
        if symbol < 256:
            out.append(symbol)
            continue
        if symbol == _EOB:
            break
        base, nbits = _LENGTH_CODES[symbol - 257]
        length = base + reader.read_bits(nbits)
        base, nbits = _DIST_CODES[dist_decoder.decode(reader)]
        start = len(out) - (base + reader.read_bits(nbits))
        if start < 0:
            raise CorruptStreamError("match distance before stream start")
        extend_match(out, start, length)
    if len(out) != orig_len:
        raise CorruptStreamError(
            f"decoded {len(out)} bytes, header said {orig_len}"
        )
    return bytes(out)


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
        "kernel_args",
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
        _write_table_header(writer, self.litlen_table, self.dist_table)
        # Byte-align so the symbol stream starts on a byte boundary and
        # the encoders can copy these bytes in front of it.
        self.header_bytes = writer.getvalue()
        #: What ``deflate_compress`` takes in place of a per-page table
        #: build: both length vectors, the header and its size.
        self.kernel_args = (
            bytes(litlen_lengths),
            bytes(dist_lengths),
            self.header_bytes,
            len(self.header_bytes),
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
    ll_freq = [1] * _NUM_LITLEN
    dist_freq = [1] * _NUM_DIST
    for page in corpus:
        page_ll, page_dist, _ = _count_symbols(matcher.tokenize_packed(page))
        ll_freq = [a + b for a, b in zip(ll_freq, page_ll)]
        dist_freq = [a + b for a, b in zip(dist_freq, page_dist)]
    return StaticTableSet(
        HuffmanTable.from_frequencies(ll_freq).lengths,
        HuffmanTable.from_frequencies(dist_freq).lengths,
        domain=domain,
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
        encoded = self._encode_native(data)
        if encoded is None:
            encoded = self._encode_python(data)
        mode, body = encoded
        header = bytes((_MAGIC, mode)) + byte_varint(len(data))
        # Content checksum, as production codecs carry (zlib's adler32,
        # zstd's xxhash): a lucky bit flip must not decode silently.
        return header + zlib.crc32(data).to_bytes(4, "little") + body

    def _encode_native(self, data: bytes) -> Optional[Tuple[int, bytes]]:
        """``(mode, body)`` from one kernel call; ``None`` means "run
        the reference encoder"."""
        lib = _native.load()
        if lib is None or type(data) is not bytes:
            return None
        static = self._static_tables
        # A body is only chosen when it is shorter than the page.
        scratch, out = _native.encode_buffers(lib, len(data))
        mode = ctypes.c_int64()
        written = lib.deflate_compress(
            data,
            len(data),
            *self._matcher.kernel_args,
            *(static.kernel_args if static else (None, None, None, 0)),
            scratch,
            out,
            len(data),
            ctypes.byref(mode),
        )
        if written < 0:
            return None
        if mode.value == _MODE_STORED:
            return _MODE_STORED, data
        return mode.value, ctypes.string_at(out, written)

    def _encode_python(self, data: bytes) -> Tuple[int, bytes]:
        """The reference encoder: size every candidate exactly, render
        only the winner.

        Candidates in election order, first strictly smaller body wins:
        stored, dynamic tables, fixed trees. With static tables
        configured they take the dynamic slot and the per-page table
        build is skipped entirely — the whole point of training tables
        offline.
        """
        packed = self._matcher.tokenize_packed(data)
        ll_freq, dist_freq, extra_bits = _count_symbols(packed)
        header = BitWriter()
        static = self._static_tables
        if static is not None:
            mode = _MODE_HUFFMAN_STATIC
            litlen_table, dist_table = static.litlen_table, static.dist_table
            header.write_bytes(static.header_bytes)
        else:
            mode = _MODE_HUFFMAN
            litlen_table = HuffmanTable.from_frequencies(ll_freq)
            dist_table = HuffmanTable.from_frequencies(dist_freq)
            _write_table_header(header, litlen_table, dist_table)
        best_len = len(data)
        chosen = None
        for candidate in (
            (mode, litlen_table, dist_table, header),
            (
                _MODE_HUFFMAN_FIXED,
                _FIXED_LITLEN_TABLE,
                _FIXED_DIST_TABLE,
                BitWriter(),
            ),
        ):
            _, litlen_table, dist_table, writer = candidate
            bits = _stream_bits(
                ll_freq, dist_freq, extra_bits, litlen_table, dist_table
            )
            if bits is None:
                continue
            body_len = (writer.bit_length + bits + 7) // 8
            if body_len < best_len:
                best_len = body_len
                chosen = candidate
        if chosen is None:
            return _MODE_STORED, data
        mode, litlen_table, dist_table, writer = chosen
        _write_symbols(writer, packed, litlen_table, dist_table)
        return mode, writer.getvalue()

    # -- decode ----------------------------------------------------------

    def decompress(self, blob: bytes) -> bytes:
        out = self._decompress_native(blob)
        if out is not None:
            return out
        return self._decompress_python(blob)

    def _decompress_native(self, blob: bytes) -> Optional[bytes]:
        """One kernel call; ``None`` means "re-run the Python decoder".

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
            out = blob[pos : pos + orig_len]
        else:
            buffer = ctypes.create_string_buffer(orig_len)
            decoded = lib.deflate_decompress(
                blob, len(blob), pos, mode, buffer, orig_len
            )
            if decoded != orig_len:
                return None
            out = ctypes.string_at(buffer, orig_len)
        if len(out) != orig_len or zlib.crc32(out) != checksum:
            return None
        return out

    def _decompress_python(self, blob: bytes) -> bytes:
        """The reference decoder; owns every error message."""
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
            out = _read_symbols(
                reader,
                orig_len,
                _FIXED_LITLEN_TABLE.build_decoder(),
                _FIXED_DIST_TABLE.build_decoder(),
            )
        elif mode == _MODE_HUFFMAN:
            out = _read_symbols(reader, orig_len, *_read_table_header(reader))
        elif mode == _MODE_HUFFMAN_STATIC:
            # Decoded from the embedded header — no registry needed.
            version = reader.read_bits(8)
            if version != _STATIC_FORMAT_VERSION:
                raise CorruptStreamError(
                    f"unsupported static-table blob version {version}"
                )
            reader.read_bits(32)  # table id: advisory
            decoders = _read_table_header(reader)
            reader.align_to_byte()
            out = _read_symbols(reader, orig_len, *decoders)
        else:
            raise CorruptStreamError(f"unknown block mode {mode}")
        if zlib.crc32(out) != checksum:
            raise CorruptStreamError("content checksum mismatch")
        return out

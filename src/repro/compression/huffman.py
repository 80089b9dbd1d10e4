"""Canonical Huffman coding with length-limited codes.

Implements the entropy stage shared by the Deflate-style and zstd-style
codecs: code-length assignment from symbol frequencies (heap-built Huffman
tree with a Kraft-sum repair pass to enforce a maximum code length),
canonical code assignment, one-shot encoding via pre-bit-reversed codes,
and a zlib-style lookup-table decoder over
:class:`~repro.compression.bitio.BitReader`'s peek/consume fast path.

The encoder writes each code as a single ``write_bits`` call: canonical
codes are defined MSB-first, and emitting a code MSB-first into the
LSB-first bit stream is exactly emitting its bit-reversed value LSB-first,
so :class:`HuffmanTable` precomputes the reversed form. The decoder peeks
``root_bits`` bits at once and resolves any code no longer than that with
one table lookup; rarer longer codes fall back to the canonical
counts/offsets walk. Tables cache their built decoder, so decoding many
pages against one table (the fixed-tree mode, the benchmark loops, any
reused table object) builds the lookup table once.
"""

from __future__ import annotations

import ctypes
import heapq
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.compression import _native
from repro.compression.bitio import BitReader, BitWriter
from repro.errors import ConfigError, CorruptStreamError

MAX_CODE_LENGTH = 15

#: Width of the decoder's first-level lookup table. 10 bits covers every
#: code zlib's default trees use in practice while keeping table build
#: (2^10 entries) cheap enough for per-page dynamic tables.
DECODE_ROOT_BITS = 10


#: Bit-reversal of each byte value; lets ``reverse_bits`` reverse any
#: code up to 16 bits with two lookups instead of a per-bit loop (the
#: decode path reverses every symbol of every freshly parsed table).
_BYTE_REVERSED = tuple(
    sum(((i >> bit) & 1) << (7 - bit) for bit in range(8)) for i in range(256)
)


def reverse_bits(value: int, nbits: int) -> int:
    """Reverse the low ``nbits`` bits of ``value``."""
    if nbits <= 16:
        full = (
            _BYTE_REVERSED[value & 0xFF] << 8
        ) | _BYTE_REVERSED[(value >> 8) & 0xFF]
        return full >> (16 - nbits)
    out = 0
    for _ in range(nbits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def code_lengths_from_frequencies(
    frequencies: Sequence[int], max_length: int = MAX_CODE_LENGTH
) -> List[int]:
    """Assign a code length to each symbol (0 for unused symbols).

    Builds a standard Huffman tree over symbols with non-zero frequency,
    then, if any depth exceeds ``max_length``, clamps the lengths and
    repairs the Kraft inequality by lengthening the cheapest codes until
    the code is feasible again (the classic zlib-style fixup).

    Runs the native kernel when it is loaded, else the Python builder
    below; both assign the identical lengths (the compressed formats
    depend on it).
    """
    if max_length < 1:
        raise ConfigError(f"max_length must be >= 1, got {max_length}")
    native = _code_lengths_native(frequencies, max_length)
    if native is not None:
        return native
    n = len(frequencies)
    used = [s for s in range(n) if frequencies[s] > 0]
    lengths = [0] * n
    if not used:
        return lengths
    if len(used) > 1 << max_length:
        # No prefix code exists; the Kraft repair below would never end.
        raise ConfigError(
            f"{len(used)} symbols in use but only {1 << max_length} "
            f"codes of length <= {max_length}"
        )
    if len(used) == 1:
        # A single-symbol alphabet still needs a 1-bit code so the decoder
        # can consume something.
        lengths[used[0]] = 1
        return lengths

    # Heap items: (weight, tiebreak, [symbols...depth bookkeeping]).
    heap: List = []
    depths = [0] * n
    groups: Dict[int, List[int]] = {}
    tiebreak = 0
    for s in used:
        groups[tiebreak] = [s]
        heapq.heappush(heap, (frequencies[s], tiebreak))
        tiebreak += 1
    while len(heap) > 1:
        w1, g1 = heapq.heappop(heap)
        w2, g2 = heapq.heappop(heap)
        merged = groups.pop(g1) + groups.pop(g2)
        for s in merged:
            depths[s] += 1
        groups[tiebreak] = merged
        heapq.heappush(heap, (w1 + w2, tiebreak))
        tiebreak += 1

    for s in used:
        lengths[s] = min(depths[s], max_length)

    # Repair Kraft sum if clamping overflowed it.
    kraft = sum(1 << (max_length - lengths[s]) for s in used)
    budget = 1 << max_length
    if kraft > budget:
        # Lengthen the shortest codes (cheapest in bits-lost) until valid.
        order = sorted(used, key=lambda s: (lengths[s], -frequencies[s]))
        idx = 0
        while kraft > budget:
            s = order[idx % len(order)]
            if lengths[s] < max_length:
                kraft -= 1 << (max_length - lengths[s])
                lengths[s] += 1
                kraft += 1 << (max_length - lengths[s])
            idx += 1
    return lengths


def _code_lengths_native(
    frequencies: Sequence[int], max_length: int
) -> Optional[List[int]]:
    """Code lengths via the C kernel; ``None`` means "use the builder
    in :func:`code_lengths_from_frequencies`" — no kernel, input the
    kernel does not take (non-integer or > int64 frequencies, alphabets
    past 512 symbols), or more used symbols than codes, which the
    Python builder reports."""
    lib = _native.load()
    if lib is None or max_length > MAX_CODE_LENGTH:
        return None
    try:
        freq = array("q", frequencies)
    except (TypeError, OverflowError):
        return None
    n = len(freq)
    lengths = (ctypes.c_uint8 * n)()
    status = lib.huffman_code_lengths(
        freq.buffer_info()[0], n, max_length, lengths
    )
    if status < 0:
        return None
    return list(lengths)


def canonical_codes(lengths: Sequence[int]) -> List[int]:
    """Assign canonical codes (MSB-first) given per-symbol code lengths."""
    max_len = max(lengths) if lengths else 0
    bl_count = [0] * (max_len + 1)
    for length in lengths:
        if length:
            bl_count[length] += 1
    next_code = [0] * (max_len + 2)
    code = 0
    for bits in range(1, max_len + 1):
        code = (code + bl_count[bits - 1]) << 1
        next_code[bits] = code
    codes = [0] * len(lengths)
    for symbol, length in enumerate(lengths):
        if length:
            codes[symbol] = next_code[length]
            next_code[length] += 1
    return codes


@dataclass(frozen=True)
class HuffmanTable:
    """Canonical encoder/decoder table for one alphabet.

    Equality and hashing consider only ``lengths``/``codes``; the
    bit-reversed encode table and the cached decoder are derived state.
    """

    lengths: tuple
    codes: tuple
    #: ``codes[s]`` bit-reversed over ``lengths[s]`` bits: the LSB-first
    #: form a single ``write_bits`` call emits as the MSB-first code.
    codes_lsb: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.codes_lsb is None:
            object.__setattr__(
                self,
                "codes_lsb",
                tuple(
                    reverse_bits(code, length)
                    for code, length in zip(self.codes, self.lengths)
                ),
            )
        object.__setattr__(self, "_decoder", None)

    @classmethod
    def from_frequencies(
        cls, frequencies: Sequence[int], max_length: int = MAX_CODE_LENGTH
    ) -> "HuffmanTable":
        lengths = code_lengths_from_frequencies(frequencies, max_length)
        return cls.from_lengths(lengths)

    @classmethod
    def from_lengths(cls, lengths: Sequence[int]) -> "HuffmanTable":
        return cls(lengths=tuple(lengths), codes=tuple(canonical_codes(lengths)))

    @property
    def num_symbols(self) -> int:
        return len(self.lengths)

    def encode(self, writer: BitWriter, symbol: int) -> None:
        """Write ``symbol``'s code to ``writer`` — one ``write_bits`` call."""
        length = self.lengths[symbol]
        if length == 0:
            raise CorruptStreamError(f"symbol {symbol} has no code")
        writer.write_bits(self.codes_lsb[symbol], length)

    def build_decoder(self) -> "HuffmanDecoder":
        """Return this table's decoder, building it at most once.

        The deflate/zstd decode paths historically rebuilt the decoder
        for every page; caching it on the table instance makes repeat
        decodes against one table (fixed trees, benchmarks, any held
        table object) free after the first build.
        """
        decoder = self._decoder
        if decoder is None:
            decoder = HuffmanDecoder(self)
            object.__setattr__(self, "_decoder", decoder)
        return decoder


class HuffmanDecoder:
    """Table-driven canonical Huffman decoder (zlib-style).

    A first-level table indexed by the next ``root_bits`` stream bits
    resolves every code of length <= ``root_bits`` in one peek + one
    lookup. Entries pack ``(length << 16) | symbol``; zero marks an index
    whose bits are either an invalid pattern or the prefix of a longer
    code, and falls back to the canonical counts/offsets bit-serial walk.
    """

    __slots__ = (
        "_max_len",
        "_symbols_by_length",
        "_first_code",
        "_root_bits",
        "_root_mask",
        "_root_table",
    )

    def __init__(
        self, table: HuffmanTable, root_bits: int = DECODE_ROOT_BITS
    ) -> None:
        max_len = max(table.lengths) if any(table.lengths) else 0
        self._max_len = max_len
        # symbols_by_length[l] lists symbols with code length l, in canonical
        # (code-value) order — the slow path for codes longer than the root.
        self._symbols_by_length: List[List[int]] = [[] for _ in range(max_len + 1)]
        order = sorted(
            (s for s in range(table.num_symbols) if table.lengths[s]),
            key=lambda s: (table.lengths[s], table.codes[s]),
        )
        for s in order:
            self._symbols_by_length[table.lengths[s]].append(s)
        # first_code[l]: canonical code value of the first code of length l.
        self._first_code = [0] * (max_len + 1)
        code = 0
        for length in range(1, max_len + 1):
            code <<= 1
            self._first_code[length] = code
            code += len(self._symbols_by_length[length])

        root = min(max_len, root_bits)
        self._root_bits = root
        self._root_mask = (1 << root) - 1
        root_table = [0] * (1 << root)
        for symbol, length in enumerate(table.lengths):
            if not 0 < length <= root:
                continue
            # A code of length l occupies the next l stream bits; in the
            # LSB-first peeked index those are the low l bits, reversed.
            # Every index whose low bits equal the code gets the entry —
            # one strided slice assignment instead of a Python loop.
            base = table.codes_lsb[symbol]
            entry = (length << 16) | symbol
            root_table[base :: 1 << length] = [entry] * (
                1 << (root - length)
            )
        self._root_table = root_table

    def decode(self, reader: BitReader) -> int:
        """Read one symbol from ``reader``.

        The peek/consume pair is inlined against the reader's accumulator:
        this method runs once per decoded symbol, and two extra method
        calls per symbol is measurable across a page. The semantics are
        identical — peeks zero-pad past the end of the stream, consuming
        past the real data raises.
        """
        if self._max_len == 0:
            raise CorruptStreamError("decoding with an empty Huffman table")
        acc = reader._acc
        nbits = reader._nbits
        if nbits < self._root_bits:
            data = reader._data
            pos = reader._pos
            while nbits < self._root_bits:
                chunk = data[pos : pos + 4]
                if not chunk:
                    break
                acc |= int.from_bytes(chunk, "little") << nbits
                pos += len(chunk)
                nbits += 8 * len(chunk)
            reader._acc = acc
            reader._nbits = nbits
            reader._pos = pos
        entry = self._root_table[acc & self._root_mask]
        if entry:
            length = entry >> 16
            if length > nbits:
                raise CorruptStreamError("bit stream exhausted")
            reader._acc = acc >> length
            reader._nbits = nbits - length
            return entry & 0xFFFF
        return self._decode_slow(reader)

    def _decode_slow(self, reader: BitReader) -> int:
        """Codes longer than the root table, and invalid patterns."""
        code = 0
        for length in range(1, self._max_len + 1):
            code = (code << 1) | reader.read_bit()
            if length <= self._root_bits:
                # Already known not to match (the root table covers every
                # valid code this short), keep accumulating.
                continue
            bucket = self._symbols_by_length[length]
            index = code - self._first_code[length]
            if 0 <= index < len(bucket):
                return bucket[index]
        raise CorruptStreamError("invalid Huffman code in stream")


def write_code_lengths(writer: BitWriter, lengths: Sequence[int]) -> None:
    """Serialise a code-length vector: 4 bits per symbol length.

    Our container formats always transmit the full alphabet, so a simple
    fixed-width encoding is used instead of Deflate's RLE'd length alphabet;
    the header cost difference is a handful of bytes on a 4 KiB page.
    """
    for length in lengths:
        if not 0 <= length <= MAX_CODE_LENGTH:
            raise ConfigError(f"code length out of range: {length}")
        writer.write_bits(length, 4)


def read_code_lengths(reader: BitReader, num_symbols: int) -> List[int]:
    """Inverse of :func:`write_code_lengths`."""
    return [reader.read_bits(4) for _ in range(num_symbols)]

"""Bit-granular I/O used by the entropy coders.

Bits are packed LSB-first within each byte, the same convention RFC 1951
(Deflate) uses: the first bit written becomes the least-significant bit of
the first output byte. Huffman codes are written most-significant-bit first
— either via :meth:`BitWriter.write_bits_msb` or, on the hot path, as a
single :meth:`BitWriter.write_bits` call of the pre-bit-reversed code
(:class:`~repro.compression.huffman.HuffmanTable` stores both forms).

:class:`BitReader` additionally exposes a peek/consume fast path
(:meth:`BitReader.peek_bits` / :meth:`BitReader.consume_bits`) for the
table-driven Huffman decoder: peek never consumes and zero-pads past the
end of the stream, so a decoder can look at ``root_bits`` bits at once
and then consume exactly the matched code length.
"""

from __future__ import annotations

from repro.errors import CorruptStreamError


class BitWriter:
    """Accumulates bits LSB-first into a growing byte buffer."""

    __slots__ = ("_out", "_acc", "_nbits")

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write_bits(self, value: int, nbits: int) -> None:
        """Append the ``nbits`` low-order bits of ``value``, LSB-first."""
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        if value < 0 or (nbits < 64 and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc |= value << self._nbits
        self._nbits += nbits
        while self._nbits >= 8:
            self._out.append(self._acc & 0xFF)
            self._acc >>= 8
            self._nbits -= 8

    def write_bits_msb(self, value: int, nbits: int) -> None:
        """Append ``nbits`` bits of ``value`` starting from the MSB.

        Used for Huffman codes, whose canonical ordering is defined on the
        bit string read most-significant-bit first. Equivalent to one
        ``write_bits`` call of the bit-reversed value.
        """
        for shift in range(nbits - 1, -1, -1):
            self.write_bits((value >> shift) & 1, 1)

    def align_to_byte(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        if self._nbits:
            self.write_bits(0, 8 - self._nbits)

    def write_bytes(self, data: bytes) -> None:
        """Append whole bytes; the stream must be byte-aligned."""
        if self._nbits:
            raise ValueError("write_bytes requires byte alignment")
        self._out.extend(data)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return len(self._out) * 8 + self._nbits

    def getvalue(self) -> bytes:
        """Return the accumulated bytes, flushing any partial byte."""
        self.align_to_byte()
        return bytes(self._out)


#: Bytes pulled into the accumulator per refill. Python ints are
#: arbitrary-precision, so refilling 4 bytes at a time via one
#: ``int.from_bytes`` costs the same as one byte did in the per-byte loop.
_REFILL_BYTES = 4


class BitReader:
    """Reads bits LSB-first from a byte buffer produced by :class:`BitWriter`."""

    __slots__ = ("_data", "_pos", "_acc", "_nbits")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._acc = 0
        self._nbits = 0

    def read_bits(self, nbits: int) -> int:
        """Read ``nbits`` bits, returning them as an integer (LSB-first)."""
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        while self._nbits < nbits:
            chunk = self._data[self._pos : self._pos + _REFILL_BYTES]
            if not chunk:
                raise CorruptStreamError("bit stream exhausted")
            self._acc |= int.from_bytes(chunk, "little") << self._nbits
            self._pos += len(chunk)
            self._nbits += 8 * len(chunk)
        value = self._acc & ((1 << nbits) - 1)
        self._acc >>= nbits
        self._nbits -= nbits
        return value

    def read_bit(self) -> int:
        """Read a single bit."""
        return self.read_bits(1)

    def peek_bits(self, nbits: int) -> int:
        """Return the next ``nbits`` bits without consuming them.

        Bits past the end of the stream read as zero — the table-driven
        Huffman decoder peeks a full root-table index near the end of a
        stream whose final code may be shorter; :meth:`consume_bits`
        still raises if the *matched* code overruns the real data.
        """
        while self._nbits < nbits:
            chunk = self._data[self._pos : self._pos + _REFILL_BYTES]
            if not chunk:
                break
            self._acc |= int.from_bytes(chunk, "little") << self._nbits
            self._pos += len(chunk)
            self._nbits += 8 * len(chunk)
        return self._acc & ((1 << nbits) - 1)

    def consume_bits(self, nbits: int) -> None:
        """Discard ``nbits`` previously peeked bits."""
        if nbits > self._nbits:
            raise CorruptStreamError("bit stream exhausted")
        self._acc >>= nbits
        self._nbits -= nbits

    def align_to_byte(self) -> None:
        """Discard bits up to the next byte boundary."""
        drop = self._nbits % 8
        if drop:
            self.read_bits(drop)

    def read_bytes(self, n: int) -> bytes:
        """Read ``n`` whole bytes; the stream must be byte-aligned.

        When the reader is byte-aligned the bytes are taken by slicing
        the underlying buffer (after draining whole bytes already in the
        accumulator) instead of one ``read_bits(8)`` call per byte.
        """
        if self._nbits % 8:
            raise ValueError("read_bytes requires byte alignment")
        out = bytearray()
        while self._nbits and n > 0:
            out.append(self._acc & 0xFF)
            self._acc >>= 8
            self._nbits -= 8
            n -= 1
        if n > 0:
            end = self._pos + n
            if end > len(self._data):
                raise CorruptStreamError("bit stream exhausted")
            out += self._data[self._pos : end]
            self._pos = end
        return bytes(out)

    @property
    def bits_remaining(self) -> int:
        """Upper bound on the number of unread bits."""
        return (len(self._data) - self._pos) * 8 + self._nbits


def write_varint_bits(writer: BitWriter, value: int) -> None:
    """Varint without byte alignment: 7-bit groups with a continue bit."""
    while True:
        chunk = value & 0x7F
        value >>= 7
        writer.write_bits(1 if value else 0, 1)
        writer.write_bits(chunk, 7)
        if not value:
            return


def read_varint_bits(reader: BitReader) -> int:
    """Inverse of :func:`write_varint_bits`."""
    value = 0
    shift = 0
    while True:
        more = reader.read_bits(1)
        value |= reader.read_bits(7) << shift
        if not more:
            return value
        shift += 7
        if shift > 35:
            raise CorruptStreamError("varint too long")

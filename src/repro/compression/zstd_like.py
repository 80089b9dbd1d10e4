"""zstd-style codec: large-window LZ77 with entropy-coded literals.

Stands in for zstd as used by Google/Meta SFM deployments (§2.1). Like
zstd it separates the stream into a Huffman-coded *literals section* and a
*sequences section* of (literal-run, match-length, offset) triples; unlike
real zstd the sequences use plain bit-varints rather than FSE, which keeps
the implementation honest (real window-size effects, real entropy stage on
literals) at a fraction of the complexity.

Blob layout::

    magic(1) | mode(1) | orig_len(varint) | payload
    payload = lit_count(varint) lit_lengths(4b x 256) lit_codes...
              seq_count(varint) sequences...

The codec has exactly two implementations. ``compress`` and
``decompress`` make one call into :mod:`repro.compression._native`
(``zstdlike_compress`` takes the page and returns the payload and its
mode, ``zstdlike_decode_body`` takes the blob and returns the page); the
``BitWriter``/``BitReader`` code below is the reference those kernels
are tested against, what runs when they are not loaded, and the decoder
that re-reads every blob the native one will not vouch for. Header and
checksum are Python on both paths.
"""

from __future__ import annotations

import ctypes
import zlib
from typing import List, Optional, Tuple

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

_MAGIC = 0x25
_MODE_STORED = 0
_MODE_COMPRESSED = 1

_MIN_MATCH = 3

#: Decode-table scratch for the native decoder (full-width table, rebuilt
#: per call), shared process-wide: the harness is single-threaded.
_TABLE_SCRATCH = (ctypes.c_uint32 * (1 << MAX_CODE_LENGTH))()
#: Literal and output scratch of the native decoder, shared the same
#: way and sized for one 4 KiB page; a blob claiming more decodes into
#: fresh buffers.
_DECODE_SCRATCH_BYTES = 4096
_LITERAL_SCRATCH = ctypes.create_string_buffer(_DECODE_SCRATCH_BYTES)
_OUT_SCRATCH = ctypes.create_string_buffer(_DECODE_SCRATCH_BYTES)


@register_codec
class ZstdLikeCodec(Codec):
    """zstd-style codec with a configurable (large) window."""

    name = "zstd-like"
    # zstd -3: ~450 MBps compress, ~1.3 GBps decompress per ~2.6 GHz core.
    # Average over compress+decompress ~ the paper's 7.65 cycles/byte.
    spec = CodecSpec(
        name="zstd-like",
        compress_cycles_per_byte=5.8,
        decompress_cycles_per_byte=2.0,
    )

    def __init__(
        self,
        window_size: int = 128 * 1024,
        max_chain: int = 96,
        lazy: bool = True,
    ) -> None:
        if window_size > 8 * 1024 * 1024:
            raise ConfigError(
                f"zstd-like window cannot exceed 8 MiB, got {window_size}"
            )
        self._matcher = Lz77Matcher(
            window_size=window_size, max_chain=max_chain, lazy=lazy
        )
        self.window_size = window_size

    def compress(self, data: bytes) -> bytes:
        encoded = self._encode_native(data)
        if encoded is None:
            encoded = self._encode_python(data)
        mode, payload = encoded
        writer = BitWriter()
        writer.write_bits(_MAGIC, 8)
        writer.write_bits(mode, 8)
        write_varint_bits(writer, len(data))
        writer.write_bits(zlib.crc32(data), 32)
        writer.align_to_byte()
        writer.write_bytes(payload)
        return writer.getvalue()

    def _encode_native(self, data: bytes) -> Optional[Tuple[int, bytes]]:
        """``(mode, payload)`` from one kernel call; ``None`` means "run
        the reference encoder"."""
        lib = _native.load()
        if lib is None or type(data) is not bytes:
            return None
        # A payload is only kept when it is shorter than the page.
        out = ctypes.create_string_buffer(len(data))
        mode = ctypes.c_int64()
        written = lib.zstdlike_compress(
            data,
            len(data),
            *self._matcher.kernel_args,
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
        """The reference encoder: split the token stream into literals
        and sequences, Huffman-code the former, varint the latter; keep
        the payload only if it saves more than three bytes."""
        literals = bytearray()
        # Sequence: (literal_run, match_length, offset); a trailing run of
        # literals is encoded as a sequence with match_length == 0.
        sequences: List[Tuple[int, int, int]] = []
        run = 0
        for token in self._matcher.tokenize_packed(data):
            if token < 256:
                literals.append(token)
                run += 1
            else:
                offset = token >> PACKED_LENGTH_BITS
                sequences.append((run, token & PACKED_LENGTH_MASK, offset))
                run = 0
        if run:
            sequences.append((run, 0, 0))

        writer = BitWriter()
        write_varint_bits(writer, len(literals))
        if literals:
            freq = [0] * 256
            for byte in literals:
                freq[byte] += 1
            table = HuffmanTable.from_frequencies(freq)
            for length in table.lengths:
                writer.write_bits(length, 4)
            for byte in literals:
                table.encode(writer, byte)
        write_varint_bits(writer, len(sequences))
        for lit_run, match_len, offset in sequences:
            write_varint_bits(writer, lit_run)
            write_varint_bits(writer, match_len)
            if match_len:
                write_varint_bits(writer, offset)
        payload = writer.getvalue()
        if len(payload) + 3 >= len(data):
            return _MODE_STORED, data
        return _MODE_COMPRESSED, payload

    def decompress(self, blob: bytes) -> bytes:
        out = self._decompress_native(blob)
        if out is not None:
            return out
        return self._decompress_python(blob)

    def _decompress_native(self, blob: bytes) -> Optional[bytes]:
        """Native fast path; ``None`` means "re-run the Python decoder".

        Success is only claimed for fully valid compressed-mode blobs
        (crc verified), so every malformed input takes the Python path
        and raises exactly the error it always raised. Stored mode is
        already just a slice + crc there.
        """
        lib = _native.load()
        if lib is None:
            return None
        header = native_header(blob, _MAGIC, low_bit_continue=True)
        if header is None or header[0] != _MODE_COMPRESSED:
            return None
        _, orig_len, checksum, pos = header
        if orig_len <= _DECODE_SCRATCH_BYTES:
            literals, out = _LITERAL_SCRATCH, _OUT_SCRATCH
        else:
            literals = ctypes.create_string_buffer(orig_len)
            out = ctypes.create_string_buffer(orig_len)
        decoded = lib.zstdlike_decode_body(
            blob, len(blob), pos, _TABLE_SCRATCH, literals, out, orig_len
        )
        if decoded != orig_len:
            return None
        page = ctypes.string_at(out, orig_len)
        if zlib.crc32(page) != checksum:
            return None
        return page

    def _decompress_python(self, blob: bytes) -> bytes:
        reader = BitReader(blob)
        if reader.read_bits(8) != _MAGIC:
            raise CorruptStreamError("bad zstd-like magic")
        mode = reader.read_bits(8)
        orig_len = read_varint_bits(reader)
        refuse_overclaim(orig_len, len(blob))
        checksum = reader.read_bits(32)
        reader.align_to_byte()
        if mode == _MODE_STORED:
            out = reader.read_bytes(orig_len)
            if zlib.crc32(out) != checksum:
                raise CorruptStreamError("content checksum mismatch")
            return out
        if mode != _MODE_COMPRESSED:
            raise CorruptStreamError(f"unknown zstd-like mode {mode}")

        lit_count = read_varint_bits(reader)
        literals = bytearray()
        if lit_count:
            lengths = [reader.read_bits(4) for _ in range(256)]
            decoder = HuffmanTable.from_lengths(lengths).build_decoder()
            decode = decoder.decode
            append = literals.append
            for _ in range(lit_count):
                append(decode(reader))
        seq_count = read_varint_bits(reader)

        out = bytearray()
        lit_pos = 0
        for _ in range(seq_count):
            lit_run = read_varint_bits(reader)
            match_len = read_varint_bits(reader)
            if lit_pos + lit_run > len(literals):
                raise CorruptStreamError("literal section overrun")
            out += literals[lit_pos : lit_pos + lit_run]
            lit_pos += lit_run
            if match_len:
                offset = read_varint_bits(reader)
                start = len(out) - offset
                if start < 0 or offset == 0 or match_len < _MIN_MATCH:
                    raise CorruptStreamError("invalid sequence")
                if len(out) + match_len > orig_len:
                    # Checked before the copy: a garbage varint must not
                    # be able to size an allocation.
                    raise CorruptStreamError(
                        f"match overruns the {orig_len}-byte output"
                    )
                extend_match(out, start, match_len)
        if len(out) != orig_len:
            raise CorruptStreamError(
                f"decoded {len(out)} bytes, header said {orig_len}"
            )
        if zlib.crc32(bytes(out)) != checksum:
            raise CorruptStreamError("content checksum mismatch")
        return bytes(out)

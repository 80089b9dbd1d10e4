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

The payload's encoder and decoder each have a bit-exact C kernel in
:mod:`repro.compression._native`; the ``BitWriter``/``BitReader`` code
below is the reference they are tested against and what runs when the
kernels are not loaded. Header, checksum and the stored-vs-compressed
decision are Python on both paths.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

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

_MAGIC = 0x25
_MODE_STORED = 0
_MODE_COMPRESSED = 1

_MIN_MATCH = 3

#: Decode-table scratch for the native decoder (full-width table, rebuilt
#: per call); allocated lazily, shared process-wide (single-threaded).
_NATIVE_TABLE_SCRATCH = None


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
        body = self._compress_body(data) if data else b""
        writer = BitWriter()
        if not data or len(body) + 3 >= len(data):
            writer.write_bits(_MAGIC, 8)
            writer.write_bits(_MODE_STORED, 8)
            write_varint_bits(writer, len(data))
            writer.write_bits(zlib.crc32(data), 32)
            writer.align_to_byte()
            writer.write_bytes(data)
            return writer.getvalue()
        writer.write_bits(_MAGIC, 8)
        writer.write_bits(_MODE_COMPRESSED, 8)
        write_varint_bits(writer, len(data))
        writer.write_bits(zlib.crc32(data), 32)
        writer.align_to_byte()
        writer.write_bytes(body)
        return writer.getvalue()

    def _compress_body(self, data: bytes) -> bytes:
        packed = self._matcher.tokenize_packed(data)
        body = _encode_body_native(packed)
        if body is not None:
            return body
        literals = bytearray()
        append_literal = literals.append
        # Sequence: (literal_run, match_length, offset); a trailing run of
        # literals is encoded as a sequence with match_length == 0.
        sequences: List[Tuple[int, int, int]] = []
        append_seq = sequences.append
        len_mask = PACKED_LENGTH_MASK
        run = 0
        for token in packed.tolist():
            if token < 256:
                append_literal(token)
                run += 1
            else:
                append_seq(
                    (run, token & len_mask, token >> PACKED_LENGTH_BITS)
                )
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
            # Every byte present in ``literals`` has non-zero frequency and
            # therefore a code; index the tables directly instead of paying
            # HuffmanTable.encode's zero-length check per byte.
            codes_lsb = table.codes_lsb
            lengths = table.lengths
            write_bits = writer.write_bits
            for byte in literals:
                write_bits(codes_lsb[byte], lengths[byte])
        write_varint_bits(writer, len(sequences))
        for lit_run, match_len, offset in sequences:
            write_varint_bits(writer, lit_run)
            write_varint_bits(writer, match_len)
            if match_len:
                write_varint_bits(writer, offset)
        return writer.getvalue()

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
        global _NATIVE_TABLE_SCRATCH
        if _NATIVE_TABLE_SCRATCH is None:
            _NATIVE_TABLE_SCRATCH = np.empty(
                1 << MAX_CODE_LENGTH, dtype=np.uint32
            )
        literals = np.empty(max(orig_len, 1), dtype=np.uint8)
        out = np.empty(max(orig_len, 1), dtype=np.uint8)
        blob_np = np.frombuffer(blob, dtype=np.uint8)  # keeps `blob` alive
        decoded = lib.zstdlike_decode_body(
            blob_np.ctypes.data,
            len(blob),
            pos,
            _NATIVE_TABLE_SCRATCH.ctypes.data,
            literals.ctypes.data,
            out.ctypes.data,
            orig_len,
        )
        if decoded != orig_len:
            return None
        page = out[:orig_len].tobytes()
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


def _encode_body_native(packed) -> Optional[bytes]:
    """The payload for one packed token array via the C kernel; ``None``
    means "encode with the BitWriter path in ``_compress_body``"."""
    lib = _native.load()
    if lib is None:
        return None
    tok_np = np.frombuffer(packed, dtype=np.int64)
    # Generous: two varints (<= 10 groups each), the 128-byte length
    # header, and per token at most a 15-bit code or three varints.
    out = np.empty(len(tok_np) * 30 + 192, dtype=np.uint8)
    body_len = lib.zstdlike_encode_body(
        tok_np.ctypes.data, len(tok_np), out.ctypes.data, len(out)
    )
    if body_len < 0:
        return None
    return out[:body_len].tobytes()

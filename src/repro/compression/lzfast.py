"""LZO-style byte-aligned fast codec.

Stands in for lzo1x as used by Linux zswap deployments (§2.1): a greedy,
single-probe hash matcher and a fully byte-aligned token stream, trading
ratio for speed exactly the way lzo does relative to deflate/zstd.

Token stream (after the ``magic | mode | varint(orig_len)`` header):

* control byte ``C < 0x80``  — literal run of ``C + 1`` bytes follows.
* control byte ``C >= 0x80`` — match of length ``(C & 0x7F) + MIN_MATCH``
  followed by a 2-byte little-endian distance.
"""

from __future__ import annotations

import ctypes
import zlib
from typing import Optional

from repro.compression import _native
from repro.compression.base import (
    Codec,
    CodecSpec,
    byte_varint,
    native_header,
    refuse_overclaim,
    register_codec,
)
from repro.compression.lz77 import extend_match
from repro.errors import ConfigError, CorruptStreamError

_MAGIC = 0xF5
_MODE_STORED = 0
_MODE_COMPRESSED = 1

_MIN_MATCH = 4
_MAX_MATCH = 0x7F + _MIN_MATCH  # 131
_MAX_LITERAL_RUN = 0x80  # 128
_MAX_DISTANCE = 0xFFFF

_HASH_BITS = 13
_HASH_MASK = (1 << _HASH_BITS) - 1
_HASH_MULT = 2654435761

#: Hash-table scratch for the native compressor (re-memset per call),
#: shared process-wide: the harness is single-threaded.
_TABLE_SCRATCH = (ctypes.c_int32 * (1 << _HASH_BITS))()


def _read_varint(data: bytes, pos: int) -> tuple:
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptStreamError("varint truncated")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 35:
            raise CorruptStreamError("varint too long")


@register_codec
class LzFastCodec(Codec):
    """LZO-style codec: greedy single-probe matcher, byte-aligned output."""

    name = "lzfast"
    # lzo1x: ~600 MBps compress, ~800 MBps decompress per ~2.6 GHz core.
    spec = CodecSpec(
        name="lzfast",
        compress_cycles_per_byte=4.3,
        decompress_cycles_per_byte=3.2,
    )

    def __init__(self, window_size: int = 64 * 1024) -> None:
        if not 16 <= window_size <= _MAX_DISTANCE + 1:
            raise ConfigError(
                f"lzfast window must be in [16, 65536], got {window_size}"
            )
        self.window_size = window_size

    def compress(self, data: bytes) -> bytes:
        body = self._encode_native(data)
        if body is None:
            body = self._encode_python(data)
        header = bytearray((_MAGIC, _MODE_COMPRESSED)) + byte_varint(len(data))
        header += zlib.crc32(data).to_bytes(4, "little")
        if len(header) + len(body) >= len(data) + 2:
            header[1] = _MODE_STORED
            body = data
        return bytes(header) + body

    def _encode_native(self, data: bytes) -> Optional[bytes]:
        """The token body from one kernel call; ``None`` means "run the
        reference encoder"."""
        lib = _native.load()
        if lib is None or type(data) is not bytes:
            return None
        n = len(data)
        # Worst case: one control byte per 128-byte literal run.
        out = ctypes.create_string_buffer(n + n // _MAX_LITERAL_RUN + 16)
        written = lib.lzfast_compress(
            data,
            n,
            min(self.window_size, _MAX_DISTANCE),
            _TABLE_SCRATCH,
            out,
            len(out),
        )
        if written < 0:
            return None
        return ctypes.string_at(out, written)

    def _encode_python(self, data: bytes) -> bytes:
        """The reference encoder: greedy single-probe matching into a
        byte-aligned token body."""
        out = bytearray()
        n = len(data)
        table = [-1] * (1 << _HASH_BITS)
        literal_start = 0
        pos = 0
        max_distance = min(self.window_size, _MAX_DISTANCE)

        def flush_literals(end: int) -> None:
            start = literal_start
            while start < end:
                run = min(end - start, _MAX_LITERAL_RUN)
                out.append(run - 1)
                out.extend(data[start : start + run])
                start += run

        # The hash is inlined in both loops below: one function call per
        # scanned byte was the single largest cost in this codec.
        while pos + _MIN_MATCH <= n:
            h = (
                (
                    data[pos]
                    | (data[pos + 1] << 8)
                    | (data[pos + 2] << 16)
                    | (data[pos + 3] << 24)
                )
                * _HASH_MULT
                >> 16
            ) & _HASH_MASK
            candidate = table[h]
            table[h] = pos
            if (
                candidate >= 0
                and pos - candidate <= max_distance
                and data[candidate : candidate + _MIN_MATCH]
                == data[pos : pos + _MIN_MATCH]
            ):
                length = _MIN_MATCH
                max_len = _MAX_MATCH if n - pos > _MAX_MATCH else n - pos
                # 32-byte slice comparison, bytewise tail — equivalent to
                # the bytewise loop (bytes are immutable, overlap is fine).
                while (
                    length + 32 <= max_len
                    and data[candidate + length : candidate + length + 32]
                    == data[pos + length : pos + length + 32]
                ):
                    length += 32
                while (
                    length < max_len
                    and data[candidate + length] == data[pos + length]
                ):
                    length += 1
                flush_literals(pos)
                distance = pos - candidate
                out.append(0x80 | (length - _MIN_MATCH))
                out.append(distance & 0xFF)
                out.append(distance >> 8)
                # Insert a couple of positions inside the match so later
                # repeats of the same content are still findable.
                for i in range(pos + 1, min(pos + length, n - _MIN_MATCH + 1)):
                    table[
                        (
                            (
                                data[i]
                                | (data[i + 1] << 8)
                                | (data[i + 2] << 16)
                                | (data[i + 3] << 24)
                            )
                            * _HASH_MULT
                            >> 16
                        ) & _HASH_MASK
                    ] = i
                pos += length
                literal_start = pos
            else:
                pos += 1
        flush_literals(n)
        return bytes(out)

    def decompress(self, blob: bytes) -> bytes:
        native = self._decompress_native(blob)
        if native is not None:
            return native
        return self._decompress_python(blob)

    def _decompress_native(self, blob: bytes) -> Optional[bytes]:
        """C decode, claimed only for fully valid blobs (crc verified)."""
        lib = _native.load()
        if lib is None:
            return None
        header = native_header(blob, _MAGIC)
        if header is None:
            return None
        mode, orig_len, checksum, pos = header
        if mode != _MODE_COMPRESSED:
            return None  # stored mode is already just a slice + crc
        out = ctypes.create_string_buffer(orig_len)
        decoded = lib.lzfast_decompress(blob, len(blob), pos, out, orig_len)
        if decoded != orig_len:
            return None
        page = ctypes.string_at(out, orig_len)
        if zlib.crc32(page) != checksum:
            return None
        return page

    def _decompress_python(self, blob: bytes) -> bytes:
        if len(blob) < 2 or blob[0] != _MAGIC:
            raise CorruptStreamError("bad lzfast header")
        mode = blob[1]
        orig_len, pos = _read_varint(blob, 2)
        refuse_overclaim(orig_len, len(blob))
        if pos + 4 > len(blob):
            raise CorruptStreamError("checksum field truncated")
        checksum = int.from_bytes(blob[pos : pos + 4], "little")
        pos += 4
        if mode == _MODE_STORED:
            body = blob[pos : pos + orig_len]
            if len(body) != orig_len:
                raise CorruptStreamError("stored block truncated")
            if zlib.crc32(body) != checksum:
                raise CorruptStreamError("content checksum mismatch")
            return bytes(body)
        if mode != _MODE_COMPRESSED:
            raise CorruptStreamError(f"unknown lzfast mode {mode}")
        out = bytearray()
        n = len(blob)
        while pos < n:
            control = blob[pos]
            pos += 1
            if control < 0x80:
                run = control + 1
                if pos + run > n:
                    raise CorruptStreamError("literal run truncated")
                out.extend(blob[pos : pos + run])
                pos += run
            else:
                if pos + 2 > n:
                    raise CorruptStreamError("match token truncated")
                length = (control & 0x7F) + _MIN_MATCH
                distance = blob[pos] | (blob[pos + 1] << 8)
                pos += 2
                start = len(out) - distance
                if start < 0 or distance == 0:
                    raise CorruptStreamError("invalid match distance")
                extend_match(out, start, length)
        if len(out) != orig_len:
            raise CorruptStreamError(
                f"decoded {len(out)} bytes, header said {orig_len}"
            )
        if zlib.crc32(bytes(out)) != checksum:
            raise CorruptStreamError("content checksum mismatch")
        return bytes(out)

"""Codec interface, registry, and ratio metrics.

Every codec in the substrate implements :class:`Codec` and registers itself
under a short name (``"deflate"``, ``"lzfast"``, ``"zstd-like"``). Besides
the functional ``compress``/``decompress`` pair, each codec carries a
:class:`CodecSpec` describing its *modeled* software cost in CPU
cycles/byte; the cost model (EQ3.4's ``CCPerGB``) and the interference
model consume those numbers, mirroring how the paper couples zstd/lzo
software speeds into its first-order equations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from repro.errors import ConfigError, CorruptStreamError


@dataclass(frozen=True)
class CodecSpec:
    """Modeled software-implementation cost of a codec.

    ``compress_cycles_per_byte`` / ``decompress_cycles_per_byte`` are
    calibrated against published single-core throughputs of the algorithm
    family each codec stands in for (zstd ~ 500 MBps compress on a ~2.6 GHz
    core, lzo faster and lighter, deflate slower and denser). The paper's
    average ``CCPerGB`` of 7.65e9 cycles/GB (~7.65 cycles/byte averaged over
    compress + decompress of zstd and lzo) anchors the defaults.
    """

    name: str
    compress_cycles_per_byte: float
    decompress_cycles_per_byte: float

    def __post_init__(self) -> None:
        if self.compress_cycles_per_byte <= 0 or self.decompress_cycles_per_byte <= 0:
            raise ConfigError("codec cycle costs must be positive")

    @property
    def mean_cycles_per_byte(self) -> float:
        """Average of compress and decompress cost, as EQ3.4 uses."""
        return (self.compress_cycles_per_byte + self.decompress_cycles_per_byte) / 2.0

    def compress_throughput_bps(self, freq_hz: float) -> float:
        """Single-core compression throughput at clock ``freq_hz``."""
        return freq_hz / self.compress_cycles_per_byte


class Codec(ABC):
    """A lossless byte-stream codec.

    Implementations must be pure functions of their input: identical input
    bytes produce identical output bytes, and
    ``decompress(compress(data)) == data`` for every ``bytes`` value.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    #: Modeled software cost; subclasses override.
    spec: CodecSpec

    @abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Encode ``data`` and return the compressed blob."""

    @abstractmethod
    def decompress(self, blob: bytes) -> bytes:
        """Decode a blob produced by :meth:`compress`."""


_REGISTRY: Dict[str, Type[Codec]] = {}


def register_codec(cls: Type[Codec]) -> Type[Codec]:
    """Class decorator adding a codec to the global registry."""
    if not cls.name or cls.name == "abstract":
        raise ConfigError(f"codec class {cls.__name__} must define a name")
    if cls.name in _REGISTRY:
        raise ConfigError(f"duplicate codec name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_codec(name: str, **kwargs) -> Codec:
    """Instantiate a registered codec by name.

    Keyword arguments are forwarded to the codec constructor (e.g.
    ``get_codec("deflate", window_size=1024)``).
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown codec {name!r}; available: {known}") from None
    return cls(**kwargs)


def available_codecs() -> List[str]:
    """Names of all registered codecs, sorted."""
    return sorted(_REGISTRY)


#: Decoded bytes one blob byte can stand for in the lzfast and
#: zstd-like formats (a match of at most 130 resp. 511 bytes costs three
#: bytes) and in every deflate blob of a 4 KiB page. The native decoders
#: size their output buffer from the header's ``orig_len``, so a blob
#: claiming more is left to the Python decoder.
MAX_EXPANSION = 256


def refuse_overclaim(
    orig_len: int, blob_len: int, expansion: int = MAX_EXPANSION
) -> None:
    """Raise unless ``blob_len`` bytes can decode to a header's
    ``orig_len``: a damaged varint must not size anything."""
    if orig_len > expansion * blob_len:
        raise CorruptStreamError(
            f"header claims {orig_len} bytes from a {blob_len}-byte blob"
        )


def byte_varint(value: int, low_bit_continue: bool = False) -> bytes:
    """LEB128: 7-bit groups, low first, continue flag in the high bit —
    the ``orig_len`` field of the deflate and lzfast headers. With
    ``low_bit_continue`` the flag is bit 0 and the group sits above it:
    ``bitio.write_varint_bits`` on a byte boundary, the zstd-like
    header's field."""
    out = bytearray()
    while True:
        more = 1 if value >> 7 else 0
        if low_bit_continue:
            out.append(((value & 0x7F) << 1) | more)
        else:
            out.append((value & 0x7F) | (more << 7))
        value >>= 7
        if not value:
            return bytes(out)


def native_header(
    blob: bytes, magic: int, low_bit_continue: bool = False
) -> Optional[Tuple[int, int, int, int]]:
    """Parse ``magic | mode | varint(orig_len) | crc32`` for a native
    decoder: ``(mode, orig_len, checksum, payload offset)``, or ``None``
    when the header is short, foreign or overclaims, or the blob is not
    a ``bytes`` object a kernel can take by pointer — the Python decoder
    then reads or diagnoses it. ``low_bit_continue`` selects the
    bit-stream varint (continue flag in bit 0) over the byte one (bit 7)."""
    if type(blob) is not bytes or len(blob) < 7 or blob[0] != magic:
        return None
    value = shift = 0
    pos = 2
    while True:
        if pos >= len(blob) or shift > 35:
            return None
        byte = blob[pos]
        pos += 1
        if low_bit_continue:
            value |= (byte >> 1) << shift
            more = byte & 1
        else:
            value |= (byte & 0x7F) << shift
            more = byte & 0x80
        if not more:
            break
        shift += 7
    if pos + 4 > len(blob) or value > MAX_EXPANSION * len(blob):
        return None
    checksum = int.from_bytes(blob[pos : pos + 4], "little")
    return blob[1], value, checksum, pos + 4


def compression_ratio(data: bytes, codec: Codec) -> float:
    """Uncompressed/compressed size ratio (higher is better, >= ~0.9)."""
    if not data:
        raise ValueError("cannot measure ratio of an empty buffer")
    return len(data) / len(codec.compress(data))


def space_savings(data: bytes, codec: Codec) -> float:
    """Fraction of space saved: ``1 - compressed/uncompressed``."""
    if not data:
        raise ValueError("cannot measure savings of an empty buffer")
    return 1.0 - len(codec.compress(data)) / len(data)

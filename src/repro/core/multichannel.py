"""Multi-channel mode: compressed data layout across interleaved DIMMs.

Commodity servers interleave physical addresses across channels at 256 B
granularity, so the bytes of one 4 KiB page land on several DIMMs and each
DIMM's NMA only ever sees its own stripe (§6, Fig. 9). XFM therefore
compresses the *reordered* per-DIMM byte streams independently (shrinking
the effective compression window from 4 KiB to 4 KiB / #DIMMs) and places
every page's compressed output at the same offset in each DIMM's SFM
region, trading internal fragmentation (the slot must fit the largest
segment) for a layout the host can address without DIMM-side translation.

This module measures both effects on real codecs — Fig. 8's ratio-vs-DIMMs
curves and §8's 5% / 14% memory-savings reductions — and is the layout
:class:`~repro.core.backend.XfmBackend` stores multi-DIMM pages in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.compression.base import Codec
from repro.compression.deflate import DeflateCodec
from repro.errors import ConfigError, CorruptStreamError
from repro.sfm.page import PAGE_SIZE

#: Channel-interleave granularity of commodity servers (§6).
INTERLEAVE_BYTES = 256


def default_codec_factory(window_size: int) -> Codec:
    """Deflate with the given window — the accelerator's algorithm."""
    return DeflateCodec(window_size=max(256, window_size))


@dataclass(frozen=True)
class CompressedPage:
    """One page compressed in multi-channel mode."""

    segments: tuple
    original_len: int

    @property
    def num_dimms(self) -> int:
        return len(self.segments)

    @property
    def payload_bytes(self) -> int:
        """Sum of per-DIMM compressed segment sizes."""
        return sum(len(segment) for segment in self.segments)

    @property
    def stored_bytes(self) -> int:
        """Bytes actually consumed under same-offset placement: every DIMM
        advances its allocation cursor by the *largest* segment (§6)."""
        return max(len(segment) for segment in self.segments) * len(
            self.segments
        )

    @property
    def fragmentation_bytes(self) -> int:
        return self.stored_bytes - self.payload_bytes


class MultiChannelLayout:
    """Split/compress/gather pages for an N-DIMM interleaved system."""

    def __init__(self, num_dimms: int = 4) -> None:
        if num_dimms < 1:
            raise ConfigError("num_dimms must be >= 1")
        if PAGE_SIZE % (num_dimms * INTERLEAVE_BYTES):
            raise ConfigError(
                f"page size {PAGE_SIZE} must divide evenly into "
                f"{num_dimms} x {INTERLEAVE_BYTES} B stripes"
            )
        self.num_dimms = num_dimms
        self.window_size = PAGE_SIZE // num_dimms
        #: Each DIMM's NMA compresses its stripe with this codec.
        self.codec = default_codec_factory(self.window_size)

    # -- stripe split / gather ------------------------------------------------

    def split(self, data: bytes) -> List[bytes]:
        """Round-robin 256 B chunks onto the DIMMs (the hardware layout)."""
        if len(data) != PAGE_SIZE:
            raise ConfigError(
                f"expected a {PAGE_SIZE}-byte page, got {len(data)}"
            )
        if self.num_dimms == 1:
            return [data]
        streams: List[bytearray] = [bytearray() for _ in range(self.num_dimms)]
        for index in range(0, len(data), INTERLEAVE_BYTES):
            dimm = (index // INTERLEAVE_BYTES) % self.num_dimms
            streams[dimm] += data[index : index + INTERLEAVE_BYTES]
        return [bytes(stream) for stream in streams]

    def gather(self, streams: Sequence[bytes]) -> bytes:
        """Inverse of :meth:`split` — the CPU_Fallback decompress path's
        gather step (Fig. 9b), done here without extra staging copies."""
        if len(streams) != self.num_dimms:
            raise ConfigError(
                f"expected {self.num_dimms} streams, got {len(streams)}"
            )
        if self.num_dimms == 1:
            return streams[0]
        out = bytearray(PAGE_SIZE)
        chunks_per_dimm = PAGE_SIZE // (INTERLEAVE_BYTES * self.num_dimms)
        for dimm, stream in enumerate(streams):
            if len(stream) != chunks_per_dimm * INTERLEAVE_BYTES:
                raise ConfigError("stream length mismatch")
            for chunk in range(chunks_per_dimm):
                src = chunk * INTERLEAVE_BYTES
                dst = (chunk * self.num_dimms + dimm) * INTERLEAVE_BYTES
                out[dst : dst + INTERLEAVE_BYTES] = stream[
                    src : src + INTERLEAVE_BYTES
                ]
        return bytes(out)

    # -- same-offset placement ---------------------------------------------------

    def pack(self, segments: Sequence[bytes]) -> bytes:
        """One stored blob: every DIMM's segment zero-padded to the
        largest, in DIMM order — the same offset in every region (§6).
        A segment decodes with its padding attached: the decoder stops
        at the end of its stream."""
        if self.num_dimms == 1:
            return segments[0]
        slot = max(map(len, segments))
        return b"".join(segment.ljust(slot, b"\0") for segment in segments)

    def unpack(self, blob: bytes) -> List[bytes]:
        """Inverse of :meth:`pack`: each DIMM's padded segment."""
        if self.num_dimms == 1:
            return [blob]
        slot, rest = divmod(len(blob), self.num_dimms)
        if rest:
            raise CorruptStreamError(
                f"{len(blob)}-byte blob does not split into "
                f"{self.num_dimms} equal slots"
            )
        return [blob[i * slot : (i + 1) * slot] for i in range(self.num_dimms)]

    # -- compression ---------------------------------------------------------------

    def compress_page(self, data: bytes) -> CompressedPage:
        """Compress each DIMM's stripe independently."""
        return CompressedPage(
            segments=tuple(
                self.codec.compress(stream) for stream in self.split(data)
            ),
            original_len=len(data),
        )

    def decompress_page(self, page: CompressedPage) -> bytes:
        """Decompress all stripes and re-interleave."""
        if page.num_dimms != self.num_dimms:
            raise ConfigError("compressed page is for a different layout")
        return self.gather(
            [self.codec.decompress(segment) for segment in page.segments]
        )


@dataclass
class MultiChannelReport:
    """Aggregated Fig. 8 measurements for one corpus."""

    corpus: str
    pages: int
    #: DIMM count -> compression ratio including placement fragmentation.
    stored_ratio: Dict[int, float]
    #: DIMM count -> ratio on payload bytes only (pure window effect).
    payload_ratio: Dict[int, float]

    def savings(self, num_dimms: int) -> float:
        """Space savings fraction under same-offset placement."""
        return 1.0 - 1.0 / self.stored_ratio[num_dimms]

    def savings_reduction_vs_inorder(self, num_dimms: int) -> float:
        """Relative memory-savings loss vs the 1-DIMM in-order layout —
        the 5% / 14% numbers §8 reports for 2 / 4 channels."""
        base = self.savings(1)
        if base <= 0:
            return 0.0
        return 1.0 - self.savings(num_dimms) / base

    def ratio_retention(self, num_dimms: int) -> float:
        """Fraction of the in-order compression ratio retained (86.2%
        average at 4 DIMMs in §6)."""
        return self.stored_ratio[num_dimms] / self.stored_ratio[1]


def measure_corpus(
    corpus: str,
    pages: Sequence[bytes],
    dimm_counts: Sequence[int] = (1, 2, 4),
    verify: bool = False,
) -> MultiChannelReport:
    """Compress ``pages`` under each DIMM configuration and report ratios."""
    stored: Dict[int, float] = {}
    payload: Dict[int, float] = {}
    for num_dimms in dimm_counts:
        layout = MultiChannelLayout(num_dimms=num_dimms)
        total_in = 0
        total_stored = 0
        total_payload = 0
        for data in pages:
            compressed = layout.compress_page(data)
            if verify and layout.decompress_page(compressed) != data:
                raise ConfigError("multi-channel round trip failed")
            total_in += compressed.original_len
            total_stored += compressed.stored_bytes
            total_payload += compressed.payload_bytes
        stored[num_dimms] = total_in / total_stored
        payload[num_dimms] = total_in / total_payload
    return MultiChannelReport(
        corpus=corpus, pages=len(pages), stored_ratio=stored,
        payload_ratio=payload,
    )

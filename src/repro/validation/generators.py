"""Seeded case generators for the property tests.

Every generator is a pure function of the ``random.Random`` it is given.
A Hypothesis test drives one through ``st.randoms(use_true_random=False)``,
so Hypothesis records, shrinks and replays each draw; a fixed case list
seeds plain ``random.Random`` objects from :func:`case_seed`. Generators
cover the surfaces the validation suite checks: raw pages (codec
round-trips), damaged codec blobs (decoder error parity), zpool
operation scripts (invariant churn), MMIO register programs (driver
protocol), offload batches (the emulator-vs-module differential
oracle), and fault plans (chaos).
"""

from __future__ import annotations

import hashlib
import random
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.compression.base import byte_varint
from repro.compression.bitio import BitWriter, write_varint_bits
from repro.compression.huffman import HuffmanTable
from repro.compression.lz77 import (
    PACKED_LENGTH_BITS,
    PACKED_LENGTH_MASK,
    Lz77Matcher,
)
from repro.compression.zstd_like import (
    _MAGIC as _ZSTD_LIKE_MAGIC,
    _MODE_COMPRESSED as _ZSTD_LIKE_COMPRESSED,
    ZstdLikeCodec,
)
from repro.workloads.corpus import CORPUS_NAMES, PAGE_SIZE, generate_corpus


def case_seed(root_seed: int, index: int) -> int:
    """The derived seed for case ``index`` of a list rooted at
    ``root_seed`` — a pure function, stable across platforms and runs."""
    digest = hashlib.blake2b(
        f"repro.fuzz:{root_seed}:{index}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


#: Byte-level adversarial shapes every codec must survive (satellite
#: list from the validation issue plus historical codec trouble spots).
ADVERSARIAL_BUFFERS: Tuple[bytes, ...] = (
    b"",
    b"\x00",
    b"a",
    bytes(PAGE_SIZE),  # all-zero page
    b"\xff" * PAGE_SIZE,
    b"abc" * (PAGE_SIZE // 3 + 1),  # repeated 3-byte period
    bytes(range(256)) * (PAGE_SIZE // 256),
    b"ab" * (PAGE_SIZE // 2),
    bytes([0, 255] * (PAGE_SIZE // 2)),
)


def gen_page(rng: random.Random, page_size: int = PAGE_SIZE) -> bytes:
    """One page drawn from a spectrum of redundancy structures."""
    style = rng.randrange(7)
    if style == 0:
        return bytes(page_size)
    if style == 1:
        return bytes(rng.getrandbits(8) for _ in range(page_size))
    if style == 2:  # short repeated period (1-9 bytes)
        period = bytes(
            rng.getrandbits(8) for _ in range(rng.randint(1, 9))
        )
        return (period * (page_size // len(period) + 1))[:page_size]
    if style == 3:  # sparse: zeros with initialized islands
        page = bytearray(page_size)
        for _ in range(rng.randint(1, 8)):
            start = rng.randrange(page_size)
            run = rng.randint(1, 256)
            for i in range(start, min(page_size, start + run)):
                page[i] = rng.getrandbits(8)
        return bytes(page)
    if style == 4:  # truncated page (partial tail write)
        return gen_page(rng, rng.randint(0, page_size - 1) or 1)
    if style == 5:  # dictionary blocks at realistic match distances
        dictionary = [
            bytes(rng.getrandbits(8) for _ in range(rng.randint(4, 64)))
            for _ in range(rng.randint(1, 6))
        ]
        out = bytearray()
        while len(out) < page_size:
            out += rng.choice(dictionary)
        return bytes(out[:page_size])
    # corpus-class page
    name = rng.choice(CORPUS_NAMES)
    return generate_corpus(name, page_size, seed=rng.getrandbits(31))


# -- damaged blobs -----------------------------------------------------------


def _zstd_like_blob(
    page: bytes,
    literals: bytes,
    sequences: Sequence[Tuple[int, int, int]],
    lit_count: Optional[int] = None,
    seq_count: Optional[int] = None,
    orig_len: Optional[int] = None,
) -> bytes:
    """Serialise a compressed-mode zstd-like blob field by field, with
    any of the three counts overridden (see the layout in
    :mod:`repro.compression.zstd_like`)."""
    writer = BitWriter()
    writer.write_bits(_ZSTD_LIKE_MAGIC, 8)
    writer.write_bits(_ZSTD_LIKE_COMPRESSED, 8)
    write_varint_bits(writer, len(page) if orig_len is None else orig_len)
    writer.write_bits(zlib.crc32(page), 32)
    write_varint_bits(writer, len(literals) if lit_count is None else lit_count)
    if literals:
        freq = [0] * 256
        for byte in literals:
            freq[byte] += 1
        table = HuffmanTable.from_frequencies(freq)
        for length in table.lengths:
            writer.write_bits(length, 4)
        for byte in literals:
            table.encode(writer, byte)
    write_varint_bits(
        writer, len(sequences) if seq_count is None else seq_count
    )
    for lit_run, match_len, offset in sequences:
        write_varint_bits(writer, lit_run)
        write_varint_bits(writer, match_len)
        if match_len:
            write_varint_bits(writer, offset)
    return writer.getvalue()


def tail_damage(blob: bytes, span: int = 16) -> List[bytes]:
    """Every truncation of ``blob``'s last ``span`` bytes and every
    single-bit flip in them: the stretch where a decoder's word-wide
    refill hands over to its byte-at-a-time tail."""
    tail = min(span, len(blob))
    cases = [blob[: len(blob) - cut] for cut in range(1, tail + 1)]
    for index in range(len(blob) - tail, len(blob)):
        for bit in range(8):
            damaged = bytearray(blob)
            damaged[index] ^= 1 << bit
            cases.append(bytes(damaged))
    return cases


def gen_blob_mutation(rng: random.Random, codec_cls=ZstdLikeCodec) -> bytes:
    """A ``codec_cls`` blob damaged in one way its decoder must
    diagnose. Every codec: flipped bits or a truncation of a real blob,
    or a wrong ``orig_len`` in the header. The zstd-like format adds a
    wrong ``lit_count`` / ``seq_count``, or one sequence with a zero or
    too-far offset, a match shorter than 3, or an overlong literal run.
    Some cases come out valid (a flip in padding, a +0 bump)."""
    page = gen_page(rng)
    if codec_cls is ZstdLikeCodec:
        window = rng.choice((4096, 128 * 1024))
        codec = ZstdLikeCodec(window_size=window)
        style = rng.randrange(9)
    else:
        codec = codec_cls()
        style = rng.randrange(3)
    if style < 2:
        blob = bytearray(codec.compress(page))
        if style == 0:
            for _ in range(rng.randint(1, 3)):
                bit = rng.randrange(len(blob) * 8)
                blob[bit >> 3] ^= 1 << (bit & 7)
        else:
            del blob[rng.randrange(len(blob)):]
        return bytes(blob)
    bump = rng.choice((-3, -1, 0, 1, 2, 17, 1 << 12, 1 << 30, 1 << 42))
    if codec_cls is not ZstdLikeCodec:
        # deflate / lzfast: ``magic | mode | orig_len`` with a byte-wise
        # varint (continue flag in the high bit) — re-write it in place.
        blob = codec.compress(page)
        end = 3
        while blob[end - 1] & 0x80:
            end += 1
        orig_len = byte_varint(max(0, len(page) + bump))
        return blob[:2] + orig_len + blob[end:]

    literals = bytearray()
    sequences: List[Tuple[int, int, int]] = []
    run = 0
    for token in Lz77Matcher(window_size=window).tokenize_packed(page):
        if token < 256:
            literals.append(token)
            run += 1
        else:
            sequences.append(
                (run, token & PACKED_LENGTH_MASK, token >> PACKED_LENGTH_BITS)
            )
            run = 0
    if run:
        sequences.append((run, 0, 0))
    counts = {}
    if style == 2:
        counts["orig_len"] = max(0, len(page) + bump)
    elif style == 3:
        counts["lit_count"] = max(0, len(literals) + bump)
    elif style == 4:
        counts["seq_count"] = max(0, len(sequences) + bump)
    else:
        if not sequences:
            sequences.append((0, 3, 1))
        index = rng.randrange(len(sequences))
        lit_run, match_len, offset = sequences[index]
        if style == 5:
            match_len, offset = match_len or 3, 0
        elif style == 6:
            match_len, offset = rng.randint(1, 2), max(offset, 1)
        elif style == 7:
            match_len, offset = match_len or 3, offset + len(page) + bump
        else:
            lit_run += max(1, bump)
        sequences[index] = (lit_run, match_len, max(0, offset))
    return _zstd_like_blob(page, bytes(literals), sequences, **counts)


# -- data-structure operation scripts ---------------------------------------


def gen_zpool_ops(rng: random.Random, n: int = 120) -> List[Tuple]:
    """Store/free/compact/load churn; indices are resolved against the
    live handle list at execution time, so scripts stay replayable."""
    ops: List[Tuple] = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.45:
            length = rng.choice(
                (1, 16, rng.randint(17, 512), rng.randint(513, 2048), 4096)
            )
            fill = rng.getrandbits(8)
            ops.append(("store", length, fill))
        elif roll < 0.75:
            ops.append(("free", rng.getrandbits(16)))
        elif roll < 0.9:
            ops.append(("load", rng.getrandbits(16)))
        else:
            ops.append(("compact",))
    return ops


# -- MMIO register programs --------------------------------------------------


def gen_register_program(rng: random.Random, n: int = 60) -> List[Tuple]:
    """A host/device MMIO op sequence, including illegal accesses the
    register file must reject (read-only writes, unknown offsets,
    negative values)."""
    from repro.core.registers import Registers

    offsets = [int(register) for register in Registers]
    ops: List[Tuple] = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.1:  # unknown offset
            offset = rng.choice((0x4, 0x100, 0x7F, 0xFF8))
        else:
            offset = rng.choice(offsets)
        kind = rng.choice(("read", "write", "device_set"))
        if kind == "read":
            ops.append(("read", offset))
        elif kind == "write":
            value = rng.randint(-4, 1 << 32) if rng.random() < 0.2 else (
                rng.getrandbits(20)
            )
            ops.append(("write", offset, value))
        else:
            ops.append(("device_set", rng.choice(offsets), rng.getrandbits(20)))
    return ops


# -- offload batches (differential oracle input) -----------------------------


@dataclass(frozen=True)
class OffloadOp:
    """One NMA access submission in a replayable offload batch."""

    ref: int  # REF index at which the request is submitted
    is_write: bool
    row: Optional[int]  # None = placement-flexible
    nbytes: int


def gen_offload_batch(
    rng: random.Random,
    num_refs: int = 64,
    rows: int = 128 * 1024,
    max_ops_per_ref: int = 3,
    page_bytes: int = PAGE_SIZE,
) -> List[OffloadOp]:
    """A seeded batch mixing compression reads (placement-flexible
    writebacks), fixed-row prefetch reads, and blob-sized transfers —
    the same shapes the emulator submits per window."""
    batch: List[OffloadOp] = []
    blob = max(64, page_bytes // 3)
    for ref in range(num_refs):
        for _ in range(rng.randint(0, max_ops_per_ref)):
            roll = rng.random()
            if roll < 0.3:
                # Compressed-blob writeback: placement-flexible.
                batch.append(
                    OffloadOp(ref=ref, is_write=True, row=None, nbytes=blob)
                )
            elif roll < 0.55:
                # Compression input read: cold candidates are abundant,
                # the controller picks one in the refreshing rows.
                batch.append(
                    OffloadOp(
                        ref=ref, is_write=False, row=None, nbytes=page_bytes
                    )
                )
            elif roll < 0.8:
                # Prefetch read of a fixed-row blob.
                batch.append(
                    OffloadOp(
                        ref=ref,
                        is_write=False,
                        row=rng.randrange(rows),
                        nbytes=blob,
                    )
                )
            else:
                # Decompressed-page writeback to a fresh frame.
                batch.append(
                    OffloadOp(
                        ref=ref, is_write=True, row=None, nbytes=page_bytes
                    )
                )
    return batch


def gen_fault_plan(
    rng: random.Random,
    max_sites: int = 6,
    max_probability: float = 0.15,
) -> "FaultPlan":
    """A seeded :class:`~repro.resilience.faults.FaultPlan`: a random
    subset of injection sites with moderate probabilities, so a fuzzed
    chaos run sees several distinct fault kinds without drowning the
    workload. The plan seed itself is drawn from ``rng``, keeping the
    whole campaign reproducible from one case seed."""
    from repro.resilience.faults import ALL_SITES, FaultPlan, FaultSpec

    count = rng.randint(1, min(max_sites, len(ALL_SITES)))
    sites = rng.sample(ALL_SITES, count)
    specs = tuple(
        FaultSpec(
            site=site,
            probability=round(rng.uniform(0.01, max_probability), 4),
            skip_calls=rng.choice((0, 0, 0, 5, 20)),
            max_fires=rng.choice((0, 0, 1, 4)),
            magnitude=(
                round(rng.uniform(2.0, 16.0), 2)
                if site == "dfm.latency_spike" else 0.0
            ),
        )
        for site in sorted(sites)
    )
    return FaultPlan(seed=rng.getrandbits(32), specs=specs)

"""Deterministic synthetic compression corpora.

The paper's Fig. 8 compresses "page-divided corpuses" (Silesia/Calgary-style
files plus memory snapshots) at channel-interleave granularity. Those files
are not redistributable here, so this module generates sixteen synthetic
corpora with controlled redundancy structure spanning the same spectrum:
natural-ish text, source code, logs, serialized records, numeric tables,
binary structures, pointer-rich heaps, and incompressible data.

What matters for the experiment is *how the match structure degrades when a
page is split across DIMMs*, which these generators exercise because their
redundancy comes from genuine repeated substrings at realistic distances,
not from a compressibility dial.

All generators are pure functions of ``(size, seed)``.
"""

from __future__ import annotations

import random
import string
import struct
import zlib
from typing import Callable, Dict, List

from repro.errors import ConfigError

PAGE_SIZE = 4096

_WORDS = (
    "the of and a to in is was he for it with as his on be at by had not "
    "are but from or have an they which one you were her all she there "
    "would their we him been has when who will more no if out so said what "
    "up its about into than them can only other new some could time these "
    "two may then do first any my now such like our over man me even most "
    "made after also did many before must through years where much your "
    "way well down should because each just those people how too little "
    "state good very make world still own see men work long get here "
    "between both life being under never day same another know while last "
    "might us great old year off come since against go came right used "
    "take three"
).split()

_IDENTIFIERS = (
    "buffer index offset length count entry node page frame slot cache "
    "queue table request response handler worker stream chunk region pool "
    "header footer record cursor status config context result value key"
).split()


def _text_english(size: int, rng: random.Random) -> bytes:
    """Natural-language-like text via a word-level bigram walk."""
    out: List[str] = []
    total = 0
    sentence_len = 0
    while total < size:
        word = rng.choice(_WORDS)
        if sentence_len == 0:
            word = word.capitalize()
        out.append(word)
        total += len(word) + 1
        sentence_len += 1
        if sentence_len >= rng.randint(6, 18):
            out[-1] += "."
            sentence_len = 0
    return " ".join(out).encode("ascii")[:size]


def _source_code(size: int, rng: random.Random) -> bytes:
    """C-like source: heavy identifier reuse, indentation, punctuation."""
    lines: List[str] = []
    total = 0
    locals_pool = rng.sample(_IDENTIFIERS, 12)
    while total < size:
        kind = rng.random()
        a, b, c = (rng.choice(locals_pool) for _ in range(3))
        if kind < 0.25:
            line = f"    int {a}_{b} = {a}->{c} + {rng.randint(0, 255)};"
        elif kind < 0.5:
            line = f"    if ({a}->{b} != NULL && {a}->{c} > 0) {{"
        elif kind < 0.7:
            line = f"        {a}_{b}({c}, sizeof(struct {a}_{c}));"
        elif kind < 0.85:
            line = f"    return {a}->{b}[{c}_index];"
        else:
            line = f"}}  /* end of {a}_{b} */"
        lines.append(line)
        total += len(line) + 1
    return "\n".join(lines).encode("ascii")[:size]


def _server_log(size: int, rng: random.Random) -> bytes:
    """Timestamped log lines with a small message vocabulary."""
    messages = [
        "GET /api/v1/users/%d HTTP/1.1 200 %d",
        "POST /api/v1/orders HTTP/1.1 201 %d id=%d",
        "connection from 10.0.%d.%d closed",
        "cache miss for key user:%d:profile latency=%dus",
        "swap-out page=%d pool=zsmalloc bytes=%d",
        "worker %d heartbeat ok rtt=%dms",
    ]
    lines: List[str] = []
    total = 0
    ts = 1_690_000_000
    while total < size:
        ts += rng.randint(0, 3)
        msg = rng.choice(messages) % (rng.randint(1, 9999), rng.randint(1, 9999))
        line = f"2023-07-22T10:{(ts // 60) % 60:02d}:{ts % 60:02d}Z srv{rng.randint(1, 8)} INFO {msg}"
        lines.append(line)
        total += len(line) + 1
    return "\n".join(lines).encode("ascii")[:size]


def _json_records(size: int, rng: random.Random) -> bytes:
    """Serialized JSON documents with a fixed schema (key-name redundancy)."""
    docs: List[str] = []
    total = 0
    cities = ["lawrence", "toronto", "boston", "seattle", "austin", "denver"]
    while total < size:
        doc = (
            '{"user_id":%d,"name":"user_%04d","city":"%s",'
            '"active":%s,"score":%0.2f,"tags":["t%d","t%d"]}'
            % (
                rng.randint(1, 100000),
                rng.randint(0, 9999),
                rng.choice(cities),
                rng.choice(["true", "false"]),
                rng.random() * 100,
                rng.randint(0, 30),
                rng.randint(0, 30),
            )
        )
        docs.append(doc)
        total += len(doc) + 1
    return "\n".join(docs).encode("utf-8")[:size]


def _csv_table(size: int, rng: random.Random) -> bytes:
    """Comma-separated numeric table with correlated columns."""
    rows = ["timestamp,sensor,temp_c,humidity,pressure,status"]
    total = len(rows[0]) + 1
    base_t = 21.0
    while total < size:
        base_t += rng.uniform(-0.2, 0.2)
        row = "%d,s%02d,%.2f,%.1f,%.1f,%s" % (
            1_690_000_000 + len(rows),
            rng.randint(0, 15),
            base_t,
            45 + rng.uniform(-2, 2),
            1013 + rng.uniform(-1, 1),
            rng.choice(["ok", "ok", "ok", "warn"]),
        )
        rows.append(row)
        total += len(row) + 1
    return "\n".join(rows).encode("ascii")[:size]


def _html_markup(size: int, rng: random.Random) -> bytes:
    """HTML with nested, highly repetitive tag structure."""
    out: List[str] = ["<html><body>"]
    total = len(out[0])
    while total < size:
        cls = rng.choice(["row", "cell", "item card", "nav-link"])
        word = rng.choice(_WORDS)
        frag = f'<div class="{cls}"><span>{word} {rng.randint(0, 999)}</span></div>'
        out.append(frag)
        total += len(frag)
    out.append("</body></html>")
    return "".join(out).encode("ascii")[:size]


def _binary_structs(size: int, rng: random.Random) -> bytes:
    """Packed C-struct records: fixed layout, small varying fields."""
    out = bytearray()
    record_type = rng.randint(1, 7)
    while len(out) < size:
        out += struct.pack(
            "<IHHQdII",
            0xDEADBEEF,
            record_type,
            rng.randint(0, 15),
            len(out),
            rng.random(),
            rng.randint(0, 1023),
            0,
        )
    return bytes(out[:size])


def _heap_pointers(size: int, rng: random.Random) -> bytes:
    """64-bit pointer-rich heap page: shared high bytes, varying low bits."""
    out = bytearray()
    heap_base = 0x7F3A_0000_0000 + rng.randint(0, 0xFFFF) * 0x10000
    while len(out) < size:
        if rng.random() < 0.7:
            ptr = heap_base + rng.randint(0, 1 << 20) * 16
            out += struct.pack("<Q", ptr)
        else:
            out += struct.pack("<Q", rng.randint(0, 255))
    return bytes(out[:size])


def _integer_array(size: int, rng: random.Random) -> bytes:
    """Monotone int64 array (timestamps/IDs): small deltas, shared bytes."""
    out = bytearray()
    value = rng.randint(1 << 40, 1 << 41)
    while len(out) < size:
        value += rng.randint(1, 64)
        out += struct.pack("<q", value)
    return bytes(out[:size])


def _float_matrix(size: int, rng: random.Random) -> bytes:
    """Float64 matrix of smooth values: repetitive exponent bytes."""
    out = bytearray()
    value = rng.uniform(0.9, 1.1)
    while len(out) < size:
        value += rng.uniform(-1e-3, 1e-3)
        out += struct.pack("<d", value)
    return bytes(out[:size])


def _db_btree_page(size: int, rng: random.Random) -> bytes:
    """Database-style pages: header, sorted key prefixes, slot array."""
    out = bytearray()
    while len(out) < size:
        page = bytearray(struct.pack("<IHHII", 0xB7EE, 64, 0, len(out), 0))
        key_base = rng.randint(0, 1 << 20)
        for i in range(64):
            key = f"key{key_base + i:012d}"
            page += struct.pack("<H", len(key)) + key.encode("ascii")
            page += struct.pack("<I", rng.randint(0, 1 << 30))
        out += page
    return bytes(out[:size])


def _zero_pages(size: int, rng: random.Random) -> bytes:
    """All-zero data: freed/untouched pages, the best case for SFM."""
    return bytes(size)


def _sparse_pages(size: int, rng: random.Random) -> bytes:
    """Mostly-zero pages with scattered initialized islands."""
    out = bytearray(size)
    num_islands = max(1, size // 512)
    for _ in range(num_islands):
        start = rng.randrange(0, max(1, size - 64))
        for i in range(rng.randint(8, 64)):
            if start + i < size:
                out[start + i] = rng.randint(1, 255)
    return bytes(out)


def _random_bytes(size: int, rng: random.Random) -> bytes:
    """Uniform random data: the incompressible floor."""
    return bytes(rng.getrandbits(8) for _ in range(size))


def _base64_blob(size: int, rng: random.Random) -> bytes:
    """Base64-looking data: high-entropy but restricted alphabet."""
    alphabet = string.ascii_letters + string.digits + "+/"
    return "".join(rng.choice(alphabet) for _ in range(size)).encode("ascii")


def _xml_config(size: int, rng: random.Random) -> bytes:
    """XML configuration: deeply repetitive element names and values."""
    out: List[str] = ["<?xml version=\"1.0\"?>\n<configuration>\n"]
    total = len(out[0])
    while total < size:
        key = rng.choice(_IDENTIFIERS)
        frag = (
            f'  <property><name>sfm.{key}.size</name>'
            f"<value>{rng.randint(0, 4096)}</value></property>\n"
        )
        out.append(frag)
        total += len(frag)
    out.append("</configuration>\n")
    return "".join(out).encode("ascii")[:size]


_GENERATORS: Dict[str, Callable[[int, random.Random], bytes]] = {
    "text-english": _text_english,
    "source-code": _source_code,
    "server-log": _server_log,
    "json-records": _json_records,
    "csv-table": _csv_table,
    "html-markup": _html_markup,
    "binary-structs": _binary_structs,
    "heap-pointers": _heap_pointers,
    "integer-array": _integer_array,
    "float-matrix": _float_matrix,
    "db-btree": _db_btree_page,
    "zero-pages": _zero_pages,
    "sparse-pages": _sparse_pages,
    "random-bytes": _random_bytes,
    "base64-blob": _base64_blob,
    "xml-config": _xml_config,
}

#: The sixteen corpora, matching the paper's "16 corpus files" (Fig. 8, §8).
CORPUS_NAMES = sorted(_GENERATORS)

_DESCRIPTIONS = {
    "text-english": "natural-language-like text (bigram word walk)",
    "source-code": "C-like source with heavy identifier reuse",
    "server-log": "timestamped server log lines",
    "json-records": "fixed-schema JSON documents",
    "csv-table": "numeric CSV with correlated columns",
    "html-markup": "repetitive nested HTML",
    "binary-structs": "packed fixed-layout C structs",
    "heap-pointers": "pointer-rich 64-bit heap pages",
    "integer-array": "monotone int64 arrays (small deltas)",
    "float-matrix": "smooth float64 matrices",
    "db-btree": "database B-tree pages with sorted keys",
    "zero-pages": "all-zero pages",
    "sparse-pages": "mostly-zero pages with initialized islands",
    "random-bytes": "uniform random (incompressible floor)",
    "base64-blob": "base64-alphabet high-entropy data",
    "xml-config": "repetitive XML configuration",
}


def describe_corpus(name: str) -> str:
    """One-line description of a corpus category."""
    try:
        return _DESCRIPTIONS[name]
    except KeyError:
        raise ConfigError(f"unknown corpus {name!r}") from None


def generate_corpus(name: str, size: int, seed: int = 0) -> bytes:
    """Generate ``size`` bytes of the named corpus, deterministically."""
    if size < 0:
        raise ConfigError(f"size must be non-negative, got {size}")
    try:
        generator = _GENERATORS[name]
    except KeyError:
        known = ", ".join(CORPUS_NAMES)
        raise ConfigError(f"unknown corpus {name!r}; available: {known}") from None
    # zlib.crc32 rather than hash(): stable across interpreter runs.
    rng = random.Random(zlib.crc32(name.encode("utf-8")) ^ seed)
    data = generator(size, rng)
    # Text generators built from joined lines can land one byte short;
    # pad deterministically with a self-repeat so sizes are exact.
    while len(data) < size:
        data = (data + (data or b"\x00"))[:size]
    return data


def corpus_pages(
    name: str, num_pages: int, page_size: int = PAGE_SIZE, seed: int = 0
) -> List[bytes]:
    """Generate ``num_pages`` pages of ``page_size`` bytes from a corpus."""
    data = generate_corpus(name, num_pages * page_size, seed)
    return [
        data[i * page_size : (i + 1) * page_size] for i in range(num_pages)
    ]


def xorshift_bytes(state: int, size: int = PAGE_SIZE) -> bytes:
    """``size`` incompressible bytes: the low byte of each step of a
    32-bit xorshift stream started from ``state`` (no RNG deps).

    This loop is the stream's definition; :func:`noise_page` is the fast
    path for whole pages and is tested against it."""
    out = bytearray(size)
    for i in range(size):
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        out[i] = state & 0xFF
    return bytes(out)


#: ``xorshift_bytes(1 << b)`` for b = 0..31, each as one little-endian
#: int; filled by the first :func:`noise_page` call, not at import.
_BASIS: List[int] = []


def noise_page(state: int) -> bytes:
    """``xorshift_bytes(state)`` for a 32-bit ``state``, without the loop.

    Each xorshift step (shift-XORs masked to 32 bits) is linear over
    GF(2), so every output byte is a GF(2)-linear function of ``state``:
    the page for ``state`` is the XOR of the pages for its set bits. The
    32 basis pages are built once, from the reference loop."""
    if not 0 <= state <= 0xFFFFFFFF:
        raise ValueError(f"xorshift state must be 32-bit, got {state}")
    if not _BASIS:
        _BASIS.extend(
            int.from_bytes(xorshift_bytes(1 << bit), "little")
            for bit in range(32)
        )
    page = 0
    for bit, basis_page in enumerate(_BASIS):
        if state >> bit & 1:
            page ^= basis_page
    return page.to_bytes(PAGE_SIZE, "little")


#: ``j % 251`` for j < 251 + 64: every 64-byte window of the 251-cycle.
_RAMP = bytes(j % 251 for j in range(251 + 64))


def page_for(seed: int, key: int) -> bytes:
    """The campaign page for ``(seed, key)``: a compressible 64-byte
    unit repeated, with every 5th page incompressible noise so stores
    exercise tier fall-through. Part of the seeded contract of the
    chaos and fleet campaigns (``tests/workloads`` pins its CRCs).

    The bytes are the contract, not the construction: a noise page is
    ``xorshift_bytes`` of a 32-bit hash of ``(seed, key)``, built by
    :func:`noise_page`, and the unit is ``(seed + key * 7 + j) % 251``
    for j < 64, sliced from ``_RAMP``."""
    if key % 5 == 4:
        return noise_page(
            ((seed * 1_000_003 + key) * 2654435761 + 1) & 0xFFFFFFFF
        )
    start = (seed + key * 7) % 251
    return _RAMP[start : start + 64] * (PAGE_SIZE // 64)


def tunable_page(
    target_ratio: float, page_size: int = PAGE_SIZE, seed: int = 0
) -> bytes:
    """A page whose deflate compression ratio lands near ``target_ratio``.

    Useful for sweeping compressibility as an independent variable (the
    corpora above have fixed, category-determined ratios). Built by
    interleaving incompressible random runs with a repeated dictionary
    chunk: a fraction ``p`` of repeated content gives a ratio of roughly
    ``1 / (1 - p)`` once the repeats collapse to near-zero cost, so ``p``
    is solved from the target. Exactness is not promised — entropy-coding
    overheads shift the result a few percent — which is why the function
    is used for sweeps, not calibration.
    """
    if target_ratio < 1.0:
        raise ConfigError("target_ratio must be >= 1")
    rng = random.Random(0x7AB1E ^ seed)
    if target_ratio <= 1.001:
        return bytes(rng.getrandbits(8) for _ in range(page_size))
    repeated_fraction = min(0.995, 1.0 - 1.0 / target_ratio)
    dictionary = bytes(rng.getrandbits(8) for _ in range(64))
    out = bytearray()
    block = 64
    while len(out) < page_size:
        if rng.random() < repeated_fraction:
            out += dictionary
        else:
            out += bytes(rng.getrandbits(8) for _ in range(block))
    return bytes(out[:page_size])

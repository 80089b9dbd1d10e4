"""The corpus generators as first written, one ``random`` call per draw:
the oracle the shipped generators in :mod:`repro.workloads.corpus` are
tested against (``tests/workloads/test_corpus.py``).

These loops define the corpus bytes. The shipped generators draw the
same Mersenne-Twister words in bulk or through bound ``getrandbits`` /
``random`` calls, and must agree with these byte for byte and word for
word (the generator's ``Random`` ends in the same state).
"""

from __future__ import annotations

import random
import string
import struct
from typing import Callable, Dict, List

from repro.workloads.corpus import _IDENTIFIERS, _WORDS


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


REFERENCE: Dict[str, Callable[[int, random.Random], bytes]] = {
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


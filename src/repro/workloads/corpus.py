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

All generators are pure functions of ``(size, seed)``. What fixes their
bytes is the stream of 32-bit Mersenne-Twister words each draws from its
private ``random.Random``, not the shape of the code: the one-call-per-draw
loops kept as the oracle in ``tests/workloads/corpus_reference.py`` define
the bytes, and every generator here takes the same words, by CPython's
rules:

- ``getrandbits(k)`` for ``k <= 32`` is the top ``k`` bits of one word;
- ``getrandbits(32 * n)`` and ``randbytes(4 * n)`` are ``n`` words,
  least significant first;
- ``_randbelow(n)``, behind ``choice``, ``randint`` and ``randrange``,
  draws ``k = n.bit_length()`` bits and draws again while ``r >= n``;
- ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` over two
  words ``a, b``, and ``uniform(a, b)`` is ``a + (b - a) * random()``.

The uniform generators (random-bytes, base64-blob, integer-array,
float-matrix) transform the word stream in bulk, at most
``_CHUNK_WORDS`` words at a time, with no Python frame per draw: a
``randbytes`` slice keeps each word's top byte, ``bytes.translate``
applies ``_randbelow(64)``'s rejection and maps the words it keeps, and
``itertools.accumulate`` forms the running sums of integer-array and
float-matrix in draw order, as the loop did. They use no numpy: its
first calls fault ~0.45 MB of its code into a process that otherwise
never runs it, and a workload's peak RSS would carry that. The mixed
generators (text, logs, structured records, pointers) draw inline
through a bound ``getrandbits``/``random`` with the same rejection
loop; each such loop is marked with the call it replaces.

Over-drawing: a bulk draw may take more words than it needs only as the
last consumer of the private ``Random`` that :func:`generate_corpus`
throws away. None here needs to: a bulk rejection draw asks for no more
words than it still lacks values, so every generator leaves its
``Random`` in the state the one-call loop leaves it in.
"""

from __future__ import annotations

import random
import string
import struct
import zlib
from itertools import accumulate, islice
from typing import Callable, Dict, Iterator, List, Optional

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

#: Most words one bulk draw takes: its temporaries (an int and its
#: bytes) stay at 16 KiB whatever the corpus size.
_CHUNK_WORDS = 4096


def _pieces(count: int, most: int) -> Iterator[int]:
    """``count`` as successive pieces of at most ``most``."""
    for done in range(0, count, most):
        yield min(most, count - done)


def _top_bytes(rng: random.Random, count: int) -> bytes:
    """``count`` x ``getrandbits(8)``: byte 3 of each little-endian word."""
    return b"".join(
        rng.randbytes(4 * n)[3::4] for n in _pieces(count, _CHUNK_WORDS)
    )


#: Top bytes of the words ``_randbelow(64)`` rejects: its 7-bit draw,
#: ``byte >> 1``, is 64 or more.
_REJECTED_BELOW_64 = bytes(range(128, 256))


def _below_64(rng: random.Random, count: int) -> Iterator[bytes]:
    """The next ``count`` ``_randbelow(64)`` draws, as the top bytes of
    the accepted words in draw order (each draw is ``byte >> 1``). Each
    round draws one word per draw still missing and keeps the accepted
    ones, so the last round ends on the word the one-call loop ends on."""
    while count > 0:
        tops = _top_bytes(rng, min(count, _CHUNK_WORDS))
        accepted = tops.translate(None, _REJECTED_BELOW_64)
        count -= len(accepted)
        yield accepted


def _text_english(size: int, rng: random.Random) -> bytes:
    """Natural-language-like text via a word-level bigram walk."""
    bits = rng.getrandbits
    n_words = len(_WORDS)
    k_words = n_words.bit_length()
    out: List[str] = []
    total = 0
    sentence_len = 0
    while total < size:
        while (r := bits(k_words)) >= n_words:  # choice(_WORDS)
            pass
        word = _WORDS[r]
        if sentence_len == 0:
            word = word.capitalize()
        out.append(word)
        total += len(word) + 1
        sentence_len += 1
        while (r := bits(4)) >= 13:  # randint(6, 18)
            pass
        if sentence_len >= 6 + r:
            out[-1] += "."
            sentence_len = 0
    return " ".join(out).encode("ascii")[:size]


def _source_code(size: int, rng: random.Random) -> bytes:
    """C-like source: heavy identifier reuse, indentation, punctuation."""
    bits, uniform01 = rng.getrandbits, rng.random
    lines: List[str] = []
    total = 0
    locals_pool = rng.sample(_IDENTIFIERS, 12)
    while total < size:
        kind = uniform01()
        while (r := bits(4)) >= 12:  # a, b, c = 3 x choice(locals_pool)
            pass
        a = locals_pool[r]
        while (r := bits(4)) >= 12:
            pass
        b = locals_pool[r]
        while (r := bits(4)) >= 12:
            pass
        c = locals_pool[r]
        if kind < 0.25:
            while (r := bits(9)) >= 256:  # randint(0, 255)
                pass
            line = f"    int {a}_{b} = {a}->{c} + {r};"
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
    bits = rng.getrandbits
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
        while (r := bits(3)) >= 4:  # randint(0, 3)
            pass
        ts += r
        while (m := bits(3)) >= 6:  # choice(messages)
            pass
        while (x := bits(14)) >= 9999:  # randint(1, 9999), twice
            pass
        while (y := bits(14)) >= 9999:
            pass
        while (srv := bits(4)) >= 8:  # randint(1, 8)
            pass
        msg = messages[m] % (x + 1, y + 1)
        line = f"2023-07-22T10:{(ts // 60) % 60:02d}:{ts % 60:02d}Z srv{srv + 1} INFO {msg}"
        lines.append(line)
        total += len(line) + 1
    return "\n".join(lines).encode("ascii")[:size]


def _json_records(size: int, rng: random.Random) -> bytes:
    """Serialized JSON documents with a fixed schema (key-name redundancy)."""
    bits, uniform01 = rng.getrandbits, rng.random
    docs: List[str] = []
    total = 0
    cities = ["lawrence", "toronto", "boston", "seattle", "austin", "denver"]
    flags = ["true", "false"]
    while total < size:
        while (user := bits(17)) >= 100000:  # randint(1, 100000)
            pass
        while (name := bits(14)) >= 10000:  # randint(0, 9999)
            pass
        while (city := bits(3)) >= 6:  # choice(cities)
            pass
        while (active := bits(2)) >= 2:  # choice(flags)
            pass
        score = uniform01() * 100
        while (tag1 := bits(5)) >= 31:  # randint(0, 30), twice
            pass
        while (tag2 := bits(5)) >= 31:
            pass
        doc = (
            '{"user_id":%d,"name":"user_%04d","city":"%s",'
            '"active":%s,"score":%0.2f,"tags":["t%d","t%d"]}'
            % (user + 1, name, cities[city], flags[active], score, tag1, tag2)
        )
        docs.append(doc)
        total += len(doc) + 1
    return "\n".join(docs).encode("utf-8")[:size]


def _csv_table(size: int, rng: random.Random) -> bytes:
    """Comma-separated numeric table with correlated columns."""
    bits, uniform01 = rng.getrandbits, rng.random
    status = ["ok", "ok", "ok", "warn"]
    rows = ["timestamp,sensor,temp_c,humidity,pressure,status"]
    total = len(rows[0]) + 1
    base_t = 21.0
    while total < size:
        base_t += -0.2 + (0.2 - -0.2) * uniform01()  # uniform(-0.2, 0.2)
        while (sensor := bits(5)) >= 16:  # randint(0, 15)
            pass
        humidity = 45 + (-2 + (2 - -2) * uniform01())  # 45 + uniform(-2, 2)
        pressure = 1013 + (-1 + (1 - -1) * uniform01())  # 1013 + uniform(-1, 1)
        while (r := bits(3)) >= 4:  # choice(status)
            pass
        row = "%d,s%02d,%.2f,%.1f,%.1f,%s" % (
            1_690_000_000 + len(rows), sensor, base_t, humidity, pressure,
            status[r],
        )
        rows.append(row)
        total += len(row) + 1
    return "\n".join(rows).encode("ascii")[:size]


def _html_markup(size: int, rng: random.Random) -> bytes:
    """HTML with nested, highly repetitive tag structure."""
    bits = rng.getrandbits
    n_words = len(_WORDS)
    k_words = n_words.bit_length()
    classes = ["row", "cell", "item card", "nav-link"]
    out: List[str] = ["<html><body>"]
    total = len(out[0])
    while total < size:
        while (c := bits(3)) >= 4:  # choice(classes)
            pass
        while (w := bits(k_words)) >= n_words:  # choice(_WORDS)
            pass
        while (n := bits(10)) >= 1000:  # randint(0, 999)
            pass
        frag = f'<div class="{classes[c]}"><span>{_WORDS[w]} {n}</span></div>'
        out.append(frag)
        total += len(frag)
    out.append("</body></html>")
    return "".join(out).encode("ascii")[:size]


def _binary_structs(size: int, rng: random.Random) -> bytes:
    """Packed C-struct records: fixed layout, small varying fields."""
    bits, uniform01 = rng.getrandbits, rng.random
    record = struct.Struct("<IHHQdII")
    while (record_type := bits(3)) >= 7:  # randint(1, 7)
        pass
    record_type += 1
    out = bytearray(-(-size // record.size) * record.size)
    for offset in range(0, size, record.size):
        while (field := bits(5)) >= 16:  # randint(0, 15)
            pass
        weight = uniform01()
        while (slot := bits(11)) >= 1024:  # randint(0, 1023)
            pass
        record.pack_into(
            out, offset, 0xDEADBEEF, record_type, field, offset, weight,
            slot, 0,
        )
    del out[size:]
    return bytes(out)


def _heap_pointers(size: int, rng: random.Random) -> bytes:
    """64-bit pointer-rich heap page: shared high bytes, varying low bits."""
    bits, uniform01 = rng.getrandbits, rng.random
    put = struct.Struct("<Q").pack_into
    while (r := bits(17)) >= 0x10000:  # randint(0, 0xFFFF)
        pass
    heap_base = 0x7F3A_0000_0000 + r * 0x10000
    out = bytearray(-(-size // 8) * 8)
    for offset in range(0, size, 8):
        if uniform01() < 0.7:
            while (r := bits(21)) > 1 << 20:  # randint(0, 1 << 20)
                pass
            put(out, offset, heap_base + r * 16)
        else:
            while (r := bits(9)) >= 256:  # randint(0, 255)
                pass
            put(out, offset, r)
    del out[size:]
    return bytes(out)


#: Accepted ``_randbelow(64)`` top byte -> ``randint(1, 64)``.
_STEP_OF_TOP_BYTE = bytes((b >> 1) + 1 for b in range(128)) + bytes(128)


def _integer_array(size: int, rng: random.Random) -> bytes:
    """Monotone int64 array (timestamps/IDs): small deltas, shared bytes."""
    while (value := rng.getrandbits(41)) > 1 << 40:  # randint(1 << 40, 1 << 41)
        pass
    value += 1 << 40
    out: List[bytes] = []
    for tops in _below_64(rng, -(-size // 8)):
        steps = tops.translate(_STEP_OF_TOP_BYTE)  # randint(1, 64) each
        values = accumulate(steps, initial=value)  # value += step
        next(values)
        out.append(struct.pack(f"<{len(steps)}q", *values))
        value += sum(steps)
    return b"".join(out)[:size]


def _float_matrix(size: int, rng: random.Random) -> bytes:
    """Float64 matrix of smooth values: repetitive exponent bytes."""
    uniform01 = rng.random
    count = -(-size // 8)
    value = 0.9 + (1.1 - 0.9) * uniform01()  # uniform(0.9, 1.1)
    values = accumulate(  # value += uniform(-1e-3, 1e-3), count times
        (-1e-3 + (1e-3 - -1e-3) * uniform01() for _ in range(count)),
        initial=value,
    )
    next(values)
    return b"".join(
        struct.pack(f"<{n}d", *islice(values, n))
        for n in _pieces(count, _CHUNK_WORDS // 2)
    )[:size]


def _db_btree_page(size: int, rng: random.Random) -> bytes:
    """Database-style pages: header, sorted key prefixes, slot array."""
    bits = rng.getrandbits
    header = struct.Struct("<IHHII")
    entry = struct.Struct("<H15sI")  # every key is "key" + 12 digits
    page_size = header.size + 64 * entry.size
    out = bytearray(-(-size // page_size) * page_size)
    for offset in range(0, size, page_size):
        header.pack_into(out, offset, 0xB7EE, 64, 0, offset, 0)
        while (key_base := bits(21)) > 1 << 20:  # randint(0, 1 << 20)
            pass
        at = offset + header.size
        for key in range(key_base, key_base + 64):
            while (slot := bits(31)) > 1 << 30:  # randint(0, 1 << 30)
                pass
            entry.pack_into(out, at, 15, b"key%012d" % key, slot)
            at += entry.size
    del out[size:]
    return bytes(out)


def _zero_pages(size: int, rng: random.Random) -> bytes:
    """All-zero data: freed/untouched pages, the best case for SFM."""
    return bytes(size)


def _sparse_pages(size: int, rng: random.Random) -> bytes:
    """Mostly-zero pages with scattered initialized islands."""
    bits = rng.getrandbits
    out = bytearray(size)
    span = max(1, size - 64)
    k_span = span.bit_length()
    for _ in range(max(1, size // 512)):
        while (start := bits(k_span)) >= span:  # randrange(0, span)
            pass
        while (length := bits(6)) >= 57:  # randint(8, 64)
            pass
        for i in range(start, min(start + length + 8, size)):
            while (byte := bits(8)) >= 255:  # randint(1, 255)
                pass
            out[i] = byte + 1
    return bytes(out)


def _random_bytes(size: int, rng: random.Random) -> bytes:
    """Uniform random data: the incompressible floor."""
    return _top_bytes(rng, size)


#: Accepted ``_randbelow(64)`` top byte -> ``choice`` of the base64
#: alphabet.
_BASE64_OF_TOP_BYTE = bytes(
    (string.ascii_letters + string.digits + "+/").encode("ascii")[b >> 1]
    for b in range(128)
) + bytes(128)


def _base64_blob(size: int, rng: random.Random) -> bytes:
    """Base64-looking data: high-entropy but restricted alphabet."""
    return b"".join(
        tops.translate(_BASE64_OF_TOP_BYTE) for tops in _below_64(rng, size)
    )


def _xml_config(size: int, rng: random.Random) -> bytes:
    """XML configuration: deeply repetitive element names and values."""
    bits = rng.getrandbits
    n_ids = len(_IDENTIFIERS)
    k_ids = n_ids.bit_length()
    out: List[str] = ["<?xml version=\"1.0\"?>\n<configuration>\n"]
    total = len(out[0])
    while total < size:
        while (r := bits(k_ids)) >= n_ids:  # choice(_IDENTIFIERS)
            pass
        while (value := bits(13)) >= 4097:  # randint(0, 4096)
            pass
        frag = (
            f'  <property><name>sfm.{_IDENTIFIERS[r]}.size</name>'
            f"<value>{value}</value></property>\n"
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
#: ``page_for``'s compressible page per unit start, built on first use:
#: a campaign stores tens of thousands of pages with only 251 contents,
#: and every store of one content shares this one object.
_UNIT_PAGES: List[Optional[bytes]] = [None] * 251


def page_for(seed: int, key: int) -> bytes:
    """The campaign page for ``(seed, key)``: a compressible 64-byte
    unit repeated, with every 5th page incompressible noise so stores
    exercise tier fall-through. Part of the seeded contract of the
    chaos and fleet campaigns (``tests/workloads`` pins its CRCs).

    The bytes are the contract, not the construction: a noise page is
    ``xorshift_bytes`` of a 32-bit hash of ``(seed, key)``, built by
    :func:`noise_page`, and the unit is ``(seed + key * 7 + j) % 251``
    for j < 64, sliced from ``_RAMP``. Every compressible page with the
    same unit is one shared object (``_UNIT_PAGES``)."""
    if key % 5 == 4:
        return noise_page(
            ((seed * 1_000_003 + key) * 2654435761 + 1) & 0xFFFFFFFF
        )
    start = (seed + key * 7) % 251
    page = _UNIT_PAGES[start]
    if page is None:
        page = _UNIT_PAGES[start] = _RAMP[start : start + 64] * (
            PAGE_SIZE // 64
        )
    return page


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
        return _top_bytes(rng, page_size)
    repeated_fraction = min(0.995, 1.0 - 1.0 / target_ratio)
    dictionary = _top_bytes(rng, 64)
    out = bytearray()
    block = 64
    while len(out) < page_size:
        if rng.random() < repeated_fraction:
            out += dictionary
        else:
            out += _top_bytes(rng, block)
    return bytes(out[:page_size])

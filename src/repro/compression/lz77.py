"""LZ77 string matching shared by the Deflate-style and zstd-style codecs.

The tokenizer slides over the input keeping a hash-chain index of 3-byte
prefixes (the classic zlib structure). Two engines produce bit-identical
token streams:

* the **scalar reference** (:meth:`Lz77Matcher._tokenize_packed_scalar`) —
  the seed's fully inlined hash-chain walk: the readable definition of
  the matcher, the oracle the kernel is tested against, and the engine
  that runs when no kernel loads (``REPRO_NO_NATIVE``, no compiler);
* the **native kernel** (``lz77_tokenize`` in ``_hotpath.c``, loaded via
  :mod:`repro.compression._native`) — a C translation of the scalar
  walk that makes every decision it makes (same chains, same budget and
  lazy rules; its quick reject also tests byte 0 and byte
  ``best_len - 1``, which a strictly longer match must share too, and
  it extends matches eight bytes at a time), used whenever the host
  compiler produced it.

Variants are parameters of that one datapath (``window_size``,
``max_chain``, ``lazy``), not parallel implementations, and there is no
third engine between the two: measured on 256 pages (16 per corpus,
default matcher, best of 3) the reference takes 3 384 us/page and
``lz77_tokenize`` ~80 (EXPERIMENTS.md, "The no-native fallback").
The codecs' own kernels (``deflate_compress``, ``zstdlike_compress``)
call ``lz77_tokenize`` from C, so a page crosses ctypes once;
:meth:`Lz77Matcher.tokenize_packed` is the dispatch for everyone else
(table training, the reference encoders, tests).

The suite enforces native == reference on page-sized inputs, and
reference == a verbatim copy of the seed tokenizer.

Packed token encoding (one ``array('q')`` element per token;
:func:`detokenize_packed` is its executable definition):

* ``0 <= t <= 255`` — a literal byte ``t``.
* ``t >= 512`` — a match: ``t = (distance << 9) | length``. Lengths are
  3..258 so they fit 9 bits, and ``distance >= 1`` guarantees the two
  ranges never collide.

The window size is a first-class parameter because the multi-channel
experiments (Fig. 8) study exactly what happens when the effective window
shrinks from 4 KiB to 1 KiB as pages are split across DIMMs.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from repro.compression import _native
from repro.errors import ConfigError

MIN_MATCH = 3
MAX_MATCH = 258

_HASH_SHIFT = 16
_HASH_MULT = 2654435761
_HASH_BITS = 15
_HASH_MASK = (1 << _HASH_BITS) - 1

#: Bits reserved for the match length in a packed token.
PACKED_LENGTH_BITS = 9
PACKED_LENGTH_MASK = (1 << PACKED_LENGTH_BITS) - 1


class Lz77Matcher:
    """Greedy/lazy hash-chain matcher with a configurable window.

    ``max_chain`` bounds how many chain entries are probed per position and
    is the usual speed/ratio knob (zlib levels tune the same parameter).
    """

    def __init__(
        self,
        window_size: int = 32 * 1024,
        min_match: int = MIN_MATCH,
        max_match: int = MAX_MATCH,
        max_chain: int = 64,
        lazy: bool = True,
    ) -> None:
        if window_size < 16:
            raise ConfigError(f"window_size too small: {window_size}")
        if not MIN_MATCH <= min_match <= max_match <= MAX_MATCH:
            raise ConfigError(
                f"bad match bounds: min={min_match} max={max_match}"
            )
        self.window_size = window_size
        self.min_match = min_match
        self.max_match = max_match
        self.max_chain = max_chain
        self.lazy = lazy

    @property
    def kernel_args(self) -> tuple:
        """The matcher parameters, in the order every kernel that
        tokenises takes them."""
        return (
            self.window_size,
            self.min_match,
            self.max_match,
            self.max_chain,
            bool(self.lazy),
        )

    def tokenize_packed(self, data: bytes) -> array:
        """Convert ``data`` into a packed LZ77 token stream.

        Runs the native kernel when it is loaded, else the scalar
        reference; both emit the identical token sequence (the
        compressed formats depend on it).
        """
        tokens = self._tokenize_packed_native(data)
        if tokens is not None:
            return tokens
        return self._tokenize_packed_scalar(data)

    def _tokenize_packed_native(self, data: bytes):
        """Tokenize via the C kernel; ``None`` means "use the reference".

        The kernel translates :meth:`_tokenize_packed_scalar` — same
        chains, same budget and lazy rules, a quick reject that skips
        only candidates the reference would not pick — so its token
        stream is identical.
        """
        n = len(data)
        if n == 0:
            return array("q")
        lib = _native.load()
        if lib is None or type(data) is not bytes:
            return None
        tokens = array("q", bytes(8 * n))  # every token consumes >= 1 byte
        scratch, _ = _native.encode_buffers(lib, n)
        ntok = lib.lz77_tokenize(
            data, n, *self.kernel_args, scratch, tokens.buffer_info()[0]
        )
        if ntok < 0:
            return None
        del tokens[ntok:]
        return tokens

    def _tokenize_packed_scalar(self, data: bytes) -> array:
        """Scalar reference engine: one fully inlined hash-chain scan."""
        n = len(data)
        tokens = array("q")
        append = tokens.append
        if n == 0:
            return tokens
        min_match = self.min_match
        window_size = self.window_size
        max_match = self.max_match
        max_chain = self.max_chain
        lazy = self.lazy
        lazy_limit = n - min_match - 1  # last pos where lazy defer is legal

        # Build the complete hash chains in one tight rolling-hash pass.
        # The seed tokenizer interleaved insertion with scanning, but it
        # inserted every position 0..n-3 exactly once, in increasing
        # order — so the finished chain structure is the same, and a walk
        # starting at prev[pos] (instead of the head table) visits
        # exactly the candidates the interleaved walk saw when position
        # ``pos`` was scanned: chains only ever point backwards.
        prev = [-1] * n
        if n >= 3:
            head = [-1] * (1 << _HASH_BITS)
            mult = _HASH_MULT
            mask = _HASH_MASK
            key = data[0] | (data[1] << 8)
            for i, byte in enumerate(data[2:]):
                key |= byte << 16
                h = (key * mult >> _HASH_SHIFT) & mask
                prev[i] = head[h]
                head[h] = i
                key >>= 8

        def best_match(
            pos: int,
            # Default-arg binding turns every hot-loop load into a fast
            # local instead of a closure cell dereference.
            data=data,
            prev=prev,
            n=n,
            min_match=min_match,
            max_match=max_match,
            max_chain=max_chain,
            window_size=window_size,
        ) -> int:
            """Packed match token for ``data[pos:]``, or 0 for none."""
            if pos + min_match > n:
                return 0
            candidate = prev[pos]
            floor = pos - window_size
            if floor < 0:
                floor = 0
            if candidate < floor:
                return 0
            best_len = min_match - 1
            best_dist = 0
            max_len = max_match if n - pos > max_match else n - pos
            chain_budget = max_chain
            # Quick-reject target: the byte a candidate must match at
            # offset ``best_len`` to possibly beat the current best.
            # Hoisted out of the loop (it only changes when best_len
            # does); ``pos + best_len < n`` holds because best_len stays
            # strictly below max_len <= n - pos.
            target = data[pos + best_len]
            while candidate >= floor and chain_budget > 0:
                chain_budget -= 1
                # Any candidate mismatching the target byte cannot produce
                # a strictly longer match, so skipping it never changes
                # the selected token.
                if data[candidate + best_len] != target:
                    candidate = prev[candidate]
                    continue
                length = 0
                # Chunked extension: compare 32-byte slices, then settle
                # the tail bytewise. Equivalent to the bytewise loop
                # (bytes are immutable, so overlapping slices are fine).
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
                if length > best_len:
                    best_len = length
                    best_dist = pos - candidate
                    if length >= max_len:
                        break
                    target = data[pos + best_len]
                candidate = prev[candidate]
            if best_len >= min_match:
                return (best_dist << PACKED_LENGTH_BITS) | best_len
            return 0

        pos = 0
        # Carried lazy result: best_match(pos) already computed by the
        # previous iteration's deferral check against the same chains.
        pending = -1
        # ``prev[pos] < 0`` means best_match must return 0 (no chain to
        # walk) — skip the call entirely in that common case.
        while pos < n:
            if pending >= 0:
                match = pending
                pending = -1
            else:
                match = best_match(pos) if prev[pos] >= 0 else 0
            if match == 0:
                append(data[pos])
                pos += 1
                continue
            if lazy and pos <= lazy_limit:
                # One-step lazy evaluation, as zlib does: if deferring by
                # one byte yields a strictly longer match, emit a literal.
                next_match = (
                    best_match(pos + 1) if prev[pos + 1] >= 0 else 0
                )
                if (
                    next_match != 0
                    and (next_match & PACKED_LENGTH_MASK)
                    > (match & PACKED_LENGTH_MASK)
                ):
                    append(data[pos])
                    pos += 1
                    pending = next_match
                    continue
            append(match)
            pos += match & PACKED_LENGTH_MASK
        return tokens


def extend_match(out: bytearray, start: int, length: int) -> None:
    """Append ``length`` bytes copied from ``out[start:]`` (may overlap).

    Non-overlapping spans are a single slice copy; overlapping spans
    (distance < length, the RLE case) replicate the periodic seed by
    doubling instead of appending byte-by-byte.
    """
    distance = len(out) - start
    if distance >= length:
        out += out[start : start + length]
        return
    chunk = bytes(out[start:])
    while len(chunk) < length:
        chunk += chunk
    out += chunk[:length]


def detokenize_packed(tokens: Iterable[int]) -> bytes:
    """Reconstruct the original bytes from a packed token stream."""
    out = bytearray()
    for token in tokens:
        if token < 256:
            out.append(token)
        else:
            distance = token >> PACKED_LENGTH_BITS
            start = len(out) - distance
            if start < 0:
                raise ValueError(
                    f"match distance {distance} exceeds output "
                    f"length {len(out)}"
                )
            extend_match(out, start, token & PACKED_LENGTH_MASK)
    return bytes(out)

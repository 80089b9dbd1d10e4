"""LZ77 boundary behaviour pinned by ISSUE 7: MAX_MATCH-length runs
that end exactly at a page boundary, and window-size equivalence when
the window does not bind.
"""

from repro.compression.lz77 import (
    MAX_MATCH,
    PACKED_LENGTH_MASK,
    Lz77Matcher,
    detokenize_packed,
)
from repro.compression.deflate import DeflateCodec

PAGE = 4096


def _match_lengths(tokens):
    return [t & PACKED_LENGTH_MASK for t in tokens if t >= 256]


class TestMaxMatchAtPageBoundary:
    def test_full_page_run_round_trips(self):
        data = b"x" * PAGE
        tokens = Lz77Matcher().tokenize_packed(data)
        # A page-long run must be carved into MAX_MATCH copies, and the
        # final copy must stop exactly at the boundary — not read past
        # it, not leave a tail literal the detokenizer can't place.
        assert max(_match_lengths(tokens)) == MAX_MATCH
        assert detokenize_packed(tokens) == data

    def test_run_ending_exactly_at_boundary(self):
        # Literal prefix, then a run sized so the *last* match ends at
        # byte 4096 exactly: 4096 = 37 + 1 + k for a run of k+1 'y's.
        prefix = bytes(range(37))
        data = (prefix + b"y" * (PAGE - len(prefix)))[:PAGE]
        assert len(data) == PAGE
        for lazy in (False, True):
            tokens = Lz77Matcher(lazy=lazy).tokenize_packed(data)
            assert detokenize_packed(tokens) == data

    def test_run_one_byte_short_of_max_match(self):
        # length MAX_MATCH-1 and MAX_MATCH+1 straddle the cap.
        for run in (MAX_MATCH - 1, MAX_MATCH, MAX_MATCH + 1):
            data = b"ab" + b"z" * run + b"cd"
            tokens = Lz77Matcher().tokenize_packed(data)
            assert detokenize_packed(tokens) == data
            assert max(_match_lengths(tokens)) <= MAX_MATCH


class TestWindowEquivalence:
    """When every match fits within 1 KiB of history, a 1 KiB-window
    matcher and a 4 KiB-window matcher must produce identical token
    streams (and the deflate codec identical blobs): the larger window
    only *adds* reachable history, it never changes tie-breaks inside
    the shared range."""

    def _small_page(self):
        # Exactly 1 KiB: the 4 KiB window can never reach further back
        # than the 1 KiB one on this input.
        chunk = b'{"key": %d, "flag": true}\n'
        data = b"".join(chunk % (i % 7) for i in range(60))
        return data[:1024]

    def test_token_streams_identical(self):
        data = self._small_page()
        small = Lz77Matcher(window_size=1024).tokenize_packed(data)
        large = Lz77Matcher(window_size=4096).tokenize_packed(data)
        assert list(small) == list(large)

    def test_deflate_blobs_identical(self):
        data = self._small_page()
        blob_1k = DeflateCodec(window_size=1024).compress(data)
        blob_4k = DeflateCodec(window_size=4096).compress(data)
        assert blob_1k == blob_4k
        assert DeflateCodec().decompress(blob_1k) == data

    def test_windows_diverge_when_history_exceeds_1k(self):
        # Sanity check the equivalence above is not vacuous: with >1 KiB
        # of history, the 4 KiB window finds matches the 1 KiB one
        # cannot, so the small window compresses no better.
        pattern = bytes(range(64))
        data = pattern + b"\xff" * 2048 + pattern
        blob_1k = DeflateCodec(window_size=1024).compress(data)
        blob_4k = DeflateCodec(window_size=4096).compress(data)
        assert len(blob_4k) <= len(blob_1k)
        assert DeflateCodec().decompress(blob_4k) == data

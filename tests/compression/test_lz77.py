"""LZ77 tokenizer unit and property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.lz77 import (
    PACKED_LENGTH_BITS,
    PACKED_LENGTH_MASK,
    Lz77Matcher,
    detokenize_packed,
)
from repro.errors import ConfigError


def _tokens(data, **config):
    return list(Lz77Matcher(**config).tokenize_packed(data))


def _matches(tokens):
    return [t for t in tokens if t >= 256]


class TestMatcher:
    def test_empty_input(self):
        assert _tokens(b"") == []

    def test_incompressible_is_all_literals(self):
        data = bytes(range(64))
        tokens = _tokens(data)
        assert tokens == list(data)
        assert detokenize_packed(tokens) == data

    def test_repetition_produces_matches(self):
        data = b"abcabcabcabcabcabc"
        tokens = _tokens(data)
        assert _matches(tokens)
        assert detokenize_packed(tokens) == data

    def test_overlapping_match(self):
        # Run-length case: distance < length requires overlapped copy.
        data = b"a" * 100
        tokens = _tokens(data)
        matches = _matches(tokens)
        assert matches and matches[0] >> PACKED_LENGTH_BITS == 1
        assert detokenize_packed(tokens) == data

    def test_window_limits_match_distance(self):
        window = 64
        pattern = bytes(range(32))
        data = pattern + bytes(200) + pattern
        tokens = _tokens(data, window_size=window, lazy=False)
        for token in _matches(tokens):
            assert token >> PACKED_LENGTH_BITS <= window
        assert detokenize_packed(tokens) == data

    def test_small_window_rejected(self):
        with pytest.raises(ConfigError):
            Lz77Matcher(window_size=4)

    def test_bad_match_bounds_rejected(self):
        with pytest.raises(ConfigError):
            Lz77Matcher(min_match=2)

    def test_lazy_never_worse_than_greedy(self, json_pages):
        data = json_pages[0]
        lazy = _tokens(data, lazy=True)
        greedy = _tokens(data, lazy=False)
        assert detokenize_packed(lazy) == data
        assert detokenize_packed(greedy) == data
        # Lazy matching should not produce a longer token stream.
        assert len(lazy) <= len(greedy) * 1.05

    def test_token_stream_cost_equals_length(self, text_pages):
        data = text_pages[0]
        cost = sum(
            1 if t < 256 else t & PACKED_LENGTH_MASK for t in _tokens(data)
        )
        assert cost == len(data)


def test_detokenize_rejects_bad_distance():
    with pytest.raises(ValueError):
        detokenize_packed([(5 << PACKED_LENGTH_BITS) | 3])


@settings(max_examples=40)
@given(st.binary(max_size=2048))
def test_lz77_round_trip_property(data):
    tokens = _tokens(data, window_size=1024, max_chain=16)
    assert detokenize_packed(tokens) == data


@settings(max_examples=20)
@given(
    st.binary(min_size=1, max_size=64),
    st.integers(2, 40),
)
def test_lz77_round_trip_repetitive_property(chunk, repeats):
    """Highly repetitive inputs (the SFM-relevant case) round-trip."""
    data = chunk * repeats
    assert detokenize_packed(_tokens(data)) == data

"""Canonical Huffman coding unit and property tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.bitio import BitReader, BitWriter
from repro.compression.huffman import (
    HuffmanTable,
    canonical_codes,
    code_lengths_from_frequencies,
    read_code_lengths,
    write_code_lengths,
)
from repro.errors import ConfigError, CorruptStreamError


class TestCodeLengths:
    def test_empty_alphabet(self):
        assert code_lengths_from_frequencies([0, 0, 0]) == [0, 0, 0]

    def test_single_symbol_gets_one_bit(self):
        lengths = code_lengths_from_frequencies([0, 7, 0])
        assert lengths == [0, 1, 0]

    def test_two_symbols(self):
        lengths = code_lengths_from_frequencies([5, 3])
        assert lengths == [1, 1]

    def test_skewed_frequencies_give_shorter_codes(self):
        lengths = code_lengths_from_frequencies([1000, 10, 10, 1])
        assert lengths[0] < lengths[3]

    def test_kraft_inequality_holds(self):
        freqs = [2**i for i in range(20)]
        lengths = code_lengths_from_frequencies(freqs, max_length=15)
        kraft = sum(2.0 ** -l for l in lengths if l)
        assert kraft <= 1.0 + 1e-12

    def test_max_length_enforced(self):
        # Fibonacci-like frequencies force deep trees without a limit.
        freqs = [1, 1]
        for _ in range(30):
            freqs.append(freqs[-1] + freqs[-2])
        lengths = code_lengths_from_frequencies(freqs, max_length=15)
        assert max(lengths) <= 15
        kraft = sum(2.0 ** -l for l in lengths if l)
        assert kraft <= 1.0 + 1e-12

    def test_more_symbols_than_codes_is_refused(self):
        # Used to spin forever in the Kraft repair: nine symbols cannot
        # share the eight codes of length <= 3.
        with pytest.raises(ConfigError, match="9 symbols in use"):
            code_lengths_from_frequencies([1] * 9, 3)
        assert code_lengths_from_frequencies([1] * 8, 3) == [3] * 8


class TestCanonicalCodes:
    def test_canonical_ordering(self):
        codes = canonical_codes([2, 2, 2, 2])
        assert codes == [0b00, 0b01, 0b10, 0b11]

    def test_mixed_lengths(self):
        # lengths [1, 2, 2]: canonical codes 0, 10, 11.
        assert canonical_codes([1, 2, 2]) == [0b0, 0b10, 0b11]

    def test_prefix_free(self):
        lengths = code_lengths_from_frequencies([9, 5, 3, 2, 1, 1])
        codes = canonical_codes(lengths)
        entries = [
            format(codes[s], f"0{lengths[s]}b")
            for s in range(len(lengths))
            if lengths[s]
        ]
        for i, a in enumerate(entries):
            for j, b in enumerate(entries):
                if i != j:
                    assert not b.startswith(a)


class TestEncodeDecode:
    def _round_trip(self, symbols, num_symbols):
        freqs = [0] * num_symbols
        for s in symbols:
            freqs[s] += 1
        table = HuffmanTable.from_frequencies(freqs)
        writer = BitWriter()
        for s in symbols:
            table.encode(writer, s)
        decoder = table.build_decoder()
        reader = BitReader(writer.getvalue())
        return [decoder.decode(reader) for _ in symbols]

    def test_simple_round_trip(self):
        symbols = [0, 1, 1, 2, 2, 2, 3] * 10
        assert self._round_trip(symbols, 4) == symbols

    def test_encoding_unused_symbol_raises(self):
        table = HuffmanTable.from_frequencies([1, 0])
        with pytest.raises(CorruptStreamError):
            table.encode(BitWriter(), 1)

    def test_decoder_rejects_empty_table(self):
        decoder = HuffmanTable.from_lengths([0, 0]).build_decoder()
        with pytest.raises(CorruptStreamError):
            decoder.decode(BitReader(b"\x00"))

    def test_code_length_serialization(self):
        lengths = [0, 4, 9, 15, 0, 1]
        writer = BitWriter()
        write_code_lengths(writer, lengths)
        reader = BitReader(writer.getvalue())
        assert read_code_lengths(reader, len(lengths)) == lengths


@given(st.lists(st.integers(0, 40), min_size=1, max_size=300))
def test_huffman_round_trip_property(symbols):
    """Any symbol stream survives encode/decode with its own table."""
    num_symbols = max(symbols) + 1
    freqs = [0] * num_symbols
    for s in symbols:
        freqs[s] += 1
    table = HuffmanTable.from_frequencies(freqs)
    writer = BitWriter()
    for s in symbols:
        table.encode(writer, s)
    decoder = table.build_decoder()
    reader = BitReader(writer.getvalue())
    assert [decoder.decode(reader) for _ in symbols] == symbols

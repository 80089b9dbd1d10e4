"""Codec-level unit tests: format handling, registry, ratios."""

import pytest

from repro.compression import (
    DeflateCodec,
    LzFastCodec,
    ZstdLikeCodec,
    available_codecs,
    compression_ratio,
    get_codec,
    space_savings,
)
from repro.compression import zstd_like
from repro.compression.bitio import BitWriter, write_varint_bits
from repro.errors import ConfigError, CorruptStreamError
from repro.sfm.page import PAGE_SIZE


class TestRegistry:
    def test_all_codecs_registered(self):
        assert available_codecs() == ["deflate", "lzfast", "zstd-like"]

    def test_get_codec_with_kwargs(self):
        codec = get_codec("deflate", window_size=1024)
        assert codec.window_size == 1024

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigError):
            get_codec("snappy")


class TestRoundTrips:
    def test_round_trip_spectrum(self, codec, sample_buffers):
        for data in sample_buffers:
            assert codec.decompress(codec.compress(data)) == data

    def test_deterministic(self, codec, json_pages):
        assert codec.compress(json_pages[0]) == codec.compress(json_pages[0])

    def test_incompressible_falls_back_to_stored(self, codec, random_pages):
        blob = codec.compress(random_pages[0])
        # Stored mode: small bounded header only.
        assert len(blob) <= len(random_pages[0]) + 16
        assert codec.decompress(blob) == random_pages[0]


class TestCorruption:
    def test_bad_magic_rejected(self, codec, json_pages):
        blob = bytearray(codec.compress(json_pages[0]))
        blob[0] ^= 0xFF
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(blob))

    def test_truncated_stream_rejected(self, codec, json_pages):
        blob = codec.compress(json_pages[0])
        with pytest.raises(CorruptStreamError):
            codec.decompress(blob[: len(blob) // 2])

    @pytest.mark.parametrize("engine", ["decompress", "_decompress_python"])
    def test_zstd_like_match_cannot_outgrow_the_header(self, engine):
        """A sequence naming a 512 MiB match in a 4 KiB page is refused
        before the copy (it used to allocate the half gigabyte and only
        then fail the length check)."""
        writer = BitWriter()
        writer.write_bits(zstd_like._MAGIC, 8)
        writer.write_bits(zstd_like._MODE_COMPRESSED, 8)
        write_varint_bits(writer, PAGE_SIZE)
        writer.write_bits(0, 32)
        writer.align_to_byte()
        write_varint_bits(writer, 2)  # literals "ab": two 1-bit codes
        for symbol in range(256):
            writer.write_bits(1 if symbol in b"ab" else 0, 4)
        writer.write_bits(0b10, 2)
        write_varint_bits(writer, 1)  # one sequence
        write_varint_bits(writer, 2)  # literal run
        write_varint_bits(writer, 1 << 29)  # match length
        write_varint_bits(writer, 1)  # offset
        decode = getattr(ZstdLikeCodec(), engine)
        with pytest.raises(CorruptStreamError, match="match overruns"):
            decode(writer.getvalue())


class TestRatios:
    def test_ratio_ordering_on_text(self, json_pages):
        """Deflate (entropy-coded) beats the byte-aligned fast codec."""
        data = json_pages[0]
        deflate = compression_ratio(data, DeflateCodec())
        lzfast = compression_ratio(data, LzFastCodec())
        assert deflate > lzfast > 1.2

    def test_zeros_compress_massively(self):
        data = bytes(PAGE_SIZE)
        for cls in (DeflateCodec, LzFastCodec, ZstdLikeCodec):
            assert compression_ratio(data, cls()) > 10

    def test_space_savings_complements_ratio(self, json_pages):
        codec = DeflateCodec()
        ratio = compression_ratio(json_pages[0], codec)
        savings = space_savings(json_pages[0], codec)
        assert savings == pytest.approx(1.0 - 1.0 / ratio)

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            compression_ratio(b"", DeflateCodec())


class TestWindowEffect:
    def test_smaller_window_never_improves_ratio(self, text_pages):
        """The Fig. 8 mechanism: shrinking the window cannot help."""
        data = b"".join(text_pages[:2])[:PAGE_SIZE]
        big = len(DeflateCodec(window_size=4096).compress(data))
        small = len(DeflateCodec(window_size=256).compress(data))
        assert small >= big


class TestSpecs:
    def test_specs_reflect_algorithm_classes(self):
        """lzo-class is fastest; deflate-class is slowest but densest."""
        deflate = DeflateCodec.spec
        lzfast = LzFastCodec.spec
        zstd = ZstdLikeCodec.spec
        assert lzfast.compress_cycles_per_byte < zstd.compress_cycles_per_byte
        assert zstd.compress_cycles_per_byte < deflate.compress_cycles_per_byte

    def test_mean_cycles_near_paper_constant(self):
        """zstd/lzo average anchors EQ3.4's 7.65 cycles/byte."""
        mean = (
            LzFastCodec.spec.mean_cycles_per_byte
            + ZstdLikeCodec.spec.mean_cycles_per_byte
        ) / 2
        assert 3.0 < mean < 9.0

    def test_throughput_helpers(self):
        spec = ZstdLikeCodec.spec
        assert spec.compress_throughput_bps(2.6e9) == pytest.approx(
            2.6e9 / spec.compress_cycles_per_byte
        )

    def test_deflate_window_cap(self):
        with pytest.raises(ConfigError):
            DeflateCodec(window_size=64 * 1024)

    def test_lzfast_window_bounds(self):
        with pytest.raises(ConfigError):
            LzFastCodec(window_size=1 << 20)

"""Multi-channel mode tests (Fig. 8 / Fig. 9)."""

import pytest

from repro.compression import _native
from repro.core.multichannel import (
    CompressedPage,
    MultiChannelLayout,
    measure_corpus,
)
from repro.errors import ConfigError, CorruptStreamError
from repro.sfm.page import PAGE_SIZE


class TestSplitGather:
    def test_split_round_robin(self):
        layout = MultiChannelLayout(num_dimms=4)
        data = bytes(
            byte
            for chunk in range(16)
            for byte in [chunk] * 256
        )
        streams = layout.split(data)
        assert len(streams) == 4
        assert streams[0][:256] == bytes([0]) * 256
        assert streams[1][:256] == bytes([1]) * 256
        assert streams[0][256:512] == bytes([4]) * 256

    def test_gather_inverts_split(self, json_pages):
        for num_dimms in (1, 2, 4):
            layout = MultiChannelLayout(num_dimms=num_dimms)
            assert layout.gather(layout.split(json_pages[0])) == json_pages[0]

    def test_wrong_page_size_rejected(self):
        with pytest.raises(ConfigError):
            MultiChannelLayout(num_dimms=4).split(b"short")

    def test_window_shrinks_with_dimms(self):
        assert MultiChannelLayout(num_dimms=1).window_size == 4096
        assert MultiChannelLayout(num_dimms=2).window_size == 2048
        assert MultiChannelLayout(num_dimms=4).window_size == 1024

    def test_indivisible_config_rejected(self):
        with pytest.raises(ConfigError):
            MultiChannelLayout(num_dimms=3)


class TestCompressedPage:
    def test_round_trip(self, json_pages):
        layout = MultiChannelLayout(num_dimms=4)
        compressed = layout.compress_page(json_pages[0])
        assert layout.decompress_page(compressed) == json_pages[0]

    def test_same_offset_placement_fragmentation(self):
        page = CompressedPage(segments=(b"a" * 100, b"b" * 300), original_len=4096)
        assert page.payload_bytes == 400
        assert page.stored_bytes == 600  # 2 DIMMs x max(100, 300)
        assert page.fragmentation_bytes == 200

    def test_layout_mismatch_rejected(self, json_pages):
        compressed = MultiChannelLayout(num_dimms=2).compress_page(json_pages[0])
        with pytest.raises(ConfigError):
            MultiChannelLayout(num_dimms=4).decompress_page(compressed)


class TestPackedBlob:
    @pytest.mark.parametrize("num_dimms", [1, 2, 4])
    def test_padded_segments_decode(self, num_dimms, json_pages, random_pages):
        """Same-offset placement pads every segment to the largest; each
        padded segment still decodes to its stripe, on the kernel and on
        the reference decoder, because both stop at the stream's end."""
        layout = MultiChannelLayout(num_dimms=num_dimms)
        decoders = [layout.codec._decompress_python]
        if _native.load() is not None:
            decoders.append(layout.codec._decompress_native)
        for page in json_pages[:2] + random_pages[:1]:
            stripes = layout.split(page)
            segments = tuple(layout.codec.compress(s) for s in stripes)
            blob = layout.pack(segments)
            assert len(blob) == CompressedPage(segments, PAGE_SIZE).stored_bytes
            for decode in decoders:
                assert [decode(s) for s in layout.unpack(blob)] == stripes

    def test_uneven_blob_rejected(self):
        with pytest.raises(CorruptStreamError):
            MultiChannelLayout(num_dimms=4).unpack(b"x" * 1023)


class TestSplitGatherProperty:
    def test_split_gather_inverse_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=30)
        @given(
            seed_chunk=st.binary(min_size=1, max_size=128),
            num_dimms=st.sampled_from([1, 2, 4, 8]),
        )
        def check(seed_chunk, num_dimms):
            data = (seed_chunk * (PAGE_SIZE // len(seed_chunk) + 1))[
                :PAGE_SIZE
            ]
            layout = MultiChannelLayout(num_dimms=num_dimms)
            streams = layout.split(data)
            # Stripes partition the page evenly...
            assert sum(len(s) for s in streams) == PAGE_SIZE
            assert len({len(s) for s in streams}) == 1
            # ...and gather is the exact inverse.
            assert layout.gather(streams) == data

        check()

    def test_full_round_trip_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=10)
        @given(
            chunk=st.binary(min_size=1, max_size=64),
            num_dimms=st.sampled_from([2, 4]),
        )
        def check(chunk, num_dimms):
            data = (chunk * (PAGE_SIZE // len(chunk) + 1))[:PAGE_SIZE]
            layout = MultiChannelLayout(num_dimms=num_dimms)
            assert layout.decompress_page(layout.compress_page(data)) == data

        check()


class TestMeasurement:
    def test_ratio_degrades_with_dimm_count(self, json_pages):
        report = measure_corpus("json", json_pages, verify=True)
        assert report.stored_ratio[1] >= report.stored_ratio[2]
        assert report.stored_ratio[2] >= report.stored_ratio[4]

    def test_payload_ratio_isolates_window_effect(self, json_pages):
        report = measure_corpus("json", json_pages)
        for dimms in (2, 4):
            assert report.payload_ratio[dimms] >= report.stored_ratio[dimms]

    def test_savings_reduction_in_paper_ballpark(self, json_pages, text_pages):
        """§8: 2-DIMM cuts savings ~5%, 4-DIMM ~14% (corpus averages)."""
        for pages in (json_pages, text_pages):
            report = measure_corpus("c", pages)
            r2 = report.savings_reduction_vs_inorder(2)
            r4 = report.savings_reduction_vs_inorder(4)
            assert 0.0 <= r2 <= 0.35
            assert r2 <= r4 <= 0.6

    def test_ratio_retention(self, json_pages):
        report = measure_corpus("json", json_pages)
        assert 0.5 <= report.ratio_retention(4) <= 1.0

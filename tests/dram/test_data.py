"""DRAM data-array tests: Fig. 6a's layout with real bytes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.address import AddressMapping
from repro.dram.data import DramArray
from repro.dram.device import DDR5_8GB
from repro.errors import AddressMapError


@pytest.fixture
def array():
    return DramArray()


class TestByteAccess:
    def test_write_read_round_trip(self, array):
        data = bytes(range(256)) * 16  # 4 KiB
        array.write(0x10000, data)
        assert array.read(0x10000, len(data)) == data

    def test_unaligned_small_access(self, array):
        array.write(1000, b"hello world")
        assert array.read(1000, 11) == b"hello world"
        assert array.read(1003, 5) == b"lo wo"

    def test_overwrite(self, array):
        array.write(0, b"a" * 512)
        array.write(128, b"b" * 64)
        got = array.read(0, 512)
        assert got[:128] == b"a" * 128
        assert got[128:192] == b"b" * 64
        assert got[192:] == b"a" * 320

    def test_untouched_memory_reads_zero(self, array):
        assert array.read(1 << 33, 64) == bytes(64)


class TestFig6aLayout:
    def test_page_touches_expected_rows(self, array, json_pages):
        """A 4 KiB page materializes 4 channels x 2 banks = 8 rows."""
        array.write(0, json_pages[0])
        assert array.touched_rows() == 8

    def test_channel_stripes_partition_the_page(self, array, json_pages):
        """Per-channel stripes are 1 KiB each and re-interleave to the
        original page — the multi-channel NMA's input streams."""
        page = json_pages[0]
        array.write(0, page)
        stripes = [array.page_stripe(0, channel) for channel in range(4)]
        assert all(len(stripe) == 1024 for stripe in stripes)
        # Stripe c holds chunks c, c+4, c+8, ... of 256 B each.
        for channel, stripe in enumerate(stripes):
            for index in range(4):
                chunk_index = channel + 4 * index
                expected = page[
                    chunk_index * 256 : (chunk_index + 1) * 256
                ]
                assert stripe[index * 256 : (index + 1) * 256] == expected

    def test_row_content_alternates_between_banks(self, array):
        """Within a channel, consecutive 128 B lines alternate banks
        (Fig. 6a's bank interleaving)."""
        page = bytes([i % 251 for i in range(4096)])
        array.write(0, page)
        row_bank0 = array.row_bytes(0, 0, 0, 0, 0)
        row_bank1 = array.row_bytes(0, 0, 0, 1, 0)
        # Channel 0 gets chunks 0,4,8,12 (256 B each); each chunk's first
        # 128 B line goes to bank 0, second to bank 1.
        assert row_bank0[:128] == page[0:128]
        assert row_bank1[:128] == page[128:256]

    def test_stripe_requires_alignment(self, array):
        with pytest.raises(AddressMapError):
            array.page_stripe(5, 0)

    def test_consistency_check(self, array, json_pages):
        array.write(0, json_pages[0])
        array.verify_consistency()


@settings(max_examples=40)
@given(
    addr_line=st.integers(0, (2 << 30) // 128 - 64),
    seed_chunk=st.binary(min_size=1, max_size=64),
    repeats=st.integers(1, 64),
)
def test_write_read_round_trip_property(addr_line, seed_chunk, repeats):
    """Any write at any line-aligned address reads back exactly."""
    array = DramArray(
        mapping=AddressMapping(
            device=DDR5_8GB, channels=2, dimms_per_channel=1
        )
    )
    addr = addr_line * 128
    data = seed_chunk * repeats
    array.write(addr, data)
    assert array.read(addr, len(data)) == data
    array.verify_consistency()

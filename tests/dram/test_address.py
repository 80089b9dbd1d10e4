"""Address-mapping tests, including the Fig. 6a page layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.address import AddressMapping, DramCoordinate
from repro.dram.device import DDR5_32GB, DDR5_8GB
from repro.errors import AddressMapError, ConfigError


@pytest.fixture(scope="module")
def mapping():
    return AddressMapping()


class TestDecode:
    def test_address_zero(self, mapping):
        coord = mapping.decode(0)
        assert coord == DramCoordinate(
            channel=0, dimm=0, rank=0, bank=0, row=0, row_offset=0
        )

    def test_channel_interleave_at_256b(self, mapping):
        assert mapping.decode(0).channel == 0
        assert mapping.decode(256).channel == 1
        assert mapping.decode(512).channel == 2
        assert mapping.decode(768).channel == 3
        assert mapping.decode(1024).channel == 0

    def test_bank_interleave_at_128b_within_channel(self, mapping):
        assert mapping.decode(0).bank == 0
        assert mapping.decode(128).bank == 1
        # Next 256 B chunk goes to channel 1; same banks there.
        assert mapping.decode(256).bank == 0
        assert mapping.decode(256 + 128).bank == 1

    def test_out_of_range_rejected(self, mapping):
        with pytest.raises(AddressMapError):
            mapping.decode(mapping.total_capacity_bytes)
        with pytest.raises(AddressMapError):
            mapping.decode(-1)

    def test_capacity(self, mapping):
        # 4 channels x 2 DIMMs x 1 rank x 32 GiB.
        assert mapping.total_capacity_bytes == 8 * 32 * (1 << 30)


class TestPageFootprint:
    def test_page_spans_4_channels_2_banks(self, mapping):
        """Fig. 6a: a 4 KiB page is interleaved between four channels and
        two banks, a single row in each."""
        footprint = mapping.page_footprint(0)
        assert len(footprint) == 8
        channels = {entry[0] for entry in footprint}
        banks = {entry[3] for entry in footprint}
        rows = {entry[4] for entry in footprint}
        assert channels == {0, 1, 2, 3}
        assert banks == {0, 1}
        assert rows == {0}

    def test_per_dimm_bytes(self, mapping):
        assert mapping.per_dimm_bytes() == 1024

    def test_unaligned_page_rejected(self, mapping):
        with pytest.raises(AddressMapError):
            mapping.page_lines(64)

    def test_single_channel_config(self):
        single = AddressMapping(channels=1, dimms_per_channel=1)
        footprint = single.page_footprint(0)
        banks = {entry[3] for entry in footprint}
        assert {entry[0] for entry in footprint} == {0}
        assert banks == {0, 1}


class TestValidation:
    def test_interleave_granularity_constraint(self):
        with pytest.raises(ConfigError):
            AddressMapping(channel_interleave_bytes=100, bank_interleave_bytes=64)

    def test_positive_topology(self):
        with pytest.raises(ConfigError):
            AddressMapping(channels=0)


class TestEncodeInverse:
    def test_manual_round_trip(self, mapping):
        for addr in (0, 128, 4096, 123 * 4096 + 256, 5 * (1 << 30)):
            assert mapping.encode(mapping.decode(addr)) == addr


@settings(max_examples=200)
@given(addr=st.integers(min_value=0, max_value=8 * 32 * (1 << 30) - 1))
def test_decode_encode_round_trip_property(addr):
    mapping = AddressMapping()
    assert mapping.encode(mapping.decode(addr)) == addr


@settings(max_examples=100)
@given(addr=st.integers(min_value=0, max_value=2 * 8 * (1 << 30) - 1))
def test_round_trip_small_device_property(addr):
    mapping = AddressMapping(
        device=DDR5_8GB, channels=2, dimms_per_channel=1
    )
    coord = mapping.decode(addr)
    assert 0 <= coord.bank < DDR5_8GB.banks_per_chip
    assert 0 <= coord.row < DDR5_8GB.rows_per_bank
    assert mapping.encode(coord) == addr

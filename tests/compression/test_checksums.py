"""Content-checksum tests: every codec must catch silent corruption."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import DeflateCodec, LzFastCodec, ZstdLikeCodec
from repro.errors import CorruptStreamError

_CODECS = [DeflateCodec(), LzFastCodec(), ZstdLikeCodec()]


@pytest.mark.parametrize("codec", _CODECS, ids=lambda c: c.name)
class TestChecksumEnforced:
    def test_payload_flip_detected(self, codec, json_pages):
        blob = bytearray(codec.compress(json_pages[0]))
        # Flip a byte well into the payload (past headers).
        blob[len(blob) * 3 // 4] ^= 0x40
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(blob))

    def test_checksum_field_flip_detected(self, codec, json_pages):
        blob = bytearray(codec.compress(json_pages[0]))
        # The CRC field sits right after magic/mode/varint; flipping any
        # early byte must also be caught.
        blob[4] ^= 0x01
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(blob))

    def test_stored_mode_also_checksummed(self, codec, random_pages):
        blob = bytearray(codec.compress(random_pages[0]))
        blob[-1] ^= 0x80
        with pytest.raises(CorruptStreamError):
            codec.decompress(bytes(blob))


@pytest.mark.parametrize("codec", _CODECS, ids=lambda c: c.name)
@settings(max_examples=15)
@given(
    data=st.binary(min_size=64, max_size=1024),
    position=st.floats(0.3, 0.99),
    mask=st.integers(1, 255),
)
def test_any_single_byte_flip_detected(codec, data, position, mask):
    """Property: no single-byte corruption anywhere past the fixed header
    ever yields a successful decode of wrong data."""
    blob = bytearray(codec.compress(data))
    index = min(len(blob) - 1, max(2, int(len(blob) * position)))
    blob[index] ^= mask
    try:
        out = codec.decompress(bytes(blob))
    except CorruptStreamError:
        return
    assert out == data, "corruption decoded silently to wrong bytes"

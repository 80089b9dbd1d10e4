"""Unit-helper and exception-hierarchy tests."""

import pytest

from repro import _units as units
from repro import errors


class TestUnits:
    def test_binary_sizes(self):
        assert units.KIB == 1 << 10
        assert units.MIB == 1 << 20
        assert units.GIB == 1 << 30
        assert units.TIB == 1 << 40

    def test_calendar(self):
        assert units.SECONDS_PER_YEAR == 365 * 24 * 3600

    def test_pretty_bytes(self):
        assert units.pretty_bytes(4096) == "4.0 KiB"
        assert units.pretty_bytes(512 * (1 << 30)) == "512.0 GiB"
        assert units.pretty_bytes(3) == "3.0 B"
        assert units.pretty_bytes(5 * (1 << 40)) == "5.0 TiB"


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        leaves = [
            errors.CompressionError,
            errors.CorruptStreamError,
            errors.DramProtocolError,
            errors.AddressMapError,
            errors.SfmError,
            errors.ZpoolFullError,
            errors.EntryNotFoundError,
            errors.XfmError,
            errors.SpmFullError,
            errors.QueueFullError,
            errors.MmioError,
            errors.ConfigError,
        ]
        for exc in leaves:
            assert issubclass(exc, errors.ReproError)

    def test_specialization_relations(self):
        assert issubclass(errors.CorruptStreamError, errors.CompressionError)
        assert issubclass(errors.ZpoolFullError, errors.SfmError)
        assert issubclass(errors.SpmFullError, errors.XfmError)
        assert issubclass(errors.QueueFullError, errors.XfmError)
        assert issubclass(errors.MmioError, errors.XfmError)

    def test_catching_the_base_catches_library_errors(self):
        from repro.compression import DeflateCodec

        with pytest.raises(errors.ReproError):
            DeflateCodec().decompress(b"\x00garbage")

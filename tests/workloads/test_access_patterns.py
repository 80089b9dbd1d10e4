"""Access-pattern generator tests."""

import pytest

from repro.errors import ConfigError
from repro.workloads.access_patterns import ScanPattern, ZipfPattern


class TestZipf:
    def test_skew(self):
        pattern = ZipfPattern(num_pages=1000, exponent=1.2, seed=4)
        accesses = pattern.next_accesses(5000)
        top_decile = sum(1 for a in accesses if a < 100)
        assert top_decile / len(accesses) > 0.5

    def test_higher_exponent_more_skew(self):
        mild = ZipfPattern(num_pages=500, exponent=0.8, seed=5)
        steep = ZipfPattern(num_pages=500, exponent=1.6, seed=5)
        mild_top = sum(1 for a in mild.next_accesses(3000) if a < 10)
        steep_top = sum(1 for a in steep.next_accesses(3000) if a < 10)
        assert steep_top > mild_top

    def test_validation(self):
        with pytest.raises(ConfigError):
            ZipfPattern(num_pages=10, exponent=0.0)


class TestScan:
    def test_sequential_wraparound(self):
        pattern = ScanPattern(num_pages=5)
        assert pattern.next_accesses(7) == [0, 1, 2, 3, 4, 0, 1]

    def test_stride(self):
        pattern = ScanPattern(num_pages=10, stride=3)
        assert pattern.next_accesses(4) == [0, 3, 6, 9]

    def test_prediction_matches_future(self):
        pattern = ScanPattern(num_pages=100)
        pattern.next_accesses(10)
        predicted = pattern.predicted_next(5)
        assert pattern.next_accesses(5) == predicted

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScanPattern(num_pages=10, stride=0)


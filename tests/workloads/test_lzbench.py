"""lzbench-style harness tests."""

import pytest

from repro.compression import DeflateCodec, LzFastCodec, _native
from repro.errors import ConfigError
from repro.workloads.lzbench import (
    format_lzbench,
    run_lzbench,
    summarize_by_codec,
)


@pytest.fixture(scope="module")
def rows():
    return run_lzbench(
        corpora=("json-records", "random-bytes", "zero-pages"),
        pages_per_corpus=2,
        seed=91,
    )


class TestRunLzbench:
    def test_full_grid(self, rows):
        assert len(rows) == 9  # 3 corpora x 3 codecs
        assert {row.codec for row in rows} == {
            "deflate", "lzfast", "zstd-like",
        }

    def test_ratios_sane(self, rows):
        for row in rows:
            if row.corpus == "random-bytes":
                assert row.ratio < 1.05
            if row.corpus == "zero-pages":
                assert row.ratio > 10
            assert row.compressed_bytes > 0

    def test_throughputs_positive(self, rows):
        for row in rows:
            assert row.compress_mbps > 0
            assert row.decompress_mbps > 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_lzbench(pages_per_corpus=0)
        with pytest.raises(ConfigError):
            run_lzbench(codecs=("snappy",))


class TestReporting:
    def test_format(self, rows):
        text = format_lzbench(rows)
        assert "codec" in text
        assert "json-records" in text
        assert len(text.splitlines()) == 3 + len(rows)

    def test_summary(self, rows):
        summary = summarize_by_codec(rows)
        assert set(summary) == {"deflate", "lzfast", "zstd-like"}
        for stats in summary.values():
            assert stats["geomean_ratio"] >= 0.9
            assert stats["mean_compress_mbps"] > 0
        # The byte-aligned codec compresses fastest (its design point):
        # always in the modelled cost, and in wall-clock time when the
        # kernels run (130 vs 6-18 MB/s). On the Python reference engines
        # scalar deflate beats pure-Python lzfast on zero and random
        # pages, so the host ordering over these 6 pages is a coin toss.
        assert (
            LzFastCodec.spec.compress_cycles_per_byte
            < DeflateCodec.spec.compress_cycles_per_byte
        )
        if _native.available():
            assert (
                summary["lzfast"]["mean_compress_mbps"]
                > summary["deflate"]["mean_compress_mbps"]
            )

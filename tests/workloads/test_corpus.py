"""Synthetic corpus generator tests."""

import zlib

import pytest

from repro.compression import DeflateCodec, compression_ratio
from repro.errors import ConfigError
from repro.workloads.corpus import (
    CORPUS_NAMES,
    PAGE_SIZE,
    corpus_pages,
    describe_corpus,
    generate_corpus,
    page_for,
)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        for name in CORPUS_NAMES:
            assert generate_corpus(name, 2048, seed=5) == generate_corpus(
                name, 2048, seed=5
            )

    def test_different_seeds_differ(self):
        for name in CORPUS_NAMES:
            if name == "zero-pages":
                continue
            assert generate_corpus(name, 2048, seed=1) != generate_corpus(
                name, 2048, seed=2
            )

    def test_different_corpora_differ(self):
        a = generate_corpus("text-english", 2048, seed=0)
        b = generate_corpus("source-code", 2048, seed=0)
        assert a != b


class TestSizes:
    @pytest.mark.parametrize("size", [0, 1, 100, 4096, 10000])
    def test_exact_size(self, size):
        for name in CORPUS_NAMES:
            assert len(generate_corpus(name, size, seed=0)) == size

    def test_pages_shape(self):
        pages = corpus_pages("server-log", 5, page_size=2048, seed=0)
        assert len(pages) == 5
        assert all(len(p) == 2048 for p in pages)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            generate_corpus("text-english", -1)

    def test_unknown_corpus_rejected(self):
        with pytest.raises(ConfigError):
            generate_corpus("silesia", 100)
        with pytest.raises(ConfigError):
            describe_corpus("silesia")


class TestCompressibilitySpectrum:
    """The sixteen corpora must span a ratio spectrum like real corpora."""

    def test_sixteen_corpora(self):
        assert len(CORPUS_NAMES) == 16

    def test_random_is_incompressible(self):
        codec = DeflateCodec()
        page = generate_corpus("random-bytes", 4096, seed=0)
        assert compression_ratio(page, codec) < 1.05

    def test_zero_pages_compress_massively(self):
        codec = DeflateCodec()
        page = generate_corpus("zero-pages", 4096, seed=0)
        assert compression_ratio(page, codec) > 50

    def test_structured_corpora_compress_well(self):
        codec = DeflateCodec(window_size=4096)
        for name in ("json-records", "server-log", "xml-config", "html-markup"):
            page = generate_corpus(name, 4096, seed=3)
            assert compression_ratio(page, codec) > 2.0, name

    def test_binary_corpora_compress_moderately(self):
        codec = DeflateCodec(window_size=4096)
        for name in ("heap-pointers", "binary-structs", "integer-array"):
            page = generate_corpus(name, 4096, seed=3)
            assert 1.3 < compression_ratio(page, codec) < 30.0, name

    def test_descriptions_exist(self):
        for name in CORPUS_NAMES:
            assert describe_corpus(name)


class TestCampaignPage:
    """``page_for`` is part of the seeded contract of the chaos and fleet
    campaigns (reports and ``sim_digest``s hang off its bytes): this
    table is the pin to hold while anyone memoises or vectorises it."""

    #: Fleet tenants own disjoint key ranges 2**24 apart.
    KEYS = (0, 4, 9, 64, (1 << 24) + 4, 2 * (1 << 24) + 3)
    CRC32 = {
        0: (648706121, 2428246337, 3286207478, 2611799635, 2087633166,
            3212603815),
        11: (3992487531, 3935699692, 1250023475, 1382045429, 2621120883,
             321475285),
        23: (2444636837, 4179044543, 175710403, 2176586392, 3123689542,
             4077194958),
        29: (3636597234, 2975263020, 1141755741, 4071311831, 3927948106,
             409647255),
    }

    @pytest.mark.parametrize("seed", sorted(CRC32))
    def test_bytes_are_pinned(self, seed):
        pages = [page_for(seed, key) for key in self.KEYS]
        assert all(len(page) == PAGE_SIZE for page in pages)
        assert tuple(zlib.crc32(page) for page in pages) == self.CRC32[seed]

    def test_campaigns_share_the_one_generator(self):
        from repro.fleet import harness, traffic
        from repro.resilience import chaos

        assert harness.page_for is traffic.page_for is chaos.page_for
        assert traffic.page_for is page_for

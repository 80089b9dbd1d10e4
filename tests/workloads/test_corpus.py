"""Synthetic corpus generator tests."""

import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import DeflateCodec, compression_ratio
from repro.errors import ConfigError
from repro.workloads import corpus
from repro.workloads.corpus import (
    CORPUS_NAMES,
    PAGE_SIZE,
    corpus_pages,
    describe_corpus,
    generate_corpus,
    noise_page,
    page_for,
    xorshift_bytes,
)
from tests.hypothesis_settings import fuzz_settings


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


def _loop_page_for(seed: int, key: int) -> bytes:
    """``page_for`` as it was built before the basis pages: the oracle."""
    if key % 5 == 4:
        return xorshift_bytes(
            ((seed * 1_000_003 + key) * 2654435761 + 1) & 0xFFFFFFFF
        )
    unit = bytes([(seed + key * 7 + j) % 251 for j in range(64)])
    return (unit * (PAGE_SIZE // len(unit)))[:PAGE_SIZE]


_TENANT = 1 << 24
_SEEDS = st.one_of(
    st.integers(-(1 << 40), -1), st.just(0), st.integers(1 << 31, 1 << 64)
)
_KEYS = st.one_of(
    st.integers(0, 1 << 16),
    st.builds(
        lambda tenant, offset: tenant * _TENANT + offset,
        st.integers(1, 64), st.integers(0, 1 << 10),
    ),
    st.integers(1 << 32, 1 << 64),
)

class TestNoisePage:
    """``noise_page`` XORs basis pages; the xorshift loop defines it."""

    @pytest.mark.parametrize(
        "state", [0, 0xFFFFFFFF] + [1 << bit for bit in range(32)]
    )
    def test_edge_states(self, state):
        assert noise_page(state) == xorshift_bytes(state)

    @settings(max_examples=60)
    @given(state=st.integers(0, 0xFFFFFFFF))
    def test_matches_reference(self, state):
        assert noise_page(state) == xorshift_bytes(state)

    @pytest.mark.fuzz
    @fuzz_settings(max_examples=60)
    @given(state=st.integers(0, 0xFFFFFFFF))
    def test_fuzz_matches_reference(self, state):
        assert noise_page(state) == xorshift_bytes(state)

    @pytest.mark.parametrize("state", [-1, 1 << 32])
    def test_rejects_states_outside_32_bits(self, state):
        with pytest.raises(ValueError):
            noise_page(state)


class TestPageForOracle:
    """``page_for`` against the loop construction it replaced."""

    @pytest.mark.parametrize("seed", [-3, 0, 10**9])
    def test_every_residue_and_tenant_stride(self, seed):
        for base in (0, 7, _TENANT, 2 * _TENANT, 63 * _TENANT, 1 << 32):
            for key in range(base, base + 5):
                assert page_for(seed, key) == _loop_page_for(seed, key)

    @settings(max_examples=60)
    @given(seed=_SEEDS, key=_KEYS)
    def test_matches_loop_construction(self, seed, key):
        assert page_for(seed, key) == _loop_page_for(seed, key)

    @pytest.mark.fuzz
    @fuzz_settings(max_examples=60)
    @given(seed=_SEEDS, key=_KEYS)
    def test_fuzz_matches_loop_construction(self, seed, key):
        assert page_for(seed, key) == _loop_page_for(seed, key)


class TestBasisIsLazy:
    def test_import_builds_no_basis(self):
        probe = (
            "import repro.fleet.harness, repro.resilience.chaos\n"
            "from repro.workloads import corpus\n"
            "assert corpus._BASIS == [], 'basis built at import'\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_reference_runs_once_per_basis_page(self, monkeypatch):
        calls = []

        def counting(state, size=PAGE_SIZE):
            calls.append(state)
            return xorshift_bytes(state, size)

        monkeypatch.setattr(corpus, "_BASIS", [])
        monkeypatch.setattr(corpus, "xorshift_bytes", counting)
        for key in range(4, 5 * 200, 5):
            page_for(23, key)
        for state in (0, 1, 0xFFFFFFFF):
            noise_page(state)
        assert sorted(calls) == [1 << bit for bit in range(32)]

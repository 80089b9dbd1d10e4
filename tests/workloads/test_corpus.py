"""Synthetic corpus generator tests."""

import random
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
    generate_corpus,
    noise_page,
    page_for,
    xorshift_bytes,
)
from tests.hypothesis_settings import fuzz_settings
from tests.workloads.corpus_reference import REFERENCE


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


class TestCorpusPinned:
    """The bytes of every corpus at sizes across page and record edges,
    taken from the generators as first written (one ``random`` call per
    draw, now the oracle in ``corpus_reference``): the pin that holds
    while the generators are reworked for speed."""

    SIZES = (1, 100, 4095, 4096, 10000, 70001, 524288)
    CRC32 = {
        "base64-blob": {
            0: (30677878, 443512010, 1596018874, 1754134744,
                4028952131, 77642248, 2503925741),
            11: (3081909835, 3807491865, 1921731968, 1084418651,
                 2865411975, 1118746230, 53367231),
            23: (2137352139, 237432490, 2710393338, 723172787,
                 2882538148, 367269667, 3109319186),
        },
        "binary-structs": {
            0: (3803648100, 2361796731, 1486827846, 1306891289,
                2749240384, 2472921994, 3818196266),
            11: (3803648100, 1380132258, 2379450765, 1099350937,
                 737968851, 4148716793, 2451929634),
            23: (3803648100, 2393432201, 4060255775, 1610146030,
                 1117013488, 1283955420, 1392554927),
        },
        "csv-table": {
            0: (2238339752, 3428046102, 2204264937, 3946152826,
                153446754, 4069444863, 2546712573),
            11: (2238339752, 228061992, 617581388, 1905926258,
                 1401383456, 1687676457, 3097276264),
            23: (2238339752, 3048150976, 477278221, 4252099002,
                 3514329265, 2684724126, 3877638396),
        },
        "db-btree": {
            0: (2511347954, 261253115, 936624610, 2620505880,
                4180504767, 3989710997, 3214352681),
            11: (2511347954, 3968497810, 1557923711, 316956455,
                 3955275593, 1535786799, 1973020318),
            23: (2511347954, 1142483767, 3538567058, 3436312538,
                 2298883719, 3269696500, 3425734505),
        },
        "float-matrix": {
            0: (1231433021, 3936765431, 1664757366, 3714133143,
                1721767269, 1188655685, 523997752),
            11: (2363233923, 3432445438, 3761845634, 1731336585,
                 929222960, 3224604272, 1775284637),
            23: (3772416878, 595718896, 1391869206, 2430763484,
                 4269430402, 4081360586, 2011003183),
        },
        "heap-pointers": {
            0: (901431946, 306745489, 3453229677, 3788252786,
                3830030584, 1976700251, 824434324),
            11: (1069182125, 926937561, 2334370497, 1055538689,
                 2758338501, 131741041, 3189609481),
            23: (4108050209, 3217077989, 2087476408, 398768239,
                 30469068, 633944735, 1461623006),
        },
        "html-markup": {
            0: (4251816714, 3012475725, 905123173, 3219847283,
                4079341743, 2911433182, 4044470853),
            11: (4251816714, 1438601374, 3883824754, 3582481890,
                 2058366463, 2364148987, 3586173840),
            23: (4251816714, 81679789, 3879503367, 492783250,
                 2560324635, 231860130, 1496965580),
        },
        "integer-array": {
            0: (198489425, 1597282340, 2211548139, 3847816694,
                3536346385, 1612985095, 4054347844),
            11: (4167943193, 3749886529, 2388915032, 3074184632,
                 3618444106, 2164445018, 260257158),
            23: (2137352139, 1794978784, 1633417874, 3428992543,
                 1857513548, 2701127380, 2580964904),
        },
        "json-records": {
            0: (366298937, 2748686422, 3166165069, 484424906,
                863552793, 3768958551, 1308054968),
            11: (366298937, 3298767744, 3418114825, 2121640582,
                 1717774087, 3035115966, 3178706341),
            23: (366298937, 4174685445, 4248174572, 2921543109,
                 1319803091, 3445825773, 4088413623),
        },
        "random-bytes": {
            0: (2366072709, 3106266862, 357562762, 1789527419,
                2819390441, 4103622540, 1458419971),
            11: (3856323709, 4167747063, 401666154, 2965897890,
                 2183574798, 722452437, 449599103),
            23: (2262612132, 1060024923, 1353930159, 1206720090,
                 1741502435, 2359096909, 3826112358),
        },
        "server-log": {
            0: (450215437, 1719883491, 4153083647, 3153307253,
                1689021473, 1072646590, 1387484010),
            11: (450215437, 3031760263, 3366106545, 3013718763,
                 2199837968, 3974429376, 1565064437),
            23: (450215437, 836054280, 3069902469, 1859294825,
                 3718021179, 877609426, 1003798782),
        },
        "source-code": {
            0: (4239843852, 4126389935, 433284329, 628714420,
                1977947181, 3426463139, 1014613715),
            11: (3916222277, 28600163, 2616757407, 2303179036,
                 59145751, 2026968144, 2201211495),
            23: (3916222277, 3221499927, 3890411121, 3247019309,
                 3235667792, 3155240034, 848991630),
        },
        "sparse-pages": {
            0: (2567322570, 1393193108, 2820007077, 2595577390,
                2215007185, 2158330000, 2463641224),
            11: (2825434405, 2015629175, 4079682511, 1042656927,
                 2094468100, 3006364446, 3066378043),
            23: (3736401077, 850808004, 755385549, 4265621350,
                 2153528413, 1681850965, 2084999768),
        },
        "text-english": {
            0: (856455061, 3775405875, 3884395700, 610029306,
                1338663158, 719203358, 4241826500),
            11: (2852464175, 1872932131, 3446128848, 1869773393,
                 2172216168, 686392783, 2888270991),
            23: (3707901625, 2727086837, 1291866332, 4194022735,
                 995151115, 2580215729, 4094304379),
        },
        "xml-config": {
            0: (4251816714, 1888367373, 1319179719, 3935603804,
                2859491640, 3058788328, 50658499),
            11: (4251816714, 2774768975, 3863805625, 3644816466,
                 487711225, 1203915232, 2953359097),
            23: (4251816714, 267299880, 4161354042, 690924241,
                 3218705054, 2906074728, 185180619),
        },
        "zero-pages": {
            0: (3523407757, 2575877834, 3301102941, 3340501009,
                1295764014, 1572985018, 1969621676),
            11: (3523407757, 2575877834, 3301102941, 3340501009,
                 1295764014, 1572985018, 1969621676),
            23: (3523407757, 2575877834, 3301102941, 3340501009,
                 1295764014, 1572985018, 1969621676),
        },
    }

    def test_every_corpus_is_pinned(self):
        assert sorted(self.CRC32) == CORPUS_NAMES

    @pytest.mark.parametrize("seed", [0, 11, 23])
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_bytes_are_pinned(self, name, seed):
        crcs = tuple(
            zlib.crc32(generate_corpus(name, size, seed)) for size in self.SIZES
        )
        assert crcs == self.CRC32[name][seed]


#: Sizes either side of the bulk draws' chunk edges: ``_CHUNK_WORDS``
#: top bytes (random-bytes), half that many 8-byte values (float-matrix),
#: and several rejection rounds (base64-blob, integer-array).
_EDGE_SIZES = tuple(
    k * corpus._CHUNK_WORDS + d for k in (1, 2, 4, 5) for d in (-1, 0, 1)
)
_CORPUS_SIZES = st.one_of(
    st.integers(0, 2 * PAGE_SIZE),
    st.sampled_from(_EDGE_SIZES),
    st.integers(0, 10 * corpus._CHUNK_WORDS),
)
_CORPUS_SEEDS = st.integers(-(1 << 40), 1 << 64)


def _agrees_with_reference(name: str, size: int, seed: int) -> None:
    """The shipped generator returns the reference's bytes and leaves its
    ``Random`` where the reference leaves it: the same words, no more."""
    ours, theirs = random.Random(seed), random.Random(seed)
    assert corpus._GENERATORS[name](size, ours) == REFERENCE[name](size, theirs)
    assert ours.getstate() == theirs.getstate()


class TestCorpusOracle:
    """Each generator against its one-call-per-draw reference loop."""

    def test_reference_covers_every_corpus(self):
        assert sorted(REFERENCE) == CORPUS_NAMES

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_chunk_edges(self, name):
        for size in (0, 1, 7, 8, 9, 63, 64, 65, 511, 512, 513) + _EDGE_SIZES:
            _agrees_with_reference(name, size, seed=size)

    @settings(max_examples=60)
    @given(name=st.sampled_from(CORPUS_NAMES), size=_CORPUS_SIZES,
           seed=_CORPUS_SEEDS)
    def test_matches_reference(self, name, size, seed):
        _agrees_with_reference(name, size, seed)

    @pytest.mark.fuzz
    @fuzz_settings(max_examples=60)
    @given(name=st.sampled_from(CORPUS_NAMES), size=_CORPUS_SIZES,
           seed=_CORPUS_SEEDS)
    def test_fuzz_matches_reference(self, name, size, seed):
        _agrees_with_reference(name, size, seed)


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

    def test_compressible_pages_are_shared(self):
        """A campaign's compressible pages are 251 contents: each one is
        a single object however many keys store it."""
        compressible = {}
        for key in range(10_000):
            page = page_for(23, key)
            assert page == _loop_page_for(23, key)
            if key % 5 != 4:
                compressible[id(page)] = page
        assert len(compressible) <= 251
        assert len(set(compressible.values())) == len(compressible)

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
            "assert not any(corpus._UNIT_PAGES), 'pages built at import'\n"
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

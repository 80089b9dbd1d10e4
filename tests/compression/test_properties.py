"""Property tests: every codec round-trips arbitrary bytes.

Three layers of input: hypothesis-generated binary, every corpus class
in :mod:`repro.workloads.corpus`, and the fixed adversarial shapes from
:data:`repro.validation.generators.ADVERSARIAL_BUFFERS` — plus pages
from the structured generator :func:`repro.validation.generators.gen_page`,
which a ``fuzz``-marked twin runs for longer.
"""

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.compression import DeflateCodec, LzFastCodec, ZstdLikeCodec
from repro.validation.generators import ADVERSARIAL_BUFFERS, gen_page
from repro.validation.oracles import check_roundtrip
from repro.workloads.corpus import CORPUS_NAMES, corpus_pages
from tests.hypothesis_settings import fuzz_settings

_CODECS = [DeflateCodec(), LzFastCodec(), ZstdLikeCodec()]


@pytest.mark.parametrize("codec", _CODECS, ids=lambda c: c.name)
@settings(max_examples=30)
@given(data=st.binary(max_size=4096))
def test_round_trip_arbitrary_bytes(codec, data):
    assert codec.decompress(codec.compress(data)) == data


@pytest.mark.parametrize("codec", _CODECS, ids=lambda c: c.name)
@settings(max_examples=20)
@given(
    chunk=st.binary(min_size=1, max_size=32),
    repeats=st.integers(1, 128),
    suffix=st.binary(max_size=64),
)
def test_round_trip_structured_bytes(codec, chunk, repeats, suffix):
    """Repetitive prefix + arbitrary tail — the compressed-page shape."""
    data = chunk * repeats + suffix
    assert codec.decompress(codec.compress(data)) == data


@pytest.mark.parametrize("codec", _CODECS, ids=lambda c: c.name)
@settings(max_examples=20)
@given(data=st.binary(min_size=512, max_size=2048))
def test_compress_never_explodes(codec, data):
    """Stored-mode fallback bounds worst-case expansion to the header."""
    assert len(codec.compress(data)) <= len(data) + 16


@pytest.mark.parametrize("codec", _CODECS, ids=lambda c: c.name)
@pytest.mark.parametrize("corpus", CORPUS_NAMES)
def test_round_trip_every_corpus_class(codec, corpus):
    """All three codecs over every corpus class the workload layer
    generates (the exact page population Fig. 8 measures)."""
    for page in corpus_pages(corpus, 2, seed=77):
        check_roundtrip(codec, page)


@pytest.mark.parametrize("codec", _CODECS, ids=lambda c: c.name)
@pytest.mark.parametrize(
    "data",
    ADVERSARIAL_BUFFERS,
    ids=lambda data: f"{len(data)}B-{data[:2].hex() or 'empty'}",
)
def test_round_trip_adversarial_buffers(codec, data):
    """Empty page, 1-byte inputs, all-zero/all-ones pages, repeated
    short periods, and worst-case alternations."""
    check_roundtrip(codec, data)


def _check_generated_page(codec, rng):
    page = gen_page(rng)
    note(page)
    check_roundtrip(codec, page)


@pytest.mark.parametrize("codec", _CODECS, ids=lambda c: c.name)
@settings(max_examples=15)
@given(rng=st.randoms(use_true_random=False))
def test_round_trip_fuzzed_pages(codec, rng):
    """Zero, random, short-period, sparse, truncated, dictionary and
    corpus-class pages from the structured generator."""
    _check_generated_page(codec, rng)


@pytest.mark.fuzz
@pytest.mark.parametrize("codec", _CODECS, ids=lambda c: c.name)
@fuzz_settings(max_examples=15)
@given(rng=st.randoms(use_true_random=False))
def test_fuzz_round_trip_fuzzed_pages(codec, rng):
    _check_generated_page(codec, rng)

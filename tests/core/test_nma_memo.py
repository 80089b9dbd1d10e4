"""The NMA's functional compress memo changes host time, never bytes.

``compress_page(data, digest)`` answers content seen before from a
host-side memo (:data:`repro.core.nma.COMPRESS_MEMO_ENTRIES` digests).
Over page sequences with repeats, incompressible pages among them:

* it returns exactly what the codec returns;
* it holds no blob for content it has seen only once;
* the ``nma.timeout`` fault site fires at the same calls whether or not
  the memo knows the digest.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.deflate import DeflateCodec
from repro.core.nma import COMPRESS_MEMO_ENTRIES, NearMemoryAccelerator
from repro.errors import DeviceFault
from repro.resilience import faults
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.resilience.integrity import page_digest
from repro.sfm.page import PAGE_SIZE
from repro.sim.context import run_context
from repro.workloads.corpus import corpus_pages

#: Compressible and incompressible pages; a sequence draws from these.
_POOL = (
    corpus_pages("json-records", 3, seed=31)
    + corpus_pages("float-matrix", 2, seed=31)
    + corpus_pages("random-bytes", 2, seed=31)
)
_REFERENCE = [DeflateCodec().compress(page) for page in _POOL]

_sequences = st.lists(
    st.integers(0, len(_POOL) - 1), min_size=1, max_size=30
)


def test_pool_holds_both_kinds_of_page():
    assert any(len(blob) > PAGE_SIZE for blob in _REFERENCE)
    assert any(len(blob) < PAGE_SIZE // 2 for blob in _REFERENCE)


@given(_sequences)
@settings(max_examples=40)
def test_memo_returns_the_codec_output_and_keeps_only_recurring_blobs(
    sequence,
):
    nma = NearMemoryAccelerator()
    seen = {}
    for index in sequence:
        page = _POOL[index]
        assert nma.compress_page(page, page_digest(page)) == _REFERENCE[index]
        seen[index] = seen.get(index, 0) + 1
    memo = nma._compress_memo
    for index, count in seen.items():
        held = memo.get(page_digest(_POOL[index]))
        if count == 1:
            assert held == b""  # a marker, no blob
        else:
            assert held == _REFERENCE[index]


@given(_sequences, st.integers(0, 2**16), st.sampled_from([0.2, 0.5, 0.8]))
@settings(max_examples=40)
def test_timeouts_fire_at_the_same_calls_with_and_without_a_digest(
    sequence, seed, probability
):
    """Without the page's digest, each call passes one the memo has
    never seen, so the codec runs every time: the fault draw comes
    before the memo lookup."""
    plan = FaultPlan(
        seed=seed,
        specs=(FaultSpec(faults.NMA_TIMEOUT, probability=probability),),
    )

    def outcomes(with_digest):
        nma = NearMemoryAccelerator()
        results = []
        with run_context(injector=FaultInjector(plan)):
            for call, index in enumerate(sequence):
                page = _POOL[index]
                digest = (
                    page_digest(page) if with_digest
                    else call.to_bytes(16, "big")
                )
                try:
                    results.append(nma.compress_page(page, digest))
                except DeviceFault:
                    results.append(None)
        return results

    plain = outcomes(with_digest=False)
    assert outcomes(with_digest=True) == plain
    for index, blob in zip(sequence, plain):
        assert blob is None or blob == _REFERENCE[index]


def test_evicted_content_starts_over_as_seen_once():
    """The memo is bounded: past ``COMPRESS_MEMO_ENTRIES`` digests the
    least recently used goes, and its content counts as new again."""
    nma = NearMemoryAccelerator()
    first, digest = _POOL[0], page_digest(_POOL[0])
    nma.compress_page(first, digest)
    nma.compress_page(first, digest)
    assert nma._compress_memo.get(digest) == _REFERENCE[0]
    for n in range(COMPRESS_MEMO_ENTRIES):
        page = n.to_bytes(4, "big") + first[4:]
        nma.compress_page(page, page_digest(page))
    assert nma._compress_memo.get(digest) is None
    assert nma.compress_page(first, digest) == _REFERENCE[0]
    assert nma._compress_memo.get(digest) == b""

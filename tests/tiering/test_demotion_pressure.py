"""``LruDemotion.should_demote`` decides from maintained counters.

The pressure test reads each tier once: ``used_bytes()`` returns the
pool's maintained slab footprint and ``capacity_bytes`` is a plain
field. Across any interleaving of stores (accepted, refused as
incompressible, refused as pool-full), loads, frees and compactions it
must answer exactly as ``used_bytes() > watermark_fraction *
capacity_bytes`` does over the pool recounted from its slabs, on the
CPU and the XFM backends alike.
"""

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.core.backend import XfmBackend
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page
from repro.tiering.policy import LruDemotion
from repro.workloads.corpus import corpus_pages
from tests.hypothesis_settings import fuzz_settings

BACKENDS = {
    "cpu": lambda: SfmBackend(capacity_bytes=3 * PAGE_SIZE),
    "xfm": lambda: XfmBackend(capacity_bytes=3 * PAGE_SIZE),
    "xfm-mc": lambda: XfmBackend(capacity_bytes=4 * PAGE_SIZE, num_dimms=2),
}

#: Compressible pages of several ratios, and incompressible noise.
_PAGES = [
    page
    for name in (
        "base64-blob", "binary-structs", "json-records", "zero-pages",
        "random-bytes",
    )
    for page in corpus_pages(name, 3)
]

#: ``store`` stores a burst of consecutive library pages, so a short
#: script still crosses every watermark and fills the pool.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 8 * len(_PAGES))),
        st.tuples(st.just("load"), st.integers(0, 63)),
        st.tuples(st.just("free"), st.integers(0, 63)),
        st.tuples(st.just("compact"), st.just(0)),
    ),
    max_size=60,
)

_CASES = dict(
    watermark=st.sampled_from([0.1, 0.5, 0.6, 0.75, 0.9, 1.0])
    | st.floats(0.01, 1.0),
    ops=_OPS,
)


def _recounted_decision(backend, watermark):
    pool = backend.zpool
    live = sum(slab is not None for slab in pool._slabs)
    return (
        live * pool.slab_size
        > watermark * pool.max_slabs * pool.slab_size
    )


def _check(kind, watermark, ops):
    backend = BACKENDS[kind]()
    policy = LruDemotion(watermark_fraction=watermark)
    resident = {}  # vaddr -> page of every stored page
    next_vaddr = 0x1000
    for step, (op, arg) in enumerate(ops):
        note(f"step {step}: {op} {arg}")
        if op == "store":
            for index in range(arg // len(_PAGES) + 1):
                data = _PAGES[(arg + index) % len(_PAGES)]
                page = Page(vaddr=next_vaddr, data=data)
                next_vaddr += PAGE_SIZE
                if backend.swap_out(page).accepted:
                    resident[page.vaddr] = page
        elif op in ("load", "free") and resident:
            vaddr = sorted(resident)[arg % len(resident)]
            page = resident.pop(vaddr)
            if op == "load":
                backend.swap_in(page)
            else:
                assert backend.invalidate(vaddr)
        elif op == "compact":
            backend.compact()
        decision = policy.should_demote(backend)
        assert decision == (
            backend.used_bytes() > watermark * backend.capacity_bytes
        )
        assert decision == _recounted_decision(backend, watermark)
        assert backend.capacity_bytes == backend.zpool.capacity_bytes


@pytest.mark.parametrize("kind", sorted(BACKENDS))
@settings(max_examples=30)
@given(**_CASES)
def test_should_demote_matches_recounted_pool(kind, watermark, ops):
    _check(kind, watermark, ops)


@pytest.mark.fuzz
@pytest.mark.parametrize("kind", sorted(BACKENDS))
@fuzz_settings(max_examples=30)
@given(**_CASES)
def test_fuzz_should_demote_matches_recounted_pool(kind, watermark, ops):
    _check(kind, watermark, ops)

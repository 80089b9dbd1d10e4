"""Model-based property test: the zswap frontend vs a reference dict.

Hypothesis drives arbitrary store/load/invalidate interleavings against
the frontend while a plain dict models what a correct zswap must answer:
``load`` returns exactly the last stored page or None, never a stale or
foreign page, across fill-modes (compressible / same-filled) and
pool-pressure rejections.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE
from repro.sfm.zswap import ZswapFrontend
from repro.workloads.corpus import corpus_pages

_PAGES = corpus_pages("json-records", 6, seed=97)
_FILLS = [bytes(PAGE_SIZE), bytes([0x5A]) * PAGE_SIZE]


def _page_for(index: int) -> bytes:
    pool = _PAGES + _FILLS
    return pool[index % len(pool)]


@settings(max_examples=40)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["store", "load", "invalidate"]),
            st.integers(0, 11),   # offset
            st.integers(0, 7),    # page selector
        ),
        max_size=80,
    )
)
def test_zswap_matches_reference_model(operations):
    frontend = ZswapFrontend(
        SfmBackend(capacity_bytes=32 * PAGE_SIZE),
        total_ram_bytes=64 * PAGE_SIZE,
        max_pool_percent=50,
    )
    model = {}
    for op, offset, selector in operations:
        if op == "store":
            data = _page_for(selector)
            kept = frontend.store(0, offset, data)
            if kept:
                model[offset] = data
            else:
                # A rejected store means zswap holds nothing for the slot
                # (any previous copy was invalidated by the re-store).
                model.pop(offset, None)
        elif op == "load":
            got = frontend.load(0, offset)
            expected = model.pop(offset, None)
            assert got == expected
        else:
            frontend.invalidate_page(0, offset)
            model.pop(offset, None)
    # Drain: everything the model still holds must load back exactly.
    for offset, expected in sorted(model.items()):
        assert frontend.load(0, offset) == expected
    # And the frontend must now be empty.
    for offset in range(12):
        assert frontend.load(0, offset) is None
    assert frontend.stats.stored_pages == 0

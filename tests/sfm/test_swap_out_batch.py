"""``swap_out_batch`` on the flat backend is a loop over ``swap_out``:
outcome-for-outcome equivalence with the scalar path, with and without
the digest cache, and subclasses' scalar ``swap_out`` overrides honoured."""

import pytest

from repro.core.backend import XfmBackend
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page
from repro.workloads.corpus import corpus_pages

CAP = 64 * PAGE_SIZE


def _pages(n, seed=3):
    return [
        Page(vaddr=i * PAGE_SIZE, data=data)
        for i, data in enumerate(corpus_pages("json-records", n, seed=seed))
    ]


class TestEquivalence:
    def test_batch_outcomes_match_scalar(self):
        scalar = SfmBackend(capacity_bytes=CAP, page_cache_entries=0)
        batched = SfmBackend(capacity_bytes=CAP, page_cache_entries=0)
        batch_pages = _pages(8)
        scalar_out = [scalar.swap_out(p) for p in _pages(8)]
        batch_out = batched.swap_out_batch(batch_pages)
        assert [o.accepted for o in batch_out] == [
            o.accepted for o in scalar_out
        ]
        assert [o.compressed_len for o in batch_out] == [
            o.compressed_len for o in scalar_out
        ]
        # And the stored bytes round-trip identically.
        for page, original in zip(batch_pages, _pages(8)):
            batched.swap_in(page)
            assert page.data == original.data

    def test_empty_batch(self):
        backend = SfmBackend(capacity_bytes=CAP)
        assert backend.swap_out_batch([]) == []


class TestDigestDedup:
    def test_batch_probe_does_not_perturb_scalar_equivalence(self):
        """A batch over pages already resident in the digest cache must
        produce the same outcomes as scalar swap_out would."""
        seed_pages = _pages(4, seed=11)
        a = SfmBackend(capacity_bytes=CAP, page_cache_entries=64)
        b = SfmBackend(capacity_bytes=CAP, page_cache_entries=64)
        for backend in (a, b):
            for p in _pages(4, seed=11):
                backend.swap_out(p)
                backend.swap_in(p)
        again = _pages(4, seed=11)
        scalar_out = [a.swap_out(p) for p in again]
        batch_out = b.swap_out_batch(_pages(4, seed=11))
        assert [o.accepted for o in batch_out] == [
            o.accepted for o in scalar_out
        ]
        assert len(seed_pages) == 4


class TestSubclassDeferral:
    def test_xfm_backend_routes_through_its_scalar_override(self):
        """XfmBackend overrides scalar ``swap_out`` (accelerator
        scheduling); the batch entry point must defer to it rather than
        bypass the override with precompressed blobs."""
        assert type(XfmBackend).__mro__  # sanity: it's a class
        assert XfmBackend.swap_out is not SfmBackend.swap_out
        backend = XfmBackend(capacity_bytes=CAP)
        pages = _pages(5)
        outcomes = backend.swap_out_batch(pages)
        assert all(o.accepted for o in outcomes)
        for page in pages:
            backend.swap_in(page)
            assert page.data is not None

    def test_double_swap_still_raises_in_batch(self):
        from repro.errors import SfmError

        backend = SfmBackend(capacity_bytes=CAP, page_cache_entries=0)
        page = _pages(1)[0]
        backend.swap_out(page)
        with pytest.raises(SfmError):
            backend.swap_out_batch([page])

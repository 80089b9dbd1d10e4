"""Cold-page controller tests (Google-style scan)."""

import pytest

from repro.errors import ConfigError
from repro.sfm.controller import ColdScanController
from repro.sfm.page import PAGE_SIZE, Page


def _pages(last_access_times):
    return [
        Page(vaddr=i * PAGE_SIZE, data=bytes(PAGE_SIZE), last_access_s=t)
        for i, t in enumerate(last_access_times)
    ]


class TestColdScan:
    def test_selects_only_cold_pages(self):
        controller = ColdScanController(cold_threshold_s=120.0)
        pages = _pages([0.0, 100.0, 199.0, 50.0])
        cold = controller.scan(pages, now_s=200.0)
        # Idle times are 200/100/1/150 s; only pages 0 and 3 pass 120 s.
        assert [p.vaddr // PAGE_SIZE for p in cold] == [0, 3]

    def test_coldest_first_ordering(self):
        controller = ColdScanController(cold_threshold_s=10.0)
        pages = _pages([30.0, 10.0, 20.0])
        cold = controller.scan(pages, now_s=100.0)
        assert [p.last_access_s for p in cold] == [10.0, 20.0, 30.0]

    def test_swapped_pages_excluded(self):
        controller = ColdScanController(cold_threshold_s=10.0)
        pages = _pages([0.0, 0.0])
        pages[0].swapped = True
        pages[0].data = None
        assert controller.scan(pages, now_s=100.0) == [pages[1]]

    def test_scan_period_gating(self):
        controller = ColdScanController(scan_period_s=60.0)
        assert controller.due(0.0)
        controller.scan([], now_s=0.0)
        assert not controller.due(30.0)
        assert controller.due(60.0)

    def test_candidate_cap(self):
        controller = ColdScanController(
            cold_threshold_s=1.0, max_candidates_per_scan=2
        )
        assert len(controller.scan(_pages([0.0] * 10), now_s=100.0)) == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            ColdScanController(cold_threshold_s=0.0)


class TestPage:
    def test_alignment_enforced(self):
        with pytest.raises(ConfigError):
            Page(vaddr=100)

    def test_size_enforced(self):
        with pytest.raises(ConfigError):
            Page(vaddr=0, data=b"short")

    def test_touch_and_idle(self):
        page = Page(vaddr=0, data=bytes(PAGE_SIZE))
        page.touch(10.0)
        assert page.access_count == 1
        assert page.idle_s(25.0) == 15.0
        assert page.is_cold(200.0, threshold_s=120.0)
        assert not page.is_cold(100.0, threshold_s=120.0)

"""Tier-interchangeability integration tests.

The whole stack — web front-end, AIFM runtime, cold-scan controller,
zswap frontend — must run unchanged over every far-memory tier: baseline
CPU SFM, single-DIMM XFM, multi-channel XFM, and DFM. This is the
"downstream user" seam: swap the tier, keep the application.
"""

import pytest

from repro.core.backend import XfmBackend
from repro.dfm.backend import DfmBackend
from repro.sfm.backend import SfmBackend
from repro.sfm.controller import ColdScanController
from repro.sfm.page import PAGE_SIZE
from repro.workloads.aifm import FarMemoryRuntime
from repro.workloads.webfrontend import WebFrontend, WebFrontendConfig

TIERS = {
    "baseline": lambda: SfmBackend(capacity_bytes=512 * PAGE_SIZE),
    "xfm": lambda: XfmBackend(capacity_bytes=512 * PAGE_SIZE),
    "xfm-multichannel": lambda: XfmBackend(
        capacity_bytes=512 * PAGE_SIZE, num_dimms=4
    ),
    "dfm": lambda: DfmBackend(capacity_bytes=512 * PAGE_SIZE),
}


def _run_frontend(backend, duration_s=30.0):
    runtime = FarMemoryRuntime(
        backend,
        local_capacity_pages=32,
        controller=ColdScanController(cold_threshold_s=3.0, scan_period_s=2.0),
    )
    frontend = WebFrontend(
        runtime,
        WebFrontendConfig(num_pages=96, lookups_per_s=25, seed=19),
    )
    report = frontend.run(duration_s=duration_s)
    return runtime, report


@pytest.mark.parametrize("tier", list(TIERS), ids=list(TIERS))
class TestEveryTier:
    def test_frontend_runs_and_swaps(self, tier):
        runtime, report = _run_frontend(TIERS[tier]())
        assert report.swap_outs > 0
        assert report.swap_ins > 0
        assert runtime.resident_pages() <= 96

    def test_contents_survive_churn(self, tier):
        from repro.workloads.corpus import corpus_pages

        runtime, _ = _run_frontend(TIERS[tier]())
        original = corpus_pages("json-records", 96, seed=19)
        for index, vaddr in enumerate(
            sorted(runtime.pages)
        ):
            assert runtime.read(vaddr, now_s=9999.0) == original[index], (
                tier,
                index,
            )


class TestTierDifferences:
    def test_only_cpu_tier_burns_compress_cycles(self):
        results = {
            name: _run_frontend(factory())[0].backend
            for name, factory in TIERS.items()
        }
        assert results["baseline"].stats.cpu_compress_cycles > 0
        assert results["xfm"].stats.cpu_compress_cycles == 0
        assert results["dfm"].stats.total_cpu_cycles == 0

    def test_dfm_accepts_everything_sfm_rejects_incompressible(self):
        from repro.sfm.page import Page
        from repro.workloads.corpus import corpus_pages

        noise = corpus_pages("random-bytes", 2, seed=23)
        sfm = SfmBackend(capacity_bytes=16 * PAGE_SIZE)
        dfm = DfmBackend(capacity_bytes=16 * PAGE_SIZE)
        assert not sfm.swap_out(Page(vaddr=0, data=noise[0])).accepted
        assert dfm.swap_out(Page(vaddr=0, data=noise[0])).accepted

    def test_prefetcher_drives_offloads_on_multichannel(self):
        backend = XfmBackend(capacity_bytes=512 * PAGE_SIZE, num_dimms=4)
        # The front-end announces each analytics scan through
        # runtime.prefetch(), which promotes over the offload path.
        _, report = _run_frontend(backend, duration_s=45.0)
        assert report.prefetch_promotions > 0
        assert backend.stats.offloaded_decompressions > 0

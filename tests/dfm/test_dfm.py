"""DFM backend and interconnect tests."""

import pytest

from repro.dfm.backend import DfmBackend
from repro.dfm.interconnect import CXL_LINK, PCIE4_X8, RDMA_LINK, InterconnectModel
from repro.errors import ConfigError, SfmError
from repro.sfm.backend import SfmBackend
from repro.sfm.controller import ColdScanController
from repro.sfm.page import PAGE_SIZE, Page
from repro.workloads.aifm import FarMemoryRuntime
from repro.workloads.corpus import corpus_pages


class TestInterconnect:
    def test_latency_ordering(self):
        """CXL < PCIe < RDMA for small accesses (§2.1's tiers)."""
        assert (
            CXL_LINK.page_swap_latency_s()
            < PCIE4_X8.page_swap_latency_s()
            < RDMA_LINK.page_swap_latency_s()
        )

    def test_pcie_energy_matches_paper_constant(self):
        """EQ2.1: 88 pJ/B = 2.44e-8 kWh/GB."""
        kwh_per_gb = PCIE4_X8.transfer_energy_j(10 ** 9) / 3.6e6
        assert kwh_per_gb == pytest.approx(2.44e-8, rel=0.01)

    def test_transfer_time_components(self):
        link = InterconnectModel("t", 100.0, bandwidth_gbps=4.0, pj_per_byte=1.0)
        assert link.transfer_time_ns(4096) == pytest.approx(100.0 + 1024.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            InterconnectModel("bad", -1.0, 1.0, 1.0)


class TestDfmBackend:
    def test_round_trip(self, json_pages):
        backend = DfmBackend(capacity_bytes=16 * PAGE_SIZE)
        page = Page(vaddr=0, data=json_pages[0])
        outcome = backend.swap_out(page)
        assert outcome.accepted
        assert outcome.compressed_len == PAGE_SIZE  # no compression
        assert backend.swap_in(page) == json_pages[0]

    def test_capacity_is_static(self, json_pages):
        backend = DfmBackend(capacity_bytes=2 * PAGE_SIZE)
        pages = [
            Page(vaddr=i * PAGE_SIZE, data=json_pages[i % len(json_pages)])
            for i in range(4)
        ]
        outcomes = [backend.swap_out(p) for p in pages]
        assert [o.accepted for o in outcomes] == [True, True, False, False]
        assert outcomes[2].reason == "pool-full"

    def test_accepts_incompressible_pages(self, random_pages):
        """DFM doesn't care about compressibility — SFM's reject case."""
        backend = DfmBackend(capacity_bytes=8 * PAGE_SIZE)
        page = Page(vaddr=0, data=random_pages[0])
        assert backend.swap_out(page).accepted

    def test_no_cpu_cycles(self, json_pages):
        backend = DfmBackend(capacity_bytes=8 * PAGE_SIZE)
        page = Page(vaddr=0, data=json_pages[0])
        backend.swap_out(page)
        backend.swap_in(page)
        assert backend.stats.total_cpu_cycles == 0.0

    def test_link_accounting(self, json_pages):
        backend = DfmBackend(capacity_bytes=8 * PAGE_SIZE)
        page = Page(vaddr=0, data=json_pages[0])
        backend.swap_out(page)
        backend.swap_in(page)
        assert backend.traffic.channel_bytes == 2 * PAGE_SIZE
        assert backend.link_stats.link_energy_j > 0
        assert backend.link_stats.link_busy_s > 0

    def test_swap_in_faster_than_sfm_cpu(self, json_pages):
        """The latency trade §2.1 describes: DFM fetch beats CPU
        decompression."""
        dfm = DfmBackend(capacity_bytes=8 * PAGE_SIZE)
        sfm = SfmBackend(capacity_bytes=8 * PAGE_SIZE)
        assert dfm.swap_latency_s("in") < sfm.swap_latency_s("in")

    def test_effective_capacity_vs_sfm(self, json_pages):
        """SFM frees more local memory per pool byte (compression gain)."""
        sfm = SfmBackend(capacity_bytes=8 * PAGE_SIZE)
        dfm = DfmBackend(capacity_bytes=8 * PAGE_SIZE)
        for i, data in enumerate(json_pages[:4]):
            sfm.swap_out(Page(vaddr=i * PAGE_SIZE, data=data))
            dfm.swap_out(Page(vaddr=i * PAGE_SIZE, data=data))
        # Same pages stored; SFM's pool footprint is a fraction of DFM's.
        sfm_footprint = sfm.zpool.used_slabs() * PAGE_SIZE
        assert sfm_footprint < 4 * PAGE_SIZE
        assert dfm.stored_pages() == 4

    def test_state_machine_errors(self, json_pages):
        backend = DfmBackend(capacity_bytes=8 * PAGE_SIZE)
        page = Page(vaddr=0, data=json_pages[0])
        with pytest.raises(SfmError):
            backend.swap_in(page)
        backend.swap_out(page)
        with pytest.raises(SfmError):
            backend.swap_out(page)

    def test_runtime_runs_on_dfm(self):
        """Drop-in proof: the AIFM runtime works over the DFM tier too."""
        backend = DfmBackend(capacity_bytes=64 * PAGE_SIZE)
        runtime = FarMemoryRuntime(
            backend,
            local_capacity_pages=8,
            controller=ColdScanController(
                cold_threshold_s=5.0, scan_period_s=1.0
            ),
        )
        data = corpus_pages("server-log", 16, seed=71)
        vaddrs = runtime.allocate(data, now_s=0.0)
        runtime.maintain(now_s=100.0)
        assert runtime.resident_pages() == 8
        for vaddr in vaddrs:
            assert runtime.read(vaddr, now_s=101.0) == data[vaddr // PAGE_SIZE]

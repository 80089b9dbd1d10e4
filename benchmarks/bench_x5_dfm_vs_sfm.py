"""X5 (§2.1/§3) — the DFM vs SFM trade, measured on the functional tiers.

The paper's qualitative framing: DFM gives fast, CPU-free swap-ins but
statically provisioned, uncompressed capacity; SFM gives elastic,
compression-multiplied capacity at CPU/latency cost — and XFM removes the
CPU cost. This bench runs the same page set through all three tiers and
tabulates the trade.
"""

from repro.analysis.report import format_table
from repro.core.backend import XfmBackend
from repro.dfm.backend import DfmBackend
from repro.dfm.interconnect import CXL_LINK, RDMA_LINK
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE, Page
from repro.workloads.corpus import corpus_pages


def _exercise(backend, data):
    pages = [Page(vaddr=i * PAGE_SIZE, data=d) for i, d in enumerate(data)]
    accepted = sum(1 for p in pages if backend.swap_out(p).accepted)
    restored = 0
    for page, original in zip(pages, data):
        if page.swapped and backend.swap_in(page) == original:
            restored += 1
    return accepted, restored


def _run():
    data = corpus_pages("json-records", 16, seed=77)
    tiers = {
        "DFM (CXL)": DfmBackend(capacity_bytes=64 * PAGE_SIZE, link=CXL_LINK),
        "DFM (RDMA)": DfmBackend(capacity_bytes=64 * PAGE_SIZE, link=RDMA_LINK),
        "SFM (CPU)": SfmBackend(capacity_bytes=64 * PAGE_SIZE),
        "XFM": XfmBackend(capacity_bytes=64 * PAGE_SIZE),
    }
    rows = []
    for name, backend in tiers.items():
        accepted, restored = _exercise(backend, data)
        ratio = backend.stats.mean_compression_ratio
        rows.append(
            {
                "tier": name,
                "accepted": accepted,
                "restored": restored,
                "ratio": ratio,
                "swap_in_us": backend.swap_latency_s("in") * 1e6,
                "cpu_cycles": backend.stats.total_cpu_cycles,
                "channel_bytes": backend.traffic.channel_bytes,
            }
        )
    return rows


def test_x5_dfm_vs_sfm(once, emit):
    rows = once(_run)
    table = format_table(
        [
            "tier",
            "pages accepted",
            "restored ok",
            "capacity multiplier",
            "swap-in latency us",
            "CPU cycles",
            "DDR channel bytes",
        ],
        [
            [
                r["tier"],
                r["accepted"],
                r["restored"],
                round(r["ratio"], 2),
                round(r["swap_in_us"], 2),
                round(r["cpu_cycles"]),
                r["channel_bytes"],
            ]
            for r in rows
        ],
        title="X5 — DFM vs SFM vs XFM on identical pages",
    )
    emit("x5_dfm_vs_sfm", table)

    by_tier = {r["tier"]: r for r in rows}
    # DFM: latency wins, capacity multiplier 1.0, zero CPU.
    assert by_tier["DFM (CXL)"]["swap_in_us"] < by_tier["SFM (CPU)"]["swap_in_us"]
    assert by_tier["DFM (CXL)"]["ratio"] == 1.0
    assert by_tier["DFM (CXL)"]["cpu_cycles"] == 0
    # SFM: capacity multiplier > 2 on this corpus, CPU cycles burned.
    assert by_tier["SFM (CPU)"]["ratio"] > 2.0
    assert by_tier["SFM (CPU)"]["cpu_cycles"] > 0
    # XFM: SFM's capacity with DFM-like CPU profile on the swap-out path,
    # and nothing on the DDR channel for offloads.
    assert by_tier["XFM"]["ratio"] > 2.0
    # Everything restored byte-exact everywhere.
    assert all(r["restored"] == r["accepted"] for r in rows)
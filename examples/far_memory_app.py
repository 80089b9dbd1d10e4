#!/usr/bin/env python3
"""A web front-end running on application-integrated far memory.

Reproduces the paper's §7 workload seam end to end: a synthetic web
front-end (Zipf point lookups + periodic analytics scans over JSON-record
pages) runs on an AIFM-like runtime whose backend is either the baseline
CPU SFM or XFM. The runtime's cold-scan controller demotes idle pages;
scans announce themselves through ``runtime.prefetch()``, which uses
XFM's ``do_offload`` promotion path.

Run:  python examples/far_memory_app.py              # CPU-vs-XFM compare
      python examples/far_memory_app.py <tier>       # one tier only
      (tiers: cpu, xfm, xfm-mc, dfm, pipeline — every backend speaks the
       same FarMemoryTier protocol, so the app code never changes)
"""

import sys

from repro import (
    PAGE_SIZE,
    DfmBackend,
    SfmBackend,
    TierPipeline,
    XfmBackend,
)
from repro._units import pretty_bytes
from repro.analysis.report import format_stats, format_tier_stats
from repro.sfm.controller import ColdScanController
from repro.workloads.aifm import FarMemoryRuntime
from repro.workloads.webfrontend import WebFrontend, WebFrontendConfig

SIMULATED_SECONDS = 90.0

#: Tier name -> zero-arg backend factory (all FarMemoryTier-conformant).
TIER_FACTORIES = {
    "cpu": lambda: SfmBackend(capacity_bytes=512 * PAGE_SIZE),
    "xfm": lambda: XfmBackend(capacity_bytes=512 * PAGE_SIZE),
    "xfm-mc": lambda: XfmBackend(capacity_bytes=512 * PAGE_SIZE, num_dimms=4),
    "dfm": lambda: DfmBackend(capacity_bytes=512 * PAGE_SIZE),
    "pipeline": lambda: TierPipeline.build(
        cpu_capacity_bytes=128 * PAGE_SIZE,
        xfm_capacity_bytes=128 * PAGE_SIZE,
        dfm_capacity_bytes=256 * PAGE_SIZE,
    ),
}


def run_app(backend):
    runtime = FarMemoryRuntime(
        backend,
        local_capacity_pages=96,
        controller=ColdScanController(cold_threshold_s=6.0, scan_period_s=3.0),
    )
    frontend = WebFrontend(
        runtime,
        WebFrontendConfig(
            num_pages=256,
            lookups_per_s=40,
            write_fraction=0.15,
            scan_period_s=15.0,
            scan_burst_pages=48,
            prefetch_lookahead=16,
            seed=5,
        ),
    )
    report = frontend.run(duration_s=SIMULATED_SECONDS)
    return runtime, report


def describe(name, runtime, report):
    backend = runtime.backend
    trace = runtime.trace
    far_bytes = max(1, backend.stored_pages()) * PAGE_SIZE
    print(f"\n--- {name} ---")
    print(f"lookups served        : {report.lookups}")
    print(f"analytics scans       : {report.scans}")
    print(f"swap-outs / swap-ins  : {report.swap_outs} / {report.swap_ins}")
    print(f"demand faults         : {report.demand_faults} "
          f"(fault rate {100 * report.fault_rate:.2f}%)")
    print(f"prefetch promotions   : {report.prefetch_promotions}")
    print(f"mean compression ratio: {backend.stats.mean_compression_ratio:.2f}")
    print(f"observed promotion rate: "
          f"{100 * trace.promotion_rate(far_bytes):.1f}%/min")
    print(f"DDR channel traffic   : {pretty_bytes(backend.traffic.channel_bytes)}")
    print(f"on-DIMM (NMA) traffic : {pretty_bytes(backend.traffic.nma_bytes)}")
    if hasattr(backend, "drivers"):
        drivers = [driver.stats for driver in backend.drivers]
        print(f"driver MMIO writes    : "
              f"{sum(stats.mmio_writes for stats in drivers)} (capacity "
              f"syncs: {sum(stats.capacity_syncs for stats in drivers)})")
        print(f"offloads (comp/decomp): "
              f"{backend.stats.offloaded_compressions} / "
              f"{backend.stats.offloaded_decompressions}")


def run_single_tier(tier: str) -> None:
    """Run the same app on one named tier (or the 3-tier pipeline)."""
    print(f"simulating {SIMULATED_SECONDS:.0f}s of web front-end traffic "
          f"on the {tier!r} tier...")
    backend = TIER_FACTORIES[tier]()
    runtime, report = run_app(backend)
    describe(tier, runtime, report)
    print()
    if isinstance(backend, TierPipeline):
        print(format_tier_stats(backend, title="per-tier counters"))
    else:
        print(format_stats(backend.stats, title=f"swap counters ({tier})"))


def main() -> None:
    tier = sys.argv[1] if len(sys.argv) > 1 else None
    if tier is not None:
        if tier not in TIER_FACTORIES:
            raise SystemExit(
                f"unknown tier {tier!r}; have {', '.join(TIER_FACTORIES)}"
            )
        run_single_tier(tier)
        return
    print(f"simulating {SIMULATED_SECONDS:.0f}s of web front-end traffic "
          "on two far-memory backends...")
    baseline_runtime, baseline_report = run_app(
        SfmBackend(capacity_bytes=512 * PAGE_SIZE)
    )
    xfm_runtime, xfm_report = run_app(
        XfmBackend(capacity_bytes=512 * PAGE_SIZE)
    )
    describe("baseline CPU SFM", baseline_runtime, baseline_report)
    describe("XFM", xfm_runtime, xfm_report)

    saved = (
        baseline_runtime.backend.traffic.channel_bytes
        - xfm_runtime.backend.traffic.channel_bytes
    )
    print(
        f"\nXFM kept {pretty_bytes(max(0, saved))} of swap traffic off the "
        "DDR channel\n(demand faults still use CPU_Fallback by design, §6)."
    )
    print()
    print(
        format_stats(
            [baseline_runtime.backend.stats, xfm_runtime.backend.stats],
            title="swap counters (both backends, merged)",
        )
    )
    xfm_runtime.trace.save("/tmp/xfm_webfrontend_trace.jsonl")
    print("swap trace written to /tmp/xfm_webfrontend_trace.jsonl")


if __name__ == "__main__":
    main()

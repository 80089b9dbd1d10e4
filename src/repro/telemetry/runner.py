"""Traced reference workloads behind ``python -m repro trace``/``tiers``.

Each workload drives a real slice of the stack inside a
:class:`~repro.telemetry.session.TelemetrySession` so the exported
``trace.json`` exercises every track the taxonomy defines:

* ``zswap``    — the functional swap path: a :class:`ZswapFrontend` over
  an :class:`XfmBackend` with a deliberately tiny SPM/CRQ, driven over a
  refresh-window clock loop. Produces CPU spans (zswap store/load,
  compress/decompress), NMA offload spans, driver doorbells, refresh
  windows, and all three fallback reason codes.
* ``emulator`` — one Fig. 12 emulation point with an undersized SPM, so
  the per-tRFC pipeline (window spans, enqueues, completions, fallbacks)
  is visible on the timeline.
* ``tiers``    — the 3-tier pipeline (CPU-zswap -> XFM -> DFM) under
  pressure: fall-through stores, LRU demotion cascades, upward
  promotions, and demand loads, all on the ``tiering`` track with
  per-tier registry counters.

Workload functions take the *entered* session and return a flat summary
dict (printable key -> value) for the CLI.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.sim import CLOCK as _sim_clock
from repro.sim import EventScheduler
from repro.telemetry.session import TelemetrySession
from repro.validation.shadow import ShadowOracle
from repro.workloads.corpus import PAGE_SIZE as _PAGE
from repro.workloads.corpus import noise_page


def _patterned_page(index: int) -> bytes:
    """Compressible page: short repeating runs keyed by ``index``."""
    unit = bytes([(index * 7 + j) % 13 for j in range(64)])
    return (unit * (_PAGE // len(unit)))[:_PAGE]


def _noise_page(seed: int) -> bytes:
    """Incompressible page; the trace goldens pin this seeding."""
    return noise_page((seed * 2654435761 + 1) & 0xFFFFFFFF)


# -- zswap workload ---------------------------------------------------------


def _zswap_workload(session: TelemetrySession) -> Dict[str, object]:
    from repro.core.backend import XfmBackend
    from repro.core.nma import NearMemoryAccelerator, NmaConfig
    from repro.dram.device import DDR5_32GB, timings_for_device
    from repro.dram.refresh import RefreshScheduler
    from repro.sfm.zswap import ZswapFrontend

    config = NmaConfig(spm_bytes=4 * _PAGE, crq_depth=4)
    backend = XfmBackend(
        capacity_bytes=2 * 1024 * 1024,
        nma=NearMemoryAccelerator(config),
        registry=session.registry,
    )
    nma, driver = backend.nmas[0], backend.drivers[0]
    zswap = ZswapFrontend(
        backend, total_ram_bytes=64 * 1024 * 1024, max_pool_percent=20
    )
    refresh = RefreshScheduler(DDR5_32GB, timings_for_device(DDR5_32GB))
    trefi_ns = refresh.trefi_ns

    oracle = ShadowOracle()
    offset = 0

    def store(data: bytes) -> None:
        nonlocal offset
        offset += 1
        if zswap.store(0, offset, data):
            oracle.ack(offset, data)

    #: In-flight prefetch staging: (SPM entry ids) held across a window to
    #: create the resource pressure that forces CPU fallbacks.
    staged = []

    def stage_prefetches(count: int, pop: bool) -> None:
        """Reserve SPM (and optionally leave the CRQ occupied) the way a
        burst of outstanding prefetch decompressions would."""
        for _ in range(count):
            request = driver.submit_decompress(
                source_row=0, input_bytes=_PAGE, dest_row=1
            )
            if pop:
                nma.pop_request()
                staged.append(nma.stage_input(request))

    def release_prefetches(queued: int) -> None:
        for _ in range(queued):
            nma.pop_request()
        while staged:
            entry = staged.pop()
            nma.release(entry.entry_id)
            driver.notify_release(_PAGE)

    num_windows = 12

    def window_body(ref: int) -> None:
        if ref < 4:
            # Steady state: compressible pages offload through the NMA.
            for i in range(6):
                store(_patterned_page(ref * 6 + i))
        elif ref == 4:
            # Rejects: same-filled (kept, no pool space) + incompressible.
            store(b"\x00" * _PAGE)
            store(b"\x5a" * _PAGE)
            store(_noise_page(1))
            store(_noise_page(2))
        elif ref == 5:
            # SPM pressure: staged prefetches hold the whole scratchpad,
            # so these stores fall back with reason ``spm_full``.
            stage_prefetches(4, pop=True)
            for i in range(3):
                store(_patterned_page(100 + i))
            release_prefetches(queued=0)
        elif ref == 6:
            # CRQ pressure: the queue is full of un-popped prefetches, so
            # these stores fall back with reason ``queue_full``.
            stage_prefetches(4, pop=False)
            for i in range(3):
                store(_patterned_page(200 + i))
            release_prefetches(queued=4)
        elif ref < 10:
            # Demand faults: each load is a CPU decompression by design.
            for key in oracle.keys()[:4]:
                if not oracle.check(key, zswap.load(0, key), "zswap"):
                    raise AssertionError(
                        f"round-trip mismatch at offset {key}"
                    )
        elif ref == 10:
            for key in oracle.keys()[:2]:
                zswap.invalidate_page(0, key)
                oracle.forget(key)
        else:
            backend.xfm_compact()

    # The workload consumes the scheduler's window stream as events:
    # each ref_window span fires at its exact tick start (clock set by
    # the event core), and the per-tREFI body runs on the first window
    # of each interval (every window under all-bank; the leading
    # per-bank slice otherwise).
    last_bin = -1

    def on_window(window) -> None:
        nonlocal last_bin
        ref = refresh.policy.trefi_bin(window.ref_index)
        if ref != last_bin:
            last_bin = ref
            # The body's modelled costs borrow the window's timeline.
            with _sim_clock.scoped():
                window_body(ref)

    events = EventScheduler()
    refresh.schedule_windows(events, num_windows * trefi_ns, on_window)
    events.run()

    session.add_stats("swap", backend.stats)
    session.add_stats("driver", driver.stats)
    session.add_stats("zswap", zswap.stats)
    stats = backend.stats
    return {
        "windows": num_windows,
        "stores_accepted": zswap.stats.stored_pages + zswap.stats.loads,
        "loads": zswap.stats.loads,
        "rejects": zswap.stats.total_rejects,
        "offloaded_compressions": stats.offloaded_compressions,
        "fallbacks_spm_full": stats.fallbacks_spm_full,
        "fallbacks_queue_full": stats.fallbacks_queue_full,
        "fallbacks_demand": stats.fallbacks_demand,
        "trace_events": len(session.ring),
    }


# -- emulator workload ------------------------------------------------------


def _emulator_workload(session: TelemetrySession) -> Dict[str, object]:
    from repro.core.emulator import EmulatorConfig, XfmEmulator

    config = EmulatorConfig(
        sim_time_s=0.01,
        spm_bytes=256 * 1024,
        accesses_per_ref=1,
        promotion_rate=1.0,
    )
    report = XfmEmulator(config).run()

    gauges = {
        "emulator.total_ops": report.total_ops,
        "emulator.completed_ops": report.completed_ops,
        "emulator.fallback_ops": report.fallback_ops,
        "emulator.fallback_spm_full": report.fallback_spm_full,
        "emulator.fallback_queue_full": report.fallback_queue_full,
        "emulator.conditional_accesses": report.conditional_accesses,
        "emulator.random_accesses": report.random_accesses,
        "emulator.spm_peak_bytes": report.spm_peak_bytes,
    }
    for name, value in gauges.items():
        session.registry.gauge(name).set(value)
    return {
        "total_ops": report.total_ops,
        "completed_ops": report.completed_ops,
        "fallback_fraction": round(report.fallback_fraction, 4),
        "fallback_spm_full": report.fallback_spm_full,
        "fallback_queue_full": report.fallback_queue_full,
        "random_fraction": round(report.random_fraction, 4),
        "trace_events": len(session.ring),
        "trace_dropped": session.ring.dropped,
    }


# -- tiering workload --------------------------------------------------------


def tiers_demo(session: TelemetrySession) -> Tuple[dict, object]:
    """The ``tiers`` workload; also returns its pipeline, whose per-tier
    counters the ``tiers`` command renders."""
    from repro.tiering.pipeline import TierPipeline
    from repro.tiering.policy import LruDemotion

    # Small upper tiers so the demotion cascade actually fires; the DFM
    # floor is large enough to absorb everything that sinks.
    pipeline = TierPipeline.build(
        cpu_capacity_bytes=16 * 1024,
        xfm_capacity_bytes=16 * 1024,
        dfm_capacity_bytes=1024 * 1024,
        registry=session.registry,
        demotion=LruDemotion(watermark_fraction=0.5),
    )

    def _half_page(key: int) -> bytes:
        """~2:1-compressible page: pattern front, noise tail — big
        enough compressed to put real pressure on the 16 KiB tiers."""
        return (_patterned_page(key)[: _PAGE // 2]
                + _noise_page(key)[: _PAGE // 2])

    oracle = ShadowOracle()
    for key in range(40):
        # Every 5th page is noise: incompressible at both compressed
        # tiers, so it falls through straight to DFM.
        data = _noise_page(key) if key % 5 == 4 else _half_page(key)
        if pipeline.store(key, data):
            oracle.ack(key, data)

    # Hot-set promotion: the oldest keys sank during the cascade; pull
    # a few back toward tier 0.
    promoted = sum(
        1 for key in oracle.keys()[:4] if pipeline.promote_key(key)
    )

    swept = oracle.sweep(pipeline.load)
    mismatches = swept["lost"] + swept["corrupt"]
    if mismatches:
        raise AssertionError(f"{mismatches} tier round-trip mismatches")

    for name, tier in pipeline.tiers_by_name().items():
        session.add_stats(f"tier.{name}", tier.stats)
    session.add_stats("pipeline", pipeline.pipeline_stats)
    pstats = pipeline.pipeline_stats
    summary = {
        "tiers": "/".join(pipeline.tier_names),
        "stores": pstats.stores,
        "store_fallthroughs": pstats.store_fallthroughs,
        "demotions": pstats.demotions,
        "promotions": promoted,
        "loads": pstats.loads + pstats.prefetch_loads,
        "round_trip_ok": not mismatches,
        "trace_events": len(session.ring),
    }
    return summary, pipeline


WORKLOADS: Dict[str, Callable[[TelemetrySession], Dict[str, object]]] = {
    "zswap": _zswap_workload,
    "emulator": _emulator_workload,
    "tiers": lambda session: tiers_demo(session)[0],
}

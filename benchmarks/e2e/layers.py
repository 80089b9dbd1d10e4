"""Which public entry points get spans, and the per-layer metrics
derived from those spans plus the program's public snapshots.

Layer names follow the packages under ``src/repro``. ``fleet`` is split
three ways because the ROADMAP's first profile found the traffic
generator and the harness, not the serving path, on top:
``fleet.traffic`` (page and arrival generation), ``fleet.harness``
(``run_fleet`` itself and the client callbacks it schedules) and
``fleet.frontend`` (frontend, shards, admission, brownout, retry
budget). ``core`` is split into the functional backend
(``core.backend``: ``XfmBackend``, NMA) and the Fig. 12 model
(``core.emulator``).

Nothing here edits the program: ``install`` swaps attributes on its
classes and modules for traced wrappers before any object is built, and
``Tracer.unpatch_all`` puts them back.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from spans import Tracer, empty_span_cost_s

#: Tier names of ``TierPipeline.build`` and of every fleet shard.
TIER_SFM, TIER_XFM, TIER_DFM = "cpu-zswap", "xfm", "dfm"

CODEC_METHODS = ("compress", "decompress", "compress_batch", "decompress_batch")


def layer_of_module(module: str) -> str:
    """Layer that owns a callback defined in ``module``."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "bench"
    package = parts[1]
    leaf = parts[2] if len(parts) > 2 else ""
    if package == "fleet":
        return f"fleet.{leaf}" if leaf in ("traffic", "harness") else "fleet.frontend"
    if package == "core":
        return "core.emulator" if leaf == "emulator" else "core.backend"
    return package


class Captured:
    """Program objects seen by the wrappers, read after the run."""

    def __init__(self) -> None:
        self.frontends: list = []
        self.sessions: list = []
        #: Span names of the codec entry points, per direction.
        self.compress_spans: List[str] = []
        self.decompress_spans: List[str] = []
        #: Span types of fired scheduler events and of consumed refresh
        #: windows (callbacks are named after whoever owns them).
        self.event_types: set = set()
        self.window_types: set = set()
        self._seen: set = set()

    def keep(self, bucket: list, obj: object) -> None:
        if id(obj) not in self._seen:
            self._seen.add(id(obj))
            bucket.append(obj)


class _TracedJson:
    """Stands in for the ``json`` module inside ``fleet.harness`` so the
    report's ``dumps`` is charged to export, not to the harness."""

    def __init__(self, tracer: Tracer) -> None:
        self.dumps = tracer.wrap(json.dumps, "telemetry", "report.json_dumps")

    def __getattr__(self, name: str):
        return getattr(json, name)


def install(tracer: Tracer) -> Captured:
    """Put spans around every layer's public entry points."""
    from repro.compression import base as codec_base
    from repro.compression.huffman import HuffmanTable
    from repro.core.backend import XfmBackend
    from repro.core.emulator import XfmEmulator
    from repro.core.nma import NearMemoryAccelerator
    from repro.dfm.backend import DfmBackend
    from repro.dram.refresh import RefreshScheduler
    from repro.fleet import harness, traffic
    from repro.fleet.admission import AdmissionController
    from repro.fleet.frontend import FleetFrontend
    from repro.fleet.shard import FleetShard
    from repro.sfm.backend import SfmBackend
    from repro.sim.events import EventScheduler
    from repro.telemetry.session import TelemetrySession
    from repro.tiering.pipeline import TierPipeline

    captured = Captured()
    #: key -> id of the fleet request that last named it, so the tier
    #: work a shard pump does later carries its request's id.
    request_of_key: Dict[int, int] = {}

    def wrap_callback_at(position: int, seen_types: set):
        def rewrite(args: tuple) -> tuple:
            callback = args[position]
            tid = tracer.callback_type(callback, layer_of_module)
            seen_types.add(tid)
            return (
                args[:position] + (tracer.bind(tid, callback),)
                + args[position + 1:]
            )
        return rewrite

    def fleet_request(args: tuple) -> Optional[int]:
        frontend, request = args[0], args[1]
        captured.keep(captured.frontends, frontend)
        request_of_key[request.key] = request.rid
        return request.rid

    def keyed_request(args: tuple) -> Optional[int]:
        return request_of_key.get(args[1])

    def session_seen(args: tuple) -> None:
        captured.keep(captured.sessions, args[0])

    def batch_len(args: tuple) -> int:
        return len(args[1])

    # fleet.traffic: the harness imported both names, so rebind them there.
    for name in ("page_for", "generate_arrivals"):
        tracer.patch(traffic, name, "fleet.traffic")
        tracer.replace(harness, name, getattr(traffic, name))
    # fleet
    tracer.patch(harness, "run_fleet", "fleet.harness")
    tracer.patch(FleetFrontend, "submit", "fleet.frontend", request_of=fleet_request)
    for name in ("kill_shard", "lookup"):
        tracer.patch(FleetFrontend, name, "fleet.frontend")
    tracer.patch(FleetShard, "submit", "fleet.frontend")
    tracer.patch(AdmissionController, "admit", "fleet.frontend")
    # sim: spans around the drain loops only. Every event callback is
    # wrapped where it is scheduled (``schedule`` and ``schedule_after``
    # funnel into ``schedule_at_ticks``), so an event's time goes to the
    # layer that owns the callback and the drain's self time is the heap
    # and clock work. ``step`` and ``schedule*`` get no span of their
    # own: per event they tripled the span count and more than doubled
    # ``xfm_emulator``'s host time; a heap push is charged to its caller.
    for name in ("run", "run_until"):
        tracer.patch(EventScheduler, name, "sim")
    tracer.patch_args(
        EventScheduler, "schedule_at_ticks",
        wrap_callback_at(2, captured.event_types),
    )
    # tiering
    for name in ("store", "load"):
        tracer.patch(TierPipeline, name, "tiering", request_of=keyed_request)
    for name in ("swap_out", "swap_in", "invalidate", "demote_coldest"):
        tracer.patch(TierPipeline, name, "tiering")
    # sfm
    for name in ("swap_out", "swap_out_batch", "swap_in", "invalidate", "compact"):
        tracer.patch(SfmBackend, name, "sfm")
    # core
    for name in ("swap_out", "swap_in", "promote"):
        tracer.patch(XfmBackend, name, "core.backend")
    for name in ("compress_page", "decompress_blob"):
        tracer.patch(NearMemoryAccelerator, name, "core.backend")
    tracer.patch(XfmEmulator, "run", "core.emulator")
    # dfm
    for name in ("swap_out", "swap_in"):
        tracer.patch(DfmBackend, name, "dfm")
    # compression: every registered codec, whichever the tiers picked.
    for codec_name in codec_base.available_codecs():
        codec_cls = type(codec_base.get_codec(codec_name))
        for name in CODEC_METHODS:
            if name in codec_cls.__dict__:
                hooks = {"weight_of": batch_len} if name.endswith("_batch") else {}
                tracer.patch(codec_cls, name, "compression", **hooks)
                spans = (
                    captured.decompress_spans if name.startswith("decompress")
                    else captured.compress_spans
                )
                spans.append(f"{codec_cls.__name__}.{name}")
    for name in ("from_frequencies", "from_lengths"):
        tracer.patch(HuffmanTable, name, "compression")
    # dram: window generation runs in the refresh stream's own event
    # callbacks; the window consumer is charged to whoever owns it.
    tracer.patch_args(
        RefreshScheduler, "schedule_windows",
        wrap_callback_at(3, captured.window_types),
    )
    tracer.patch(RefreshScheduler, "schedule_windows", "dram")
    # telemetry
    tracer.patch(TelemetrySession, "__enter__", "telemetry", request_of=session_seen)
    for name in ("__exit__", "write", "metrics_document"):
        tracer.patch(TelemetrySession, name, "telemetry")
    tracer.replace(harness, "json", _TracedJson(tracer))
    return captured


# -- metrics ------------------------------------------------------------------


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class _Snapshots:
    """Counters summed over the ``metrics_snapshot()`` of many pipelines."""

    def __init__(self, pipelines: Iterable[object]) -> None:
        self.snapshots = [p.metrics_snapshot() for p in pipelines]

    def total(self, name: str, tier: Optional[str] = None) -> float:
        key = name if tier is None else f"{name}{{tier={tier}}}"
        return sum(snap.get(key, 0) for snap in self.snapshots)

    def worst_quantile(self, op: str, label: str) -> float:
        key = f"op_latency_ns{{op={op},tier=pipeline}}"
        return max(
            (snap[key]["quantiles"][label] for snap in self.snapshots if key in snap),
            default=0.0,
        )


def layer_metrics(
    tracer: Tracer,
    captured: Captured,
    outcome,
    native_loaded: bool,
    self_s: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer did no
    work in this workload). ``self_s`` is ``tracer.self_s_by_layer()``,
    computed once by the caller: a pass over millions of spans."""
    durations = tracer.durations_ns()

    def span_s(indices: Iterable[int]) -> float:
        return sum(durations[i] for i in indices) / 1e9

    def span_us(name: str) -> List[float]:
        return [durations[i] / 1e3 for i in tracer.outermost(name)]

    def count(*names: str) -> int:
        return sum(1 for _ in tracer.spans_named(*names))

    pipelines = list(outcome.pipelines)
    for frontend in captured.frontends:
        pipelines.extend(shard.pipeline for shard in frontend.shards.values())
    snaps = _Snapshots(pipelines)
    reports = outcome.fleet_reports
    emulated = outcome.emulator_reports

    def shed(reason: str) -> int:
        return sum(r["shedding"]["by_reason"].get(reason, 0) for r in reports)

    compress = tracer.outermost(*captured.compress_spans)
    decompress = tracer.outermost(*captured.decompress_spans)
    huffman = tracer.outermost(
        "HuffmanTable.from_frequencies", "HuffmanTable.from_lengths"
    )
    compress_s, decompress_s = span_s(compress), span_s(decompress)
    compressed_pages = sum(tracer.weight[i] for i in compress)
    decompressed_pages = sum(tracer.weight[i] for i in decompress)
    events = tracer.count_of_types(captured.event_types)
    emulator_ops = sum(r.total_ops for r in emulated)
    accesses = sum(r.conditional_accesses + r.random_accesses for r in emulated)
    hits = snaps.total("swap.digest_cache_hits", TIER_SFM)
    lookups = hits + snaps.total("swap.digest_cache_misses", TIER_SFM)
    stores_us = span_us("TierPipeline.store")
    loads_us = span_us("TierPipeline.load")
    span_cost = empty_span_cost_s() * len(tracer)

    metrics = {
        "fleet.traffic.self_s": self_s.get("fleet.traffic", 0.0),
        "fleet.traffic.pages_generated": count("traffic.page_for"),
        "fleet.traffic.arrivals": sum(r["arrivals"] for r in reports),
        "fleet.frontend.self_s": self_s.get("fleet.frontend", 0.0),
        "fleet.harness.self_s": self_s.get("fleet.harness", 0.0),
        "fleet.submits": count("FleetFrontend.submit"),
        "fleet.sheds_rate_quota": shed("rate-quota"),
        "fleet.sheds_queue_full": shed("queue-full"),
        "fleet.sheds_deadline": shed("deadline"),
        "fleet.retries_scheduled": sum(
            r["retry_budget"]["retries_scheduled"] for r in reports
        ),
        "fleet.retry_fast_fails": sum(
            r["retry_budget"]["fast_fails"] for r in reports
        ),
        "fleet.brownout_degraded_ops": sum(
            r["brownout"]["degraded_ops"] for r in reports
        ),
        "fleet.sim_spike_p99_ns": max(
            (r["phases"]["spike"]["latency_ns"]["p99"] for r in reports), default=0
        ),
        "fleet.fairness_max_min": max(
            (r["fairness"]["max_min_goodput_ratio"] for r in reports), default=0.0
        ),
        "sim.events": events,
        "sim.self_s": self_s.get("sim", 0.0),
        "sim.host_us_per_event": (
            self_s.get("sim", 0.0) * 1e6 / events if events else 0.0
        ),
        "tiering.self_s": self_s.get("tiering", 0.0),
        "tiering.stores": snaps.total("tier_pipeline.stores"),
        "tiering.loads": snaps.total("tier_pipeline.loads"),
        "tiering.store_fallthroughs": snaps.total("tier_pipeline.store_fallthroughs"),
        "tiering.demotions": snaps.total("tier_pipeline.demotions"),
        "tiering.host_store_us_p50": _percentile(stores_us, 0.50),
        "tiering.host_store_us_p99": _percentile(stores_us, 0.99),
        "tiering.host_load_us_p50": _percentile(loads_us, 0.50),
        "tiering.host_load_us_p99": _percentile(loads_us, 0.99),
        "tiering.sim_store_p99_ns": snaps.worst_quantile("store", "p99"),
        "tiering.sim_load_p99_ns": snaps.worst_quantile("load", "p99"),
        "sfm.self_s": self_s.get("sfm", 0.0),
        "sfm.swap_outs": snaps.total("swap.swap_outs", TIER_SFM),
        "sfm.swap_ins": snaps.total("swap.swap_ins", TIER_SFM),
        "sfm.rejected": snaps.total("swap.rejected", TIER_SFM),
        "sfm.digest_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "core.backend.self_s": self_s.get("core.backend", 0.0),
        "core.offloaded_compressions": snaps.total(
            "swap.offloaded_compressions", TIER_XFM
        ),
        "core.fallbacks_spm_full": snaps.total("swap.fallbacks_spm_full", TIER_XFM)
        + sum(r.fallback_spm_full for r in emulated),
        "core.fallbacks_queue_full": snaps.total(
            "swap.fallbacks_queue_full", TIER_XFM
        ) + sum(r.fallback_queue_full for r in emulated),
        "core.fallbacks_demand": snaps.total("swap.fallbacks_demand", TIER_XFM),
        "core.driver_mmio_ops": snaps.total("driver.mmio_reads")
        + snaps.total("driver.mmio_writes"),
        "core.emulator.self_s": self_s.get("core.emulator", 0.0),
        "core.emulator.ops": emulator_ops,
        "core.emulator.spm_peak_bytes": max(
            (r.spm_peak_bytes for r in emulated), default=0
        ),
        "core.emulator.random_access_fraction": (
            sum(r.random_accesses for r in emulated) / accesses if accesses else 0.0
        ),
        "core.emulator.host_us_per_op": (
            self_s.get("core.emulator", 0.0) * 1e6 / emulator_ops
            if emulator_ops else 0.0
        ),
        "dfm.self_s": self_s.get("dfm", 0.0),
        "dfm.swap_outs": snaps.total("swap.swap_outs", TIER_DFM),
        "dfm.swap_ins": snaps.total("swap.swap_ins", TIER_DFM),
        "dfm.sim_link_busy_s": snaps.total("dfm.link_busy_s", TIER_DFM),
        "compression.compress_s": compress_s,
        "compression.decompress_s": decompress_s,
        "compression.compress_calls": len(compress),
        "compression.decompress_calls": len(decompress),
        "compression.compress_us_per_page": (
            compress_s * 1e6 / compressed_pages if compressed_pages else 0.0
        ),
        "compression.decompress_us_per_page": (
            decompress_s * 1e6 / decompressed_pages if decompressed_pages else 0.0
        ),
        "compression.huffman_build_s": span_s(huffman),
        "compression.huffman_builds": len(huffman),
        "compression.native_loaded": int(native_loaded),
        "dram.refresh_windows": tracer.count_of_types(captured.window_types),
        "dram.self_s": self_s.get("dram", 0.0),
        "telemetry.self_s": self_s.get("telemetry", 0.0),
        "telemetry.export_s": span_s(
            tracer.spans_named("TelemetrySession.write", "report.json_dumps")
        ),
        "telemetry.export_bytes": outcome.export_bytes,
        "telemetry.trace_events": sum(
            len(s.ring) for s in captured.sessions + outcome.sessions
        ),
        "bench.spans": len(tracer),
        # A stand-alone traced run has no untraced partner: it reports
        # spans x calibrated empty-span cost over the remaining wall.
        # The suite replaces this with traced wall / untraced median - 1.
        "bench.trace_overhead_ratio": span_cost / max(outcome.wall_s - span_cost, 1e-9),
        "bench.unattributed_s": outcome.wall_s - tracer.root_s(),
    }
    for name in SIM_STATS:
        if name != "failed_ops_ratio":  # the contract's attempted/failed
            metrics[f"model.{name}"] = outcome.sim.get(name, 0.0)
    return metrics


#: Simulated end-to-end statistics: name -> (unit, better, bound by which a
#: model change may worsen it). No workload produces all of them, so the
#: benchmark contract carries them with the traced run's metrics as
#: ``model.<name>``; the suite and ``compare`` judge them per workload.
SIM_STATS = {
    "failed_ops_ratio": ("ratio", "lower", 0.0),
    "refused_ratio": ("ratio", "lower", 0.01),
    "sim_p50_ns": ("ns", "lower", 0.01),
    "sim_p99_ns": ("ns", "lower", 0.01),
    "goodput_rps": ("1/s", "higher", 0.01),
    "stored_bytes_per_user_byte": ("ratio", "lower", 0.01),
    "cpu_fallback_ratio": ("ratio", "lower", 0.01),
}


def separation_problems(
    name: str, metrics: Dict[str, float], self_s: Dict[str, float]
) -> List[str]:
    """Ways in which a traced run failed to load and bypass the layers
    its workload was chosen to (empty = separated as designed)."""
    problems = []

    def expect(holds: bool, what: str) -> None:
        if not holds:
            problems.append(f"layer separation: {what}")

    expect(
        (metrics["telemetry.export_s"] > 0) == (name == "fleet_steady_export"),
        "telemetry export must run on fleet_steady_export and nowhere else",
    )
    if not name.startswith("fleet_"):
        busy = [
            key for key, value in metrics.items()
            if key.startswith("fleet.") and value
        ]
        expect(not busy, f"fleet layers ran: {busy}")
    if name.startswith("tier_"):
        expect(metrics["sim.events"] == 0, "the event scheduler ran")
    if name == "tier_churn":
        expect(
            max(self_s, key=self_s.get) == "compression",
            "compression is not the largest self-time layer",
        )
    if name == "tier_fault_reuse":
        expect(
            metrics["sfm.digest_cache_hit_ratio"] > 0.5,
            "re-stores of unchanged pages missed the digest cache",
        )
    if name == "xfm_emulator":
        idle = ("compression.compress_calls", "compression.decompress_calls",
                "tiering.stores", "tiering.loads")
        expect(
            not any(metrics[key] for key in idle), "codec or tiers ran"
        )
    return problems


def accounting_gap(
    self_s: Dict[str, float], metrics: Dict[str, float], wall_s: float
) -> float:
    """|Σ layer self time + bench.unattributed_s − traced wall| / wall:
    per-span self times must add back up to what the root spans cover."""
    attributed = sum(self_s.values())
    return abs(attributed + metrics["bench.unattributed_s"] - wall_s) / wall_s


def layer_table(
    tracer: Tracer, self_s: Dict[str, float], unattributed_s: float, wall_s: float
) -> str:
    """Per-layer self time of a traced run, widest first."""
    counts: Dict[str, int] = {}
    for tid in tracer.type_of:
        layer = tracer.types[tid][0]
        counts[layer] = counts.get(layer, 0) + 1
    rows = sorted(self_s.items(), key=lambda item: -item[1])
    rows.append(("(unattributed)", unattributed_s))
    lines = [f"  {'layer':<18}{'self_s':>10}{'share':>8}{'spans':>10}"]
    for layer, seconds in rows:
        lines.append(
            f"  {layer:<18}{seconds:>10.3f}{seconds / wall_s:>8.1%}"
            f"{counts.get(layer, 0):>10}"
        )
    return "\n".join(lines)

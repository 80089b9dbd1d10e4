"""TraceReplayer: run a recorded swap trace against any tier config.

Replay is the repo's strongest regression substrate because it is
deterministic twice over: the trace fixes the workload (exact operation
stream, exact page bytes, exact simulated timestamps) and the target
tier is a pure function of its configuration, so two replays of the same
trace against the same config produce identical page bytes, identical
stats, and identical traffic. The differential test suite exploits this
to pin behavior across all four backends plus the pipeline.

Semantics per event (see :mod:`repro.scenarios.format`):

* ``store``       — place the page (re-store drops any stale copy
  first); a page every tier rejects falls back to a host-side spill
  dict (the replay analogue of the real swap device), so later loads
  remain verifiable no matter how small the target is.
* ``load``        — demand-fetch from the target (or the spill) and
  verify the returned bytes hash to the recorded digest: the trace is
  this harness's oracle, so no
  :class:`~repro.validation.shadow.ShadowOracle` is kept. A mismatch
  is counted, never silently ignored.
* ``promote``     — ``origin="upward"`` raises the blob toward tier 0
  (``promote_up`` on pipelines; emulated as exclusive-load + re-store on
  flat tiers); any other origin is the tier protocol's exclusive
  prefetch-load, digest-verified like a demand load.
* ``invalidate``  — drop the stored copy.

Chaos replay: run the replay under a run context with a seeded
:class:`~repro.resilience.faults.FaultInjector` (``python -m repro
replay --fault-profile``) to re-run the same recorded workload under
faults — transient faults must heal (zero mismatches), persistent ones
must surface as explicit data-loss counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.amat import AmatConfig, TierLatency, amat_s
from repro.errors import (
    CorruptedBlobError,
    SfmError,
    TierUnavailableError,
)
from repro.scenarios.format import (
    OP_INVALIDATE,
    OP_LOAD,
    OP_PROMOTE,
    OP_STORE,
    ORIGIN_UPWARD,
    ScenarioTrace,
    digest_hex,
)
from repro.sfm.page import Page
from repro.sim import CLOCK as _sim_clock
from repro.sim.context import run_context
from repro.telemetry.session import TelemetrySession
from repro.tiering.protocol import FarMemoryTier


@dataclass
class ReplayReport:
    """One replay run's outcome, JSON-ready via :meth:`as_dict`."""

    scenario: str
    backend: str
    events: int = 0
    stores: int = 0
    stores_accepted: int = 0
    stores_rejected: int = 0
    loads: int = 0
    loads_from_shadow: int = 0
    promotes: int = 0
    upward_promotes: int = 0
    invalidates: int = 0
    #: Loads whose bytes did not hash to the recorded digest — the
    #: differential suite asserts this stays zero.
    digest_mismatches: int = 0
    #: Loads of pages neither the target nor the spill held.
    missing_pages: int = 0
    tier_unavailable_errors: int = 0
    data_loss_events: int = 0
    #: Total traffic of the target (channel and on-DIMM, both directions).
    bytes_moved: int = 0
    #: Traffic that crossed the DDR channel or the DFM link (not the NMA's).
    channel_bytes: int = 0
    #: Demand-load fraction of far-memory fetches (1 - prefetch hit).
    fault_rate: float = 0.0
    #: Hierarchical AMAT for the observed mix on this target, seconds.
    amat_s: float = 0.0
    per_tier: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: op-class x tier latency percentile rows (see
    #: :func:`repro.telemetry.quantiles.collect_percentiles`); only
    #: populated when the replay ran under tracing — the quantile
    #: histograms record nothing otherwise.
    latency_percentiles: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.digest_mismatches or self.missing_pages)

    def as_dict(self) -> Dict[str, object]:
        doc = {
            name: getattr(self, name)
            for name in (
                "scenario", "backend", "events", "stores",
                "stores_accepted", "stores_rejected", "loads",
                "loads_from_shadow", "promotes", "upward_promotes",
                "invalidates", "digest_mismatches", "missing_pages",
                "tier_unavailable_errors", "data_loss_events",
                "bytes_moved", "channel_bytes",
            )
        }
        doc["fault_rate"] = round(self.fault_rate, 6)
        doc["amat_us"] = round(self.amat_s * 1e6, 4)
        doc["clean"] = self.clean
        doc["per_tier"] = self.per_tier
        # Omitted entirely when tracing was off, so the pinned replay
        # goldens (recorded session-less) stay byte-identical.
        if self.latency_percentiles:
            doc["latency_percentiles"] = self.latency_percentiles
        return doc


class TraceReplayer:
    """Replays one :class:`ScenarioTrace` against one target tier."""

    def __init__(
        self,
        trace: ScenarioTrace,
        target: FarMemoryTier,
        backend_name: Optional[str] = None,
        session: Optional[TelemetrySession] = None,
        slo_engine: Optional[object] = None,
    ) -> None:
        """``slo_engine``, when provided (a
        :class:`~repro.telemetry.slo.SloEngine`), is ticked with every
        replayed event's timestamp and finalized at the end of the run,
        so SLO windows close on the trace's own simulated clock."""
        self.trace = trace
        self.target = target
        self.backend_name = (
            backend_name
            if backend_name is not None
            else getattr(target, "tier_name", "?")
        )
        self.session = session
        self.slo_engine = slo_engine
        #: Pages the target rejected — the replay-side swap device.
        self.spill: Dict[int, bytes] = {}

    # -- replay loop ----------------------------------------------------------

    def run(self) -> ReplayReport:
        report = ReplayReport(
            scenario=self.trace.name, backend=self.backend_name
        )
        handlers = {
            OP_STORE: self._replay_store,
            OP_LOAD: self._replay_load,
            OP_PROMOTE: self._replay_promote,
            OP_INVALIDATE: self._replay_invalidate,
        }
        # Drive the shared simulated clock from the trace inside a
        # save/restore scope — replay borrows the timeline and must not
        # perturb later recordings (scopes nest, so replays inside
        # sessions inside replays all compose).
        last_t_ns = 0.0
        with _sim_clock.scoped():
            for event in self.trace:
                _sim_clock.set_ns(event.t_ns)
                handlers[event.op](event, report)
                report.events += 1
                if self.slo_engine is not None:
                    self.slo_engine.tick(event.t_ns)
                    last_t_ns = event.t_ns
        if self.slo_engine is not None:
            self.slo_engine.finalize(last_t_ns)
        # Faults cover the replayed events only: the AMAT's latency query
        # would draw a DFM link's latency-spike fault site.
        with run_context(injector=None):
            self._finalize(report)
        return report

    def _replay_store(self, event, report: ReplayReport) -> None:
        report.stores += 1
        data = self.trace.page_for(event.digest)
        # A re-store supersedes any stale copy (keyed-API semantics).
        if self.target.contains(event.vaddr):
            try:
                self.target.invalidate(event.vaddr)
            except TierUnavailableError:
                report.tier_unavailable_errors += 1
        self.spill.pop(event.vaddr, None)
        try:
            outcome = self.target.swap_out(Page(vaddr=event.vaddr, data=data))
        except TierUnavailableError:
            report.tier_unavailable_errors += 1
            outcome = None
        if outcome is not None and outcome.accepted:
            report.stores_accepted += 1
        else:
            report.stores_rejected += 1
            self.spill[event.vaddr] = data

    def _fetch(self, event, report: ReplayReport, demand: bool):
        """Shared load path: target first, spill fallback; returns the
        bytes or None (already counted)."""
        if self.target.contains(event.vaddr):
            # swapped=True: the fetch paths reject pages that do not
            # claim to live in far memory.
            page = Page(vaddr=event.vaddr, swapped=True)
            try:
                return (
                    self.target.swap_in(page)
                    if demand
                    else self.target.promote(page)
                )
            except TierUnavailableError:
                report.tier_unavailable_errors += 1
                return None
            except CorruptedBlobError:
                report.data_loss_events += 1
                return None
            except SfmError:
                # Bookkeeping said held but the tier lost it mid-cascade
                # (only reachable under fault injection).
                report.missing_pages += 1
                return None
        if event.vaddr in self.spill:
            report.loads_from_shadow += 1
            return self.spill.pop(event.vaddr)
        report.missing_pages += 1
        return None

    def _verify(self, event, data: bytes, report: ReplayReport) -> None:
        if digest_hex(data) != event.digest:
            report.digest_mismatches += 1

    def _replay_load(self, event, report: ReplayReport) -> None:
        report.loads += 1
        data = self._fetch(event, report, demand=(event.origin != "prefetch"))
        if data is not None:
            self._verify(event, data, report)

    def _replay_promote(self, event, report: ReplayReport) -> None:
        if event.origin != ORIGIN_UPWARD:
            # Exclusive prefetch-load recorded through the offload path.
            report.promotes += 1
            data = self._fetch(event, report, demand=False)
            if data is not None:
                self._verify(event, data, report)
            return
        report.upward_promotes += 1
        promote_up = getattr(self.target, "promote_up", None)
        if promote_up is not None:
            try:
                promote_up(event.vaddr)
            except TierUnavailableError:
                report.tier_unavailable_errors += 1
            except CorruptedBlobError:
                report.data_loss_events += 1
            return
        # Flat tiers have no "toward tier 0": emulate by exclusive-load
        # + re-store so residency after the event matches the pipeline.
        if not self.target.contains(event.vaddr):
            return
        data = self._fetch(event, report, demand=False)
        if data is None:
            return
        self._verify(event, data, report)
        try:
            outcome = self.target.swap_out(Page(vaddr=event.vaddr, data=data))
        except TierUnavailableError:
            report.tier_unavailable_errors += 1
            outcome = None
        if outcome is None or not outcome.accepted:
            self.spill[event.vaddr] = data

    def _replay_invalidate(self, event, report: ReplayReport) -> None:
        report.invalidates += 1
        self.spill.pop(event.vaddr, None)
        try:
            self.target.invalidate(event.vaddr)
        except TierUnavailableError:
            report.tier_unavailable_errors += 1

    # -- derived metrics ------------------------------------------------------

    def _finalize(self, report: ReplayReport) -> None:
        traffic = self.target.traffic
        report.bytes_moved = traffic.total_bytes
        report.channel_bytes = traffic.channel_bytes
        far_fetches = report.loads + report.promotes
        prefetch_hit = report.promotes / far_fetches if far_fetches else 0.0
        report.fault_rate = 1.0 - prefetch_hit if far_fetches else 0.0
        total_ops = max(1, report.events)
        config = AmatConfig(
            far_access_fraction=min(1.0, far_fetches / total_ops),
            prefetch_hit_rate=prefetch_hit,
        )
        tier = TierLatency(
            name=self.backend_name,
            fault_latency_s=self.target.swap_latency_s("in"),
        )
        report.amat_s = amat_s(config, tier)
        tiers_by_name = getattr(self.target, "tiers_by_name", None)
        if tiers_by_name is not None:
            for name, tier_obj in tiers_by_name().items():
                stats = tier_obj.stats
                report.per_tier[name] = {
                    "swap_outs": stats.swap_outs,
                    "swap_ins": stats.swap_ins,
                    "rejected": stats.rejected,
                    "stored_pages": tier_obj.stored_pages(),
                    "ledger_bytes": tier_obj.traffic.total_bytes,
                }
        registry = getattr(self.target, "registry", None)
        if registry is not None:
            from repro.telemetry.quantiles import collect_percentiles

            report.latency_percentiles = collect_percentiles(registry)
        if self.session is not None:
            self._export(report)

    def _export(self, report: ReplayReport) -> None:
        """Publish the run into the telemetry session (gauges + an
        annotation block in ``metrics.json``)."""
        session = self.session
        for name in (
            "events", "stores", "stores_accepted", "loads",
            "digest_mismatches", "missing_pages", "bytes_moved",
            "channel_bytes",
        ):
            session.registry.gauge(
                f"replay.{name}", scenario=self.trace.name
            ).set(getattr(report, name))
        session.add_stats("replay_target", self.target.stats)
        session.annotate("replay", report.as_dict())


def replay_trace(
    trace: ScenarioTrace,
    target: FarMemoryTier,
    **kwargs,
) -> ReplayReport:
    """One-shot convenience wrapper around :class:`TraceReplayer`."""
    return TraceReplayer(trace, target, **kwargs).run()


def format_report(doc: Dict[str, object]) -> str:
    """Human-readable summary of a :meth:`ReplayReport.as_dict` for the
    CLI."""
    lines = [f"replay: scenario={doc['scenario']} backend={doc['backend']}"]
    apart = ("scenario", "backend", "per_tier", "latency_percentiles")
    lines += [f"  {k:24s}: {doc[k]}" for k in sorted(doc) if k not in apart]
    if doc["per_tier"]:
        lines.append("  per-tier:")
        for name, counters in doc["per_tier"].items():
            rendered = " ".join(
                f"{key}={value}" for key, value in sorted(counters.items())
            )
            lines.append(f"    {name:12s}: {rendered}")
    if "latency_percentiles" in doc:
        from repro.analysis.report import format_latency_table

        lines.append("  latency percentiles:")
        table = format_latency_table(doc["latency_percentiles"])
        lines.extend("    " + line for line in table.splitlines())
    return "\n".join(lines)

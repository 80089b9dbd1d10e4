"""Event-driven XFM emulator: the engine behind Fig. 12.

Reproduces the paper's methodology (§7): the emulator skips actual
(de)compression byte work but runs the complete offload pipeline against
the refresh-window timing model — per-rank REF cadence, conditional vs
random access budgets per tRFC, SPM reservation with the driver's lazy
upper-bound tracking, Compress_Request_Queue back-pressure, and
``CPU_Fallback`` when resources are exhausted.

The pipeline itself (Fig. 10) is one rank's
:class:`~repro.core.refresh_channel.XfmDevice`; the emulator generates
its arrivals and feeds it the refresh windows as they fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro._units import SECONDS_PER_MINUTE
from repro.core.refresh_channel import XfmDevice
from repro.dram.device import DDR5_32GB, PAGE_SIZE, DramDeviceConfig, timings_for_device
from repro.dram.energy import AccessEnergyModel
from repro.dram.refresh import RefreshScheduler, make_refresh_policy
from repro.dram.timing import DramTimings
from repro.errors import ConfigError
from repro.sim import CLOCK as _sim_clock, EventScheduler


@dataclass(frozen=True)
class EmulatorConfig:
    """One Fig. 12 experiment point."""

    #: Far memory capacity across the whole system.
    sfm_capacity_bytes: float = 512e9
    #: Fraction of far memory promoted per minute (§2.1).
    promotion_rate: float = 1.0
    #: Fraction of promotions the controller offloads as prefetches; the
    #: remainder are demand faults that use the CPU path *by design* (§6)
    #: and do not count as fallbacks.
    decompress_offload_fraction: float = 0.5
    #: NMA accesses accommodated per tRFC (Fig. 12's 1 / 2 / 3 series).
    accesses_per_ref: int = 3
    #: Random accesses per tRFC (§7 methodology: 1).
    random_per_ref: int = 1
    #: ScratchPad Memory size per DIMM.
    spm_bytes: int = 8 * 1024 * 1024
    #: Compress_Request_Queue depth per DIMM.
    crq_depth: int = 512
    #: Assumed compression ratio for blob sizes.
    compression_ratio: float = 3.0
    #: System topology: ranks sharing the swap traffic.
    num_ranks: int = 8
    device: DramDeviceConfig = DDR5_32GB
    timings: Optional[DramTimings] = None
    #: SPM occupancy above which randoms fire eagerly.
    pressure_threshold: float = 0.5
    #: Simulated wall-clock per rank.
    sim_time_s: float = 0.25
    seed: int = 1234
    #: Refresh-window granulation: ``"all-bank"`` (default, §2.2) or
    #: ``"per-bank"`` (DDR5 FGR-style); None resolves the process
    #: default (the ``REPRO_REFRESH_POLICY`` environment variable).
    refresh_policy: Optional[str] = None

    def resolved_timings(self) -> DramTimings:
        return (
            self.timings
            if self.timings is not None
            else timings_for_device(self.device)
        )

    @property
    def blob_bytes(self) -> int:
        return max(64, int(PAGE_SIZE / self.compression_ratio))

    def ops_per_second_per_rank(self) -> tuple:
        """(compressions/s, offloaded decompressions/s) per rank."""
        pages_per_s = (
            self.sfm_capacity_bytes
            * self.promotion_rate
            / SECONDS_PER_MINUTE
            / PAGE_SIZE
        )
        per_rank = pages_per_s / self.num_ranks
        return per_rank, per_rank * self.decompress_offload_fraction


@dataclass
class EmulatorReport:
    """Outcome of one emulation run."""

    config: EmulatorConfig
    total_ops: int
    fallback_ops: int
    completed_ops: int
    conditional_accesses: int
    random_accesses: int
    spm_peak_bytes: int
    nma_bytes_moved: int
    sim_time_s: float
    nma_energy_j: float
    all_conditional_energy_j: float
    all_random_energy_j: float
    mean_latency_ms: float
    #: Completion-latency percentiles in ms (p50/p95/p99), empty when no
    #: op completed.
    latency_percentiles_ms: Dict[int, float] = None  # type: ignore[assignment]
    #: ``fallback_ops`` split by reason code; the same split the trace's
    #: ``cpu_fallback`` events carry, so the two reconcile exactly.
    fallback_spm_full: int = 0
    fallback_queue_full: int = 0

    @property
    def fallback_fraction(self) -> float:
        return self.fallback_ops / self.total_ops if self.total_ops else 0.0

    @property
    def random_fraction(self) -> float:
        total = self.conditional_accesses + self.random_accesses
        return self.random_accesses / total if total else 0.0

    @property
    def nma_bandwidth_bps(self) -> float:
        return self.nma_bytes_moved / self.sim_time_s

    @property
    def conditional_energy_saving(self) -> float:
        """Energy saved vs serving every access randomly (§8: ~10.1%)."""
        if self.all_random_energy_j <= 0:
            return 0.0
        return 1.0 - self.nma_energy_j / self.all_random_energy_j


def _arrival_counts(counts: np.ndarray) -> Sequence[int]:
    """Per-tREFI arrival counts in the form ``_simulate`` reads, one
    index per window: ``bytes`` when every count fits a byte (an eighth
    of the array's memory), else a list. Either hands back a plain int
    where the array would box a numpy scalar."""
    if counts.size and counts.max() > 255:
        return counts.tolist()
    return counts.astype(np.uint8).tobytes()


class XfmEmulator:
    """Per-rank refresh-window pipeline simulator."""

    def __init__(self, config: EmulatorConfig) -> None:
        if not 0.0 < config.promotion_rate <= 1.0:
            raise ConfigError("promotion_rate must be in (0, 1]")
        if config.compression_ratio < 1.0:
            # A blob larger than the 4 KiB writeback group could never
            # be grouped and would hold its SPM page for the whole run;
            # a page that does not compress is not an offload candidate.
            raise ConfigError("compression_ratio must be >= 1")
        self.config = config
        self.timings = config.resolved_timings()
        self.device = config.device
        self.refresh = RefreshScheduler(
            self.device,
            self.timings,
            policy=make_refresh_policy(
                config.refresh_policy, self.device, self.timings
            ),
        )
        self.energy_model = AccessEnergyModel()
        #: The last run's device (None before the first run).
        self.xfm_device: Optional[XfmDevice] = None

    def _spawn_rngs(self) -> tuple:
        """Independent child streams derived from ``cfg.seed`` via
        ``SeedSequence.spawn`` — one per consumer (arrival sampling,
        trace offload sampling, in-simulation row draws). Reseeding
        ``default_rng(cfg.seed)`` at each site would correlate the
        streams: arrival counts and target rows would be drawn from the
        *same* sequence, coupling load to placement."""
        arrival_seq, trace_seq, sim_seq = np.random.SeedSequence(
            self.config.seed
        ).spawn(3)
        return (
            np.random.default_rng(arrival_seq),
            np.random.default_rng(trace_seq),
            np.random.default_rng(sim_seq),
        )

    def run(self) -> EmulatorReport:
        """Synthetic mode: Poisson arrivals at the promotion-rate-implied
        per-rank operation rates (the Fig. 12 methodology)."""
        cfg = self.config
        arrival_rng, _, sim_rng = self._spawn_rngs()
        trefi_s = self.timings.trefi_ns / 1e9
        num_refs = int(cfg.sim_time_s / trefi_s)
        comp_rate, decomp_rate = cfg.ops_per_second_per_rank()
        # Converted as drawn, so no array outlives its conversion.
        comp_arrivals = _arrival_counts(
            arrival_rng.poisson(comp_rate * trefi_s, num_refs)
        )
        decomp_arrivals = _arrival_counts(
            arrival_rng.poisson(decomp_rate * trefi_s, num_refs)
        )
        return self._simulate(comp_arrivals, decomp_arrivals, rng=sim_rng)

    def run_trace(self, trace, time_scale: float = 1.0) -> EmulatorReport:
        """Trace-driven mode: replay a :class:`~repro.workloads.traces.
        SwapTrace` (e.g. from the AIFM web front-end, §7).

        ``time_scale`` compresses trace time: an event at ``t`` seconds
        arrives at REF index ``t / time_scale / tREFI``. Swap-outs become
        compression offloads; the configured
        ``decompress_offload_fraction`` of swap-ins become prefetch
        decompressions (the rest are demand faults on the CPU path and
        are not emulated).
        """
        from repro.workloads.traces import SWAP_IN, SWAP_OUT

        cfg = self.config
        if time_scale <= 0:
            raise ConfigError("time_scale must be positive")
        _, trace_rng, sim_rng = self._spawn_rngs()
        trefi_s = self.timings.trefi_ns / 1e9
        if not len(trace):
            return self._simulate(
                np.zeros(1, int), np.zeros(1, int), rng=sim_rng
            )
        start = trace.events[0].time_s
        duration = max(trace.duration_s, trefi_s * time_scale)
        num_refs = int(duration / time_scale / trefi_s) + 1
        comp_arrivals = np.zeros(num_refs, dtype=int)
        decomp_arrivals = np.zeros(num_refs, dtype=int)
        for event in trace:
            ref = min(
                num_refs - 1,
                int((event.time_s - start) / time_scale / trefi_s),
            )
            if event.kind == SWAP_OUT:
                comp_arrivals[ref] += 1
            elif event.kind == SWAP_IN and (
                trace_rng.random() < cfg.decompress_offload_fraction
            ):
                decomp_arrivals[ref] += 1
        return self._simulate(comp_arrivals, decomp_arrivals, rng=sim_rng)

    def _simulate(
        self, comp_arrivals, decomp_arrivals, rng=None
    ) -> EmulatorReport:
        cfg = self.config
        if rng is None:
            rng = self._spawn_rngs()[2]
        if isinstance(comp_arrivals, np.ndarray):
            comp_arrivals = _arrival_counts(comp_arrivals)
        if isinstance(decomp_arrivals, np.ndarray):
            decomp_arrivals = _arrival_counts(decomp_arrivals)
        num_refs = len(comp_arrivals)
        per_trefi = self.refresh.policy.windows_per_trefi
        # A fresh device per run: the requests an earlier run left
        # queued carry that run's ops, not this one's.
        device = self.xfm_device = XfmDevice(
            self.refresh,
            cfg.accesses_per_ref,
            cfg.random_per_ref,
            cfg.spm_bytes,
            cfg.crq_depth,
            cfg.blob_bytes,
            cfg.pressure_threshold,
            self.energy_model.nma_page_access_j,
            rng,
        )
        process_window = device.process_window

        def on_window(index: int) -> Optional[int]:
            """Refresh window ``index``, fired by the event core: the
            device serves it, with the tREFI bin's arrivals on the bin's
            first window. Every bin is entered at its first window: the
            stream moves one window on, or jumps to the first window of
            the bin named below. Returns the next window index this run
            needs (None = the next one)."""
            ref = index // per_trefi
            if index == ref * per_trefi:
                pending = process_window(
                    index, ref, comp_arrivals[ref], decomp_arrivals[ref]
                )
            else:
                pending = process_window(index, ref)

            # -- next-event time advance -----------------------------------
            # With nothing queued, no window before the next arrival can
            # change state: arrivals enter only on a bin's first window,
            # SPM occupancy (hence ``pressure``) only rises there, and
            # the device's coalesce loop has already run to its fixed
            # point.
            if pending:
                return None
            ref += 1
            while ref < num_refs and not (
                comp_arrivals[ref] or decomp_arrivals[ref]
            ):
                ref += 1
            return ref * per_trefi

        # -- event loop: windows arrive as scheduled events --------------
        # The refresh policy publishes its window stream onto the shared
        # discrete-event core; the NMA side consumes window indices as
        # they fire instead of iterating over windows. The clock scope
        # keeps the emulator's borrowed timeline from leaking into the
        # caller's (simulation runs are nestable like replays).
        horizon_ns = num_refs * self.timings.trefi_ns
        with _sim_clock.scoped(start_ns=0.0):
            events = EventScheduler(clock=_sim_clock)
            self.refresh.schedule_windows(events, horizon_ns, on_window)
            events.run()

        # Flush: remaining in-flight ops are neither fallbacks nor
        # completions; exclude them from latency statistics.
        latency_samples = device.latency_refs
        completed = len(latency_samples)
        fallbacks = device.fallbacks_spm + device.fallbacks_queue
        mean_latency_ms = (
            sum(latency_samples) * (self.timings.trefi_ns / 1e6) / completed
            if completed
            else 0.0
        )
        percentiles: Dict[int, float] = {}
        if latency_samples:
            refs_to_ms = self.timings.trefi_ns / 1e6
            quantiles = (50, 95, 99)
            values = np.percentile(
                np.frombuffer(latency_samples, dtype=np.int64), quantiles
            )
            for percentile, value in zip(quantiles, values):
                percentiles[percentile] = float(value * refs_to_ms)
        return EmulatorReport(
            config=cfg,
            total_ops=device.admitted + fallbacks,
            fallback_ops=fallbacks,
            completed_ops=completed,
            conditional_accesses=device.conditional,
            random_accesses=device.random_accesses,
            spm_peak_bytes=device.spm_peak,
            nma_bytes_moved=device.moved_bytes,
            sim_time_s=num_refs * (self.timings.trefi_ns / 1e9),
            nma_energy_j=device.energy_j,
            all_conditional_energy_j=device.all_conditional_energy_j,
            all_random_energy_j=device.all_random_energy_j,
            mean_latency_ms=mean_latency_ms,
            latency_percentiles_ms=percentiles,
            fallback_spm_full=device.fallbacks_spm,
            fallback_queue_full=device.fallbacks_queue,
        )


def fallback_sweep(
    spm_sizes_mib=(1, 2, 4, 8),
    accesses_per_ref=(1, 2, 3),
    promotion_rate: float = 1.0,
    **overrides,
) -> List[EmulatorReport]:
    """Run the Fig. 12 grid and return one report per point."""
    reports = []
    for spm_mib in spm_sizes_mib:
        for budget in accesses_per_ref:
            config = EmulatorConfig(
                promotion_rate=promotion_rate,
                spm_bytes=int(spm_mib * 1024 * 1024),
                accesses_per_ref=budget,
                **overrides,
            )
            reports.append(XfmEmulator(config).run())
    return reports

"""Event-driven XFM emulator: the engine behind Fig. 12.

Reproduces the paper's methodology (§7): the emulator skips actual
(de)compression byte work but runs the complete offload pipeline against
the refresh-window timing model — per-rank REF cadence, conditional vs
random access budgets per tRFC, SPM reservation with the driver's lazy
upper-bound tracking, Compress_Request_Queue back-pressure, and
``CPU_Fallback`` when resources are exhausted.

Pipeline per offload (Fig. 10):

1. *arrival* — the backend reserves SPM (driver upper bound) and a CRQ
   slot; failure of either is a CPU fallback.
2. *read* — the input is fetched during a refresh window. Compression
   reads are *slot-flexible*: cold candidates vastly outnumber the access
   budget (30% of memory is cold in Google's fleet, §3.1), so the
   controller always has candidates whose rows are refreshing right now —
   conditional by construction. Decompression (prefetch) reads target the
   *fixed* rows where the blobs live: they are served conditionally when
   their refresh slot comes up, or by the budgeted random slots
   (1 per tRFC) when the scheduler has leftover budget — this is why the
   random-access rate scales with the promotion rate (Fig. 12).
3. *engine* — (de)compression runs between windows (engine throughput far
   exceeds the side channel's bandwidth, §8).
4. *writeback* — compressed blobs are placement-flexible and coalesce into
   4 KiB groups written into whatever rows are refreshing; decompressed
   pages go to freshly allocated frames, also placement-flexible.
5. *release* — SPM bytes return on writeback completion.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from repro._units import SECONDS_PER_MINUTE
from repro.core.refresh_channel import AccessKind, WindowScheduler
from repro.dram.device import DDR5_32GB, PAGE_SIZE, DramDeviceConfig, timings_for_device
from repro.dram.energy import AccessEnergyModel
from repro.dram.refresh import RefreshScheduler, make_refresh_policy
from repro.dram.timing import DramTimings
from repro.errors import ConfigError
from repro.sim import CLOCK as _sim_clock, EventScheduler
from repro.telemetry import reasons, trace as _trace
from repro.validation.hooks import checkpoint, validation_enabled


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
        self.scheduler = self._new_scheduler()
        self.energy_model = AccessEnergyModel()

    def _new_scheduler(self) -> WindowScheduler:
        return WindowScheduler(
            refresh=self.refresh,
            accesses_per_ref=self.config.accesses_per_ref,
            random_per_ref=self.config.random_per_ref,
        )

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
        rows = self.device.rows_per_bank

        spm_capacity = cfg.spm_bytes
        spm_used = 0
        spm_peak = 0
        crq_used = 0

        # An op is ``(op_id, is_compress, arrival_ref)`` and holds one
        # page of SPM (its input or output page) from admission to
        # writeback. It rides its read request as the request's owner; a
        # writeback's owner is the list of ops it completes.
        next_op = 1
        #: compress ops whose blobs await writeback grouping.
        flex_buffer: Deque[tuple] = deque()
        flex_buffer_bytes = 0

        total_ops = 0
        fallbacks = 0
        fallbacks_spm = 0
        fallbacks_queue = 0
        completed = 0
        conditional = 0
        random_count = 0
        moved_bytes = 0
        energy = 0.0
        energy_all_random = 0.0
        energy_all_conditional = 0.0
        latency_refs_sum = 0.0
        latency_samples = array("q")

        blob = cfg.blob_bytes
        group_limit = PAGE_SIZE
        crq_depth = cfg.crq_depth
        pressure_threshold = cfg.pressure_threshold
        trace_on = _trace.tracing_enabled()
        # A fresh scheduler per run: the requests an earlier run left
        # queued carry that run's ops, not this one's.
        scheduler = self.scheduler = self._new_scheduler()
        submit = scheduler.submit
        drain_window = scheduler.drain_window
        READ, WRITE = AccessKind.READ, AccessKind.WRITE
        per_trefi = self.refresh.policy.windows_per_trefi
        banked = per_trefi > 1
        num_banks = per_trefi
        nma_access_j = self.energy_model.nma_page_access_j
        #: nbytes -> (random, conditional) access energy; a run moves a
        #: handful of distinct sizes (page, blob, blob groups).
        access_energy: Dict[int, tuple] = {}

        def inject_arrivals(ref: int) -> None:
            """Admit this tREFI interval's offload arrivals (SPM + CRQ
            admission control; either failing is a CPU fallback)."""
            nonlocal total_ops, fallbacks, fallbacks_spm, fallbacks_queue
            nonlocal spm_used, spm_peak, crq_used, next_op
            for is_compress, count in (
                (True, comp_arrivals[ref]),
                (False, decomp_arrivals[ref]),
            ):
                for _ in range(count):
                    total_ops += 1
                    if spm_used + PAGE_SIZE > spm_capacity:
                        fallbacks += 1
                        fallbacks_spm += 1
                        if trace_on:
                            _trace.fallback(
                                reasons.SPM_FULL,
                                "compress" if is_compress else "decompress",
                                ref=ref,
                            )
                        continue
                    if crq_used >= crq_depth:
                        fallbacks += 1
                        fallbacks_queue += 1
                        if trace_on:
                            _trace.fallback(
                                reasons.QUEUE_FULL,
                                "compress" if is_compress else "decompress",
                                ref=ref,
                            )
                        continue
                    spm_used += PAGE_SIZE
                    if spm_used > spm_peak:
                        spm_peak = spm_used
                    crq_used += 1
                    op = (next_op, is_compress, ref)
                    next_op += 1
                    if is_compress:
                        # Cold candidates are abundant: the controller picks
                        # one whose row is refreshing -> slot-flexible.
                        request = submit(READ, None, ref, PAGE_SIZE, None, op)
                    else:
                        # The blob's location is fixed.
                        row = int(rng.integers(0, rows))
                        # Per-bank windows serve fixed rows only in the
                        # refreshing bank, so the blob's bank matters;
                        # the extra draw happens only under a banked
                        # policy (the all-bank RNG stream is untouched).
                        bank = (
                            int(rng.integers(0, num_banks)) if banked else None
                        )
                        request = submit(READ, row, ref, blob, bank, op)
                    if trace_on:
                        _trace.instant(
                            "offload_enqueue",
                            _trace.TRACK_NMA,
                            args={
                                "op_id": op[0],
                                "kind": "compress"
                                if is_compress
                                else "decompress",
                                "request_id": request.request_id,
                            },
                        )

        last_bin = -1

        def process_window(window) -> Optional[int]:
            """One refresh window fired by the event core: admit the new
            tREFI bin's arrivals (first window of the bin), drain the
            window, coalesce writebacks, checkpoint invariants — the
            exact sequence the legacy per-REF loop ran inline. Returns
            the next window index this run needs (None = the next one)."""
            nonlocal last_bin, spm_used, crq_used, flex_buffer_bytes
            nonlocal completed, conditional, random_count, moved_bytes
            nonlocal energy, energy_all_random, energy_all_conditional
            nonlocal latency_refs_sum
            ref = window.ref_index // per_trefi
            if ref != last_bin:
                last_bin = ref
                inject_arrivals(ref)
            # -- drain one refresh window ----------------------------------
            pressure = spm_used / spm_capacity >= pressure_threshold
            for request in drain_window(window, pressure):
                nbytes = request.nbytes
                moved_bytes += nbytes
                joules = access_energy.get(nbytes)
                if joules is None:
                    joules = access_energy[nbytes] = (
                        nma_access_j(nbytes, conditional=False),
                        nma_access_j(nbytes, conditional=True),
                    )
                random_j, conditional_j = joules
                energy_all_random += random_j
                energy_all_conditional += conditional_j
                if request.conditional:
                    energy += conditional_j
                    conditional += 1
                else:
                    energy += random_j
                    random_count += 1

                if request.kind is READ:
                    # Read done -> engine (fast, §8) -> schedule writeback
                    # at the next window.
                    op = request.owner
                    crq_used -= 1
                    if op[1]:
                        flex_buffer.append(op)
                        flex_buffer_bytes += blob
                    else:
                        # The promoted page lands in a freshly allocated
                        # frame: placement-flexible writeback.
                        submit(WRITE, None, ref, PAGE_SIZE, None, [op])
                    continue
                for op_id, is_compress, arrival_ref in request.owner:
                    spm_used -= PAGE_SIZE
                    completed += 1
                    latency = ref - arrival_ref
                    latency_refs_sum += latency
                    latency_samples.append(latency)
                    if trace_on:
                        _trace.instant(
                            "offload_complete",
                            _trace.TRACK_NMA,
                            args={
                                "op_id": op_id,
                                "kind": "compress"
                                if is_compress
                                else "decompress",
                                "latency_refs": latency,
                            },
                        )

            # -- coalesce compressed blobs into flexible writebacks ---------
            while flex_buffer_bytes >= group_limit or (
                flex_buffer and pressure
            ):
                group: List[tuple] = []
                group_bytes = 0
                while flex_buffer and group_bytes + blob <= group_limit:
                    group.append(flex_buffer.popleft())
                    group_bytes += blob
                if not group:
                    break
                flex_buffer_bytes -= group_bytes
                submit(WRITE, None, ref, group_bytes, None, group)

            if validation_enabled():
                checkpoint(scheduler)
                self._check_window_state(
                    spm_used=spm_used,
                    crq_used=crq_used,
                    flex_buffer=flex_buffer,
                    flex_buffer_bytes=flex_buffer_bytes,
                    ref=ref,
                )

            # -- next-event time advance -----------------------------------
            # With nothing queued, no window before the next arrival can
            # change state: arrivals enter only on a bin's first window,
            # SPM occupancy (hence ``pressure``) only rises there, and
            # the coalesce loop above has already run to its fixed point.
            if scheduler.pending_count:
                return None
            ref += 1
            while ref < num_refs and not (
                comp_arrivals[ref] or decomp_arrivals[ref]
            ):
                ref += 1
            return ref * per_trefi

        # -- event loop: windows arrive as scheduled events --------------
        # The refresh policy publishes its window stream onto the shared
        # discrete-event core; the NMA side consumes windows as they
        # fire instead of deriving them arithmetically. The clock scope
        # keeps the emulator's borrowed timeline from leaking into the
        # caller's (simulation runs are nestable like replays).
        horizon_ns = num_refs * self.timings.trefi_ns
        with _sim_clock.scoped(start_ns=0.0):
            events = EventScheduler(clock=_sim_clock)
            self.refresh.schedule_windows(events, horizon_ns, process_window)
            events.run()

        # Flush: remaining in-flight ops are neither fallbacks nor
        # completions; exclude them from latency statistics.
        mean_latency_ms = (
            latency_refs_sum * (self.timings.trefi_ns / 1e6) / completed
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
            total_ops=total_ops,
            fallback_ops=fallbacks,
            completed_ops=completed,
            conditional_accesses=conditional,
            random_accesses=random_count,
            spm_peak_bytes=spm_peak,
            nma_bytes_moved=moved_bytes,
            sim_time_s=num_refs * (self.timings.trefi_ns / 1e9),
            nma_energy_j=energy,
            all_conditional_energy_j=energy_all_conditional,
            all_random_energy_j=energy_all_random,
            mean_latency_ms=mean_latency_ms,
            latency_percentiles_ms=percentiles,
            fallback_spm_full=fallbacks_spm,
            fallback_queue_full=fallbacks_queue,
        )

    def _check_window_state(
        self,
        spm_used: int,
        crq_used: int,
        flex_buffer,
        flex_buffer_bytes: int,
        ref: int,
    ) -> None:
        """Per-window resource-accounting invariants (validation mode).

        The SPM/CRQ counters are the emulator's whole resource model —
        a drift here silently shifts every fallback curve in Fig. 12.
        They are recounted from where the ops actually are: a queued
        read (which also holds the op's CRQ slot), the flex buffer, or
        a queued writeback group.
        """
        from repro.validation.invariants import InvariantViolation

        cfg = self.config
        if not 0 <= spm_used <= cfg.spm_bytes:
            raise InvariantViolation(
                f"emulator: SPM occupancy {spm_used} outside "
                f"[0, {cfg.spm_bytes}] at REF {ref}"
            )
        if not 0 <= crq_used <= cfg.crq_depth:
            raise InvariantViolation(
                f"emulator: CRQ occupancy {crq_used} outside "
                f"[0, {cfg.crq_depth}] at REF {ref}"
            )
        if flex_buffer_bytes != len(flex_buffer) * cfg.blob_bytes:
            raise InvariantViolation(
                f"emulator: flex buffer accounts {flex_buffer_bytes} bytes "
                f"for {len(flex_buffer)} blobs of {cfg.blob_bytes} at "
                f"REF {ref}"
            )
        reads = writing = 0
        for request in self.scheduler.queued():
            if request.kind is AccessKind.READ:
                reads += 1
            else:
                writing += len(request.owner)
        if reads != crq_used:
            raise InvariantViolation(
                f"emulator: {reads} reads queued but CRQ counter says "
                f"{crq_used} at REF {ref}"
            )
        in_flight = reads + len(flex_buffer) + writing
        if in_flight * PAGE_SIZE != spm_used:
            raise InvariantViolation(
                f"emulator: {in_flight} ops in flight reserve "
                f"{in_flight * PAGE_SIZE} bytes but SPM counter says "
                f"{spm_used} at REF {ref}"
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

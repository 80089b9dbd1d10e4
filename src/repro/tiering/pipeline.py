"""TierPipeline: ordered far-memory tiers under one policy engine.

Composes an ordered list of :class:`~repro.tiering.protocol.
FarMemoryTier` instances (e.g. CPU-zswap -> XFM -> DFM) into a single
tier (the composite itself satisfies the protocol, so the AIFM runtime,
the zswap frontend, and the examples can run over a pipeline unchanged):

* **store fall-through** — a page rejected at tier N (incompressible,
  pool-full, admission denied) falls through to tier N+1; only when
  every tier rejects does the pipeline report ``all-tiers-rejected``.
* **demotion** — after each store the demotion policy is consulted per
  tier; while a tier sits above its watermark its LRU-coldest entries
  sink to the next tier down (TierScape's cold-data cascade).
* **promotion** — loads bring a page back to local DRAM from whichever
  tier holds it; :meth:`promote_up` additionally lets hot blobs climb
  back to tier 0 without leaving far memory.

One path each: every page leaves a tier through ``_take``, which
counts tier errors and data losses; every timed op goes through the op
timer ``_timed``, the only reader of a tier's modelled latency; the
policy cascade and :meth:`demote_coldest` share one loop, ``_demote``.

Accounting: every tier keeps registry-bound ``SwapStats`` and
``TrafficStats`` (labelled ``tier=<name>`` when built through
:meth:`TierPipeline.build`); the pipeline exposes merged ``stats`` and
``traffic`` views and its own ``tier_pipeline.*`` counters, so per-tier
traffic reconciles 1:1 against per-tier byte counters.
Trace spans (``tier_store``/``tier_load``/``tier_demote``/
``tier_promote`` on the ``tiering`` track) reuse the
:mod:`repro.telemetry.reasons` codes; the end-to-end latency quantiles
they observe are simulated-time durations measured on the shared
:data:`repro.sim.CLOCK` (every backend charges its modeled cost there),
so pipeline latency accounting is on the same timeline as refresh
windows, backoff charges, and replayed traces.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.backend import XfmBackend
from repro.dfm.backend import DfmBackend
from repro.errors import (
    ConfigError,
    CorruptedBlobError,
    SfmError,
    TierUnavailableError,
)
from repro.resilience.breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.sfm.backend import SfmBackend
from repro.sfm.metrics import SwapStats, TrafficStats
from repro.sfm.page import PAGE_SIZE, Page
from repro.telemetry import flightrec as _flightrec
from repro.telemetry import reasons, spans as _spans, trace as _trace
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.stats import Stats
from repro.tiering.policy import (
    AdmissionPolicy,
    AlwaysAdmit,
    DemotionPolicy,
    LruDemotion,
)
from repro.tiering.protocol import FarMemoryTier, SwapOutcome
from repro.validation.hooks import checkpoint

#: Trace track for pipeline-level events (tier data paths keep their
#: own cpu/nma tracks; this one shows placement decisions).
TRACK_TIER = "tiering"


class PipelineStats(Stats):
    """Placement/movement counters of one pipeline (plain fields,
    registry views)."""

    _PREFIX = "tier_pipeline"
    _FIELDS = {
        "stores": 0,
        # A store that was refused at one tier and moved on to the next.
        "store_fallthroughs": 0,
        "store_rejects": 0,
        "loads": 0,
        # Loads served through the offload-preferred promote() path.
        "prefetch_loads": 0,
        "demotions": 0,
        "demotion_failures": 0,
        "promotions": 0,
        "promotions_blocked": 0,
        "invalidates": 0,
        # Pages handed to the spill callback (no tier would hold them).
        "spills": 0,
        # Spill callbacks that raised: counted, never allowed to desync
        # the pipeline's bookkeeping mid-cascade.
        "spill_callback_errors": 0,
        # Store attempts routed around a quarantined (breaker-open) tier.
        "quarantine_skips": 0,
        # Tier operations that raised (TierUnavailable/CorruptedBlob),
        # i.e. the breakers' failure feed.
        "tier_errors": 0,
        # Pages whose contents were lost to unrecoverable corruption —
        # always surfaced as CorruptedBlobError, never silent.
        "data_loss_events": 0,
        # Pages relocated out of a quarantined tier by drain_tier().
        "drained_pages": 0,
    }
    __slots__ = tuple(_FIELDS)

#: SwapOutcome rejection reasons that indicate a *failing* tier (feed
#: the circuit breaker) rather than a full/ineligible one (normal
#: capacity control flow).
FAILURE_REASONS = frozenset({"link-error", "device-fault"})

#: Victims swapped in per demotion round before any is placed. The round
#: is the unit of the ``demote_round`` span, of the ``op=demote``
#: latency quantile and of stop-after-bounce; placement inside it is per
#: page. Changing it moves SLO and chaos reports, so it is a model
#: constant, not a knob.
DEMOTE_BATCH_PAGES = 8


def _named(
    tiers: Sequence[Union[FarMemoryTier, Tuple[str, FarMemoryTier]]],
) -> List[Tuple[str, FarMemoryTier]]:
    named: List[Tuple[str, FarMemoryTier]] = []
    for index, item in enumerate(tiers):
        if isinstance(item, tuple):
            name, tier = item
        else:
            tier = item
            name = getattr(tier, "tier_name", None) or f"tier{index}"
        named.append((str(name), tier))
    names = [name for name, _ in named]
    if len(set(names)) != len(names):
        raise ConfigError(f"tier names must be unique, got {names}")
    return named


def _breaker_transition(
    registry: MetricsRegistry,
    labels: Dict[str, str],
    breaker: CircuitBreaker,
    old: BreakerState,
    new: BreakerState,
) -> None:
    """A pipeline's breaker ``on_transition`` hook (bound with
    :func:`functools.partial` to its registry and trace labels)."""
    registry.counter(
        "tier_breaker.transitions",
        tier=breaker.name, to=new.value, **labels,
    ).inc()
    if _trace.tracing_enabled():
        args = {"tier": breaker.name, "from": old.value,
                "to": new.value,
                "error_rate": round(breaker.error_rate(), 4)}
        args.update(labels)
        _trace.instant("tier_breaker", TRACK_TIER, args=args)
    if new is BreakerState.OPEN:
        # Black-box dump: the last thing an operator has when a tier
        # goes dark is whatever led up to the breaker opening.
        detail = {
            "tier": breaker.name,
            "from": old.value,
            "error_rate": round(breaker.error_rate(), 4),
        }
        detail.update(labels)
        _flightrec.trigger(_flightrec.REASON_BREAKER_OPEN, detail)


def _breaker_probe(
    registry: MetricsRegistry,
    labels: Dict[str, str],
    breaker: CircuitBreaker,
    ok: bool,
) -> None:
    """A pipeline's breaker ``on_probe`` hook (see
    :func:`_breaker_transition`)."""
    registry.counter(
        "tier_breaker.probe_results",
        tier=breaker.name,
        result="success" if ok else "failure",
        **labels,
    ).inc()
    if _trace.tracing_enabled():
        args = {"tier": breaker.name,
                "result": "success" if ok else "failure"}
        args.update(labels)
        _trace.instant("tier_breaker_probe", TRACK_TIER, args=args)


class TierPipeline:
    """An ordered chain of far-memory tiers behaving as one tier."""

    tier_name = "pipeline"

    def __init__(
        self,
        tiers: Sequence[Union[FarMemoryTier, Tuple[str, FarMemoryTier]]],
        admission: Optional[AdmissionPolicy] = None,
        demotion: Optional[DemotionPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        spill: Optional[Callable[[int, bytes], None]] = None,
        breaker_config: Optional[BreakerConfig] = None,
        trace_labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """``spill(vaddr, data)``, when provided, receives pages that no
        tier would hold during a demotion cascade (the pipeline analogue
        of zswap's writeback-to-swap-device). ``breaker_config`` tunes
        the per-tier circuit breakers (closed/open/half-open health
        tracking; see :mod:`repro.resilience.breaker`). ``trace_labels``
        (e.g. ``{"shard": "shard-2"}``) are merged into every breaker
        counter, trace instant, and flight-recorder detail this pipeline
        emits, so a fleet of pipelines stays distinguishable on one
        timeline."""
        named = _named(tiers)
        if not named:
            raise ConfigError("pipeline needs at least one tier")
        self.tier_names: List[str] = [name for name, _ in named]
        self.tiers: List[FarMemoryTier] = [tier for _, tier in named]
        self.admission = admission if admission is not None else AlwaysAdmit()
        self.demotion = demotion if demotion is not None else LruDemotion()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spill = spill
        self.trace_labels: Dict[str, str] = dict(trace_labels or {})
        self.pipeline_stats = PipelineStats(registry=self.registry)
        #: Per-tier health breakers; an OPEN breaker quarantines its
        #: tier (stores route around it, cool-down ticks per skipped
        #: operation, then a half-open probe re-tests it). Their hooks
        #: hold the registry and labels, not the pipeline, so a
        #: pipeline is freed by refcount, not by a full collection.
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(
                name,
                config=breaker_config,
                on_transition=partial(
                    _breaker_transition, self.registry, self.trace_labels
                ),
                on_probe=partial(
                    _breaker_probe, self.registry, self.trace_labels
                ),
            )
            for name in self.tier_names
        ]
        #: vaddr -> index of the tier holding it.
        self._where: Dict[int, int] = {}
        #: Per-tier LRU: oldest store first (the demotion victim order).
        self._lru: List["OrderedDict[int, Page]"] = [
            OrderedDict() for _ in named
        ]
        #: Keyed-API bookkeeping: key -> Page.
        self._keyed: Dict[int, Page] = {}
        #: vaddrs lost to unrecoverable corruption: a later access gets
        #: an explicit CorruptedBlobError instead of a lookup miss.
        self._poisoned: Set[int] = set()
        #: End-to-end latency quantiles per op class (simulated ns),
        #: recorded only under tracing; cached for the hot path.
        self._lat = {
            op: self.registry.quantile(
                "op_latency_ns", op=op, tier="pipeline"
            )
            for op in ("store", "load", "prefetch", "demote")
        }

    def _record_tier_error(self, index: int) -> None:
        self.breakers[index].record_failure()
        self.pipeline_stats.tier_errors += 1

    # -- construction helpers ----------------------------------------------

    @classmethod
    def build(
        cls,
        cpu_capacity_bytes: int,
        xfm_capacity_bytes: int,
        dfm_capacity_bytes: int,
        registry: Optional[MetricsRegistry] = None,
        **kwargs,
    ) -> "TierPipeline":
        """The canonical 3-tier stack: CPU-zswap -> XFM -> DFM, all
        three homed in one shared registry with ``tier=<name>`` labels.
        """
        registry = registry if registry is not None else MetricsRegistry()
        tiers = [
            SfmBackend(
                capacity_bytes=cpu_capacity_bytes,
                registry=registry,
                tier="cpu-zswap",
            ),
            XfmBackend(
                capacity_bytes=xfm_capacity_bytes,
                registry=registry,
                tier="xfm",
            ),
            DfmBackend(
                capacity_bytes=dfm_capacity_bytes,
                registry=registry,
                tier="dfm",
            ),
        ]
        return cls(tiers, registry=registry, **kwargs)

    # -- tier lookup --------------------------------------------------------

    def tier_of(self, vaddr: int) -> Optional[str]:
        index = self._where.get(vaddr)
        return None if index is None else self.tier_names[index]

    def tiers_by_name(self) -> Dict[str, FarMemoryTier]:
        return dict(zip(self.tier_names, self.tiers))

    # -- protocol: capacity -------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return sum(tier.capacity_bytes for tier in self.tiers)

    def stored_pages(self) -> int:
        return len(self._where)

    def used_bytes(self) -> int:
        return sum(tier.used_bytes() for tier in self.tiers)

    def effective_bytes_freed(self) -> int:
        return sum(tier.effective_bytes_freed() for tier in self.tiers)

    def contains(self, vaddr: int) -> bool:
        return vaddr in self._where

    # -- protocol: accounting views ----------------------------------------

    @property
    def stats(self) -> SwapStats:
        """Merged ``SwapStats`` across every tier (a fresh, unbound
        object per access — a reporting view, not a counter home)."""
        return SwapStats.merged([tier.stats for tier in self.tiers])

    @property
    def traffic(self) -> TrafficStats:
        """Merged ``TrafficStats`` across every tier (fresh and unbound,
        like :attr:`stats`)."""
        return TrafficStats.merged([tier.traffic for tier in self.tiers])

    def metrics_snapshot(self) -> Dict[str, object]:
        """One flat snapshot over the pipeline registry plus any tier
        that keeps a private registry."""
        merged = MetricsRegistry()
        merged.merge(self.registry)
        for tier in self.tiers:
            tier_registry = getattr(tier, "registry", None)
            if tier_registry is not None and tier_registry is not self.registry:
                merged.merge(tier_registry)
        return merged.snapshot()

    # -- the op timer ---------------------------------------------------------

    def _timed(self, op: str, span: str, args: Dict[str, object], cost,
               body, *body_args):
        """The op timer: run ``body(*body_args)`` under a ``span`` on the
        tiering track (closed even when the body raises), then observe
        the ``op`` latency quantile. ``cost(result)`` returns ``(pages,
        legs, extra)``: the span closes with the ``extra`` args, and when
        it measured no simulated time (pure device-side work) the
        observation falls back to ``pages`` times the modelled latency of
        ``legs``, ``(tier index, direction)`` pairs queried only then and
        in that order (a DFM query draws a fault site). ``pages`` of
        ``None`` observes nothing."""
        handle = _spans.begin(span, TRACK_TIER, args=args)
        try:
            result = body(*body_args)
        except BaseException:
            _spans.end(handle)
            raise
        pages, legs, extra = cost(result)
        dur_ns = _spans.end(handle, extra)
        if pages is None:
            return result
        if dur_ns <= 0.0 and pages:
            dur_ns = sum(
                self.tiers[index].swap_latency_s(direction)
                for index, direction in legs
            ) * pages * 1e9
        if dur_ns > 0.0:
            self._lat[op].observe(dur_ns)
        return result

    # -- store: admission + fall-through ------------------------------------

    def swap_out(self, page: Page) -> SwapOutcome:
        """Place a page at the highest tier that takes it, then let the
        demotion policy cascade cold entries downward."""
        if not _trace.tracing_enabled():
            return self._swap_out_impl(page)

        def cost(outcome: SwapOutcome):
            # The tier holding the page now (unless the cascade spilled
            # it) stands in with its modelled swap-out.
            index = self._where.get(page.vaddr) if outcome.accepted else None
            return (0 if index is None else 1), ((index, "out"),), None

        # The store span roots the causality tree: the tier rejects,
        # demotion rounds, device offloads, and CPU fallbacks this store
        # causes all export as its children.
        return self._timed(
            "store", "pipeline_store", {"vaddr": page.vaddr}, cost,
            self._swap_out_impl, page,
        )

    def _swap_out_impl(self, page: Page) -> SwapOutcome:
        # A fresh store of a vaddr supersedes any earlier poison marker.
        self._poisoned.discard(page.vaddr)
        outcome, _ = self._place(page, start=0)
        if outcome.accepted:
            self.pipeline_stats.stores += 1
            # The demotion policy: every tier but the last that sits over
            # pressure sinks its LRU victims downward.
            for index in range(len(self.tiers) - 1):
                if self._lru[index] and self.demotion.should_demote(
                    self.tiers[index]
                ):
                    self._demote(index, math.inf, True)
        else:
            self.pipeline_stats.store_rejects += 1
        checkpoint(self)
        return outcome

    def _place(
        self, page: Page, start: int, skip: Optional[int] = None
    ) -> Tuple[SwapOutcome, int]:
        """Try tiers ``start..N`` in order; bookkeeps the first accept.

        A tier whose breaker refuses the operation (OPEN, cooling down)
        is routed around like a rejection; ``skip`` excludes one tier
        outright (used by :meth:`drain_tier` to keep relocations out of
        the tier being drained).
        """
        # CPU cycles of the last tier that rejected the page.
        cpu_cycles = 0.0
        trace_on = _trace.tracing_enabled()
        for index in range(start, len(self.tiers)):
            if index == skip:
                continue
            tier = self.tiers[index]
            if not self.breakers[index].allow():
                self.pipeline_stats.quarantine_skips += 1
                refusal = "quarantined"
            elif not self.admission.admit(tier):
                refusal = "admission_denied"
            else:
                try:
                    tier_outcome = tier.swap_out(page)
                except TierUnavailableError:
                    # Treat an outright-unreachable tier as a failing
                    # reject and keep falling through.
                    self._record_tier_error(index)
                    tier_outcome = SwapOutcome(False, "device-fault")
                if tier_outcome.accepted:
                    self.breakers[index].record_success()
                    self._where[page.vaddr] = index
                    self._lru[index][page.vaddr] = page
                    if trace_on:
                        self._store_instant(
                            index, "stored", page, tier_outcome.compressed_len
                        )
                    return tier_outcome, index
                if tier_outcome.reason in FAILURE_REASONS:
                    self.breakers[index].record_failure()
                refusal = f"reject_{tier_outcome.reason}"
                cpu_cycles = tier_outcome.cpu_cycles
            self.pipeline_stats.store_fallthroughs += 1
            if trace_on:
                self._store_instant(index, refusal, page)
        return (
            SwapOutcome(False, "all-tiers-rejected", 0, cpu_cycles),
            -1,
        )

    def _store_instant(self, index: int, outcome: str, page: Page,
                       compressed_len: Optional[int] = None) -> None:
        """The ``tier_store`` instant: what tier ``index`` did with a page
        offered to it (and, once stored, its compressed size)."""
        args = {"tier": self.tier_names[index], "outcome": outcome,
                "vaddr": page.vaddr}
        if compressed_len is not None:
            args["compressed_len"] = compressed_len
        _trace.instant("tier_store", TRACK_TIER, args=args)

    def _move_instant(
        self, event: str, src: int, dst: int, vaddr: int
    ) -> None:
        """A page moved from tier ``src`` to tier ``dst``."""
        _trace.instant(
            event, TRACK_TIER,
            args={"from": self.tier_names[src],
                  "to": self.tier_names[dst], "vaddr": vaddr},
        )

    # -- load: promotion to DRAM --------------------------------------------

    def _take(
        self, index: int, page: Page, demand: bool, credit: bool = True
    ) -> bytes:
        """The one way out of a tier: take ``page`` out of tier ``index``
        by its demand path (``demand``) or its offload-preferred
        ``promote``, and drop the mapping once the tier handed the data
        back, crediting its breaker unless ``credit`` is false. A
        transient :class:`TierUnavailableError` leaves the page in place
        (the call can be repeated); an unrecoverable
        :class:`CorruptedBlobError` drops it and counts a data loss, never
        a silent miss. Both count a tier error and re-raise; poisoning
        the vaddr is the caller's choice."""
        tier = self.tiers[index]
        try:
            data = tier.swap_in(page) if demand else tier.promote(page)
        except TierUnavailableError:
            self._record_tier_error(index)
            raise
        except CorruptedBlobError:
            self._record_tier_error(index)
            self.pipeline_stats.data_loss_events += 1
            del self._where[page.vaddr]
            self._lru[index].pop(page.vaddr, None)
            raise
        if credit:
            self.breakers[index].record_success()
        del self._where[page.vaddr]
        self._lru[index].pop(page.vaddr, None)
        return data

    def _load(
        self, page: Page, demand: bool, op: str, reason: str, counter: str
    ) -> bytes:
        """The one load body behind :meth:`swap_in` and :meth:`promote`:
        take the page out of whichever tier holds it, count it in the
        ``counter`` field and trace it as ``op`` for ``reason``. A load
        never poisons: a corrupted page is dropped and the caller told."""
        vaddr = page.vaddr
        if vaddr in self._poisoned:
            # The page was lost to unrecoverable corruption earlier;
            # surface that explicitly rather than as a lookup miss.
            self._poisoned.discard(vaddr)
            raise CorruptedBlobError(
                f"page 0x{vaddr:x} was lost to unrecoverable "
                "corruption (poisoned)",
                vaddr=vaddr,
            )
        index = self._where.get(vaddr)
        if index is None:
            raise SfmError(f"page 0x{vaddr:x} is not in any pipeline tier")
        trace_on = _trace.tracing_enabled()
        try:
            if trace_on:
                data = self._timed(
                    op, "pipeline_" + op,
                    {"vaddr": vaddr, "tier": self.tier_names[index]},
                    lambda data: (1, ((index, "in"),), None),
                    self._take, index, page, demand,
                )
            else:
                data = self._take(index, page, demand)
        except CorruptedBlobError:
            checkpoint(self)
            raise
        stats = self.pipeline_stats
        setattr(stats, counter, getattr(stats, counter) + 1)
        if trace_on:
            _trace.instant(
                "tier_load", TRACK_TIER,
                args={"tier": self.tier_names[index], "reason": reason,
                      "vaddr": vaddr},
            )
        checkpoint(self)
        return data

    def swap_in(self, page: Page) -> bytes:
        """Demand load: fetch from whichever tier holds the page."""
        return self._load(page, True, "load", reasons.DEMAND_FAULT, "loads")

    def promote(self, page: Page) -> bytes:
        """Prefetch-style load through the holding tier's offload path."""
        return self._load(
            page, False, "prefetch", "prefetch", "prefetch_loads"
        )

    def invalidate(self, vaddr: int) -> bool:
        index = self._where.pop(vaddr, None)
        if index is None:
            return False
        self._lru[index].pop(vaddr, None)
        self.tiers[index].invalidate(vaddr)
        self.pipeline_stats.invalidates += 1
        checkpoint(self)
        return True

    # -- demotion / upward promotion ----------------------------------------

    def _demote(self, index: int, count: float, policy: bool) -> int:
        """The one demotion loop: sink up to ``count`` LRU pages out of
        tier ``index`` in rounds of up to :data:`DEMOTE_BATCH_PAGES`,
        while the tier holds pages and, under ``policy``, the demotion
        policy asks for it (the caller checked both before the first
        round). Stops after a round that moved nothing, or that bounced
        or spilled a victim. Returns pages moved off the tier, poisoned
        ones included."""
        lru = self._lru[index]
        tier = self.tiers[index]
        trace_on = _trace.tracing_enabled()
        demoted = 0
        while True:
            limit = min(count - demoted, DEMOTE_BATCH_PAGES)
            if trace_on:
                below = min(index + 1, len(self.tiers) - 1)
                taken, poisoned, placed, stop = self._timed(
                    "demote", "demote_round",
                    {"from": self.tier_names[index]},
                    # A round that took no victim observes nothing; one
                    # that advanced no simulated time is modelled as a
                    # swap-in here plus a swap-out below per victim.
                    lambda counts: (
                        counts[0] or None,
                        ((index, "in"), (below, "out")),
                        dict(zip(("victims", "poisoned", "placed"), counts)),
                    ),
                    self._demote_round, index, limit, policy, True,
                )
            else:
                taken, poisoned, placed, stop = self._demote_round(
                    index, limit, policy, False
                )
            demoted += poisoned + placed
            if (
                stop or not (taken or poisoned) or demoted >= count
                or not lru
                or policy and not self.demotion.should_demote(tier)
            ):
                return demoted

    def _demote_round(
        self, index: int, limit: float, policy: bool, trace_on: bool
    ) -> Tuple[int, int, int, bool]:
        """One demotion round: swap in up to ``limit`` LRU victims out of
        tier ``index`` (re-checking the :meth:`_demote` condition between
        swap-ins, so the policy sees every intermediate source-tier
        state), then place each, coldest first, through the same
        :meth:`_place` every store takes, starting one tier below. A
        victim nothing below takes goes back where it was (space was just
        freed there), else to the spill callback. Returns ``(taken,
        poisoned, placed, stop)``: victims swapped in, victims lost to
        corruption, pages demoted, and whether the cascade must halt
        (source tier unreachable, or a victim bounced back or spilled)."""
        lru = self._lru[index]
        tier = self.tiers[index]
        victims: List[Tuple[int, Page, bytes]] = []
        poisoned = 0
        stop = False
        # Poisoned victims consume limit slots too: demote_coldest(count)
        # must never move more than ``count`` pages off the source tier.
        while len(victims) + poisoned < limit:
            if (victims or poisoned) and not (
                lru and (not policy or self.demotion.should_demote(tier))
            ):
                break
            vaddr, page = next(iter(lru.items()))
            try:
                data = self._take(index, page, True)
            except TierUnavailableError:
                # Source tier unreachable right now: leave this victim
                # where it is and stop the cascade for this round.
                stop = True
                break
            except CorruptedBlobError:
                # The tier detected unrecoverable corruption and poisoned
                # the blob itself; mark the vaddr so a later access gets
                # an explicit error, keep cascading.
                self._poisoned.add(vaddr)
                poisoned += 1
                continue
            victims.append((vaddr, page, data))
        placed = 0
        for vaddr, page, data in victims:
            outcome, new_index = self._place(page, start=index + 1)
            if outcome.accepted:
                self.pipeline_stats.demotions += 1
                placed += 1
                if trace_on:
                    self._move_instant("tier_demote", index, new_index, vaddr)
                continue
            self.pipeline_stats.demotion_failures += 1
            stop = True
            retry, _ = self._place(page, start=index)
            if not retry.accepted:
                self._spill_page(vaddr, data, "demotion")
        return len(victims), poisoned, placed, stop

    def _spill_page(self, vaddr: int, data: bytes, during: str) -> None:
        """Hand a page every tier refused during ``during`` to the spill
        callback (no callback is an :class:`SfmError`); a callback that
        raises is counted and swallowed so one broken sink cannot desync
        the pipeline's bookkeeping mid-cascade."""
        if self.spill is None:
            raise SfmError(
                f"page 0x{vaddr:x} rejected by every tier during "
                f"{during} and no spill callback is set"
            )
        try:
            self.spill(vaddr, data)
        except Exception:
            self.pipeline_stats.spill_callback_errors += 1
        else:
            self.pipeline_stats.spills += 1

    def demote_coldest(self, count: int = 1, from_tier: int = 0) -> int:
        """Explicitly sink up to ``count`` LRU pages out of ``from_tier``
        (policy-independent; the control-plane analogue of zswap's
        ``shrink``). Returns pages demoted."""
        demoted = 0
        if count > 0 and self._lru[from_tier]:
            demoted = self._demote(from_tier, count, False)
        checkpoint(self)
        return demoted

    def promote_up(self, vaddr: int) -> Optional[str]:
        """Raise a hot blob back to tier 0 (falling through on reject,
        like any store) without bringing it to DRAM; returns the tier it
        landed in (or None when it is not held, or had to be spilled)."""
        index = self._where.get(vaddr)
        if index is None:
            return None
        if index == 0:
            self.pipeline_stats.promotions_blocked += 1
            return self.tier_names[index]
        page = self._lru[index][vaddr]
        try:
            data = self._take(index, page, True)
        except TierUnavailableError:
            # Holding tier unreachable: the blob stays put; the
            # promotion is merely blocked, not an error for the caller.
            self.pipeline_stats.promotions_blocked += 1
            return self.tier_names[index]
        except CorruptedBlobError:
            self._poisoned.add(vaddr)
            checkpoint(self)
            raise
        outcome, new_index = self._place(page, start=0)
        if not outcome.accepted:
            # Even its old tier refused it back (a device fault): spill,
            # as demotion and drain do, rather than drop the page.
            self._spill_page(vaddr, data, "promotion")
            checkpoint(self)
            return None
        if new_index < index:
            self.pipeline_stats.promotions += 1
            if _trace.tracing_enabled():
                self._move_instant("tier_promote", index, new_index, vaddr)
        else:
            self.pipeline_stats.promotions_blocked += 1
        checkpoint(self)
        return self.tier_names[new_index]

    # -- keyed convenience API (zswap-shaped) --------------------------------

    def store(self, key: int, data: bytes) -> bool:
        """Store a page under an integer key (offset-style); re-stores
        drop the stale copy first, like zswap."""
        if len(data) != PAGE_SIZE:
            raise ConfigError(f"store expects a {PAGE_SIZE}-byte page")
        if key in self._keyed:
            if self.invalidate(self._keyed.pop(key).vaddr):
                # Internal drop, not caller-visible; only un-count it
                # when a copy was actually held (the page may have been
                # invalidated through the protocol API already).
                self.pipeline_stats.invalidates -= 1
        page = Page(vaddr=key * PAGE_SIZE, data=data)
        if self.swap_out(page).accepted:
            self._keyed[key] = page
            return True
        return False

    def load(self, key: int) -> Optional[bytes]:
        """Exclusive load by key; None when the pipeline never kept it.

        A transient :class:`TierUnavailableError` keeps the key mapped
        (retry later); a :class:`CorruptedBlobError` drops it — the
        data is gone and the caller was told so explicitly."""
        page = self._keyed.pop(key, None)
        if page is None:
            return None
        try:
            return self.swap_in(page)
        except TierUnavailableError:
            self._keyed[key] = page
            raise

    def promote_key(self, key: int) -> Optional[str]:
        page = self._keyed.get(key)
        return None if page is None else self.promote_up(page.vaddr)

    def tier_of_key(self, key: int) -> Optional[str]:
        page = self._keyed.get(key)
        return None if page is None else self.tier_of(page.vaddr)

    # -- tier health / drain -------------------------------------------------

    def breaker_states(self) -> Dict[str, str]:
        """tier name -> breaker state (``closed``/``open``/``half_open``)."""
        return {b.name: b.state.value for b in self.breakers}

    def drain_tier(self, name: str, limit: Optional[int] = None) -> int:
        """Relocate resident pages out of tier ``name`` into the other
        tiers (typically after its breaker opened), up to ``limit``
        pages. Returns pages successfully moved.

        The drain stops early if the tier goes unreachable mid-way
        (pages still marked resident there, retryable); corrupted
        pages are poisoned — later accesses raise
        :class:`CorruptedBlobError` — never lost silently. No breaker
        success is recorded for the drain reads themselves, so a
        half-open probe's verdict stays owned by real traffic."""
        if name not in self.tier_names:
            raise ConfigError(f"unknown tier {name!r}")
        origin = self.tier_names.index(name)
        moved = 0
        trace_on = _trace.tracing_enabled()
        while self._lru[origin] and (limit is None or moved < limit):
            vaddr, page = next(iter(self._lru[origin].items()))
            try:
                data = self._take(origin, page, True, credit=False)
            except TierUnavailableError:
                break
            except CorruptedBlobError:
                self._poisoned.add(vaddr)
                continue
            outcome, new_index = self._place(page, start=0, skip=origin)
            if outcome.accepted:
                moved += 1
                self.pipeline_stats.drained_pages += 1
                if trace_on:
                    self._move_instant("tier_drain", origin, new_index, vaddr)
                continue
            # No other tier would hold it: spill if we can, otherwise
            # put it back where it came from (space was just freed).
            if self.spill is not None:
                self._spill_page(vaddr, data, "drain")
                continue
            restore, _ = self._place(page, start=origin)
            if not restore.accepted:
                raise SfmError(
                    f"page 0x{vaddr:x} rejected everywhere during drain "
                    f"of tier {name!r} and no spill callback is set"
                )
            break
        checkpoint(self)
        return moved

    # -- maintenance ---------------------------------------------------------

    def compact(self) -> int:
        return sum(tier.compact() for tier in self.tiers)

    def swap_latency_s(self, direction: str) -> float:
        """Latency at the top tier (the common-case placement)."""
        return self.tiers[0].swap_latency_s(direction)

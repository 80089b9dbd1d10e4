"""One fleet shard: an independent TierPipeline behind a bounded queue.

Each shard owns its own three-tier pipeline (with its own metrics
registry and circuit breakers — shard failure domains are independent)
and serves requests through an event-chained pump on the shared
:class:`~repro.sim.events.EventScheduler`: the pump event fires at the
moment the shard goes idle, sheds anything already past its deadline
(shed-before-work — a dead request costs zero service time), serves one
request in a borrowed timeline (the pipeline's modeled codec/device
costs advance the clock inside ``CLOCK.scoped()``), and chains the next
pump at the completion instant. When the pump returns, the clock is
back at the service start, so later events keep their order. Arrivals
landing mid-service simply wait in the bounded queue; a full queue
sheds at submit time with a retry-after hint sized from the backlog.

Under tracing, the pipeline work of each served request is one trace
window of the ring (:meth:`~repro.telemetry.trace.TraceRing.mark`). It
closes when the request's completion time is set, before the completion
hook runs, and the ring keeps it only for one request in
:data:`TRACE_SAMPLE_EVERY`, a request that was not served, or one that
finished after its deadline. Tracing stays on inside a dropped window,
so modelled costs, latency quantiles and the flight recorder, which
sees every event, do not depend on the sample.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, FrozenSet, Optional

from repro.compression.base import CodecSpec
from repro.compression.deflate import DeflateCodec
from repro.compression.static_tables import StaticTableRegistry
from repro.core.backend import XfmBackend
from repro.dfm.backend import DfmBackend
from repro.errors import (
    ConfigError,
    CorruptedBlobError,
    OverloadError,
    SfmError,
    TierUnavailableError,
)
from repro.sfm.backend import SfmBackend
from repro.sfm.page import PAGE_SIZE
from repro.sim import CLOCK as _sim_clock
from repro.sim import context as _context
from repro.sim.events import EventScheduler
from repro.telemetry.registry import CounterFamily, MetricsRegistry
from repro.tiering.pipeline import TierPipeline
from repro.tiering.policy import LruDemotion, NeverDemote

#: Floor on per-request service time: keeps the pump chain strictly
#: advancing even for requests whose pipeline work is cache-hit cheap
#: (and keeps bare, non-traced unit tests from looping at one tick).
MIN_SERVICE_NS = 200.0

#: A shard's trace keeps the pipeline window of every request whose id
#: is a multiple of this, and of every request that was not served or
#: missed its deadline (see the module docstring).
TRACE_SAMPLE_EVERY = 8

#: Per-shard tier capacities (cpu-zswap and xfm; dfm).
UPPER_TIER_BYTES = 4 * 1024 * 1024
DFM_BYTES = 64 * 1024 * 1024

#: Modeled cost of the brownout codec: static Huffman tables skip the
#: per-page dynamic table build, trading ratio for cycles (PR 7's
#: static-table mode; cheaper than stock deflate's 35/9 cycles/byte).
DEGRADED_SPEC = CodecSpec(
    name="deflate-static",
    compress_cycles_per_byte=22.0,
    decompress_cycles_per_byte=7.0,
)


def make_degraded_codec() -> DeflateCodec:
    """The brownout codec: static-table deflate with a cheaper spec.

    Decode-compatible both ways with the shard's normal dynamic
    deflate — mode-3 static blobs are self-describing (decode with no
    registry) and dynamic blobs decode under either codec — so pages
    stored before, during, and after a brownout all stay readable.
    """
    registry = StaticTableRegistry.load_default()
    codec = (
        registry.codec_for("text") if registry is not None else DeflateCodec()
    )
    # Shadow the class-level spec with the degraded-cost instance spec.
    codec.spec = DEGRADED_SPEC
    return codec


def ignore_request(req: "FleetRequest") -> None:
    """The completion hook of a shard or frontend nobody listens to."""


def _spill_into(spill: Dict[int, bytes]) -> Callable[[int, bytes], None]:
    """A pipeline's spill hook filing pages into the fleet's ``spill``
    map by key. It holds the map, not the shard, so a pipeline keeps no
    reference back to its shard."""

    def spill_page(vaddr: int, data: bytes) -> None:
        spill[vaddr // PAGE_SIZE] = data

    return spill_page


@dataclass
class FleetRequest:
    """One serving request, from arrival to terminal state."""

    rid: int
    tenant: str
    op: str  # "store" | "load"
    key: int
    arrival_ns: float
    deadline_ns: float
    data: Optional[bytes] = None
    attempt: int = 0
    # Terminal bookkeeping, filled by the shard/frontend.
    status: str = "pending"  # -> served | shed | failed
    reason: str = ""
    #: Shed hint for the client's retry timer (copied from the
    #: OverloadError that shed this request, when one was raised).
    retry_after_ns: float = 0.0
    shard: str = ""
    done_ns: float = 0.0
    result: Optional[bytes] = field(default=None, repr=False)


class FleetShard:
    """Bounded-queue serving wrapper around one TierPipeline."""

    def __init__(
        self,
        name: str,
        scheduler: EventScheduler,
        queue_depth: int = 8,
        spill: Optional[Dict[int, bytes]] = None,
    ) -> None:
        if queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")

        self.name = name
        self.scheduler = scheduler
        self.queue_depth = queue_depth
        #: Fleet-level last-resort spill (shared across shards): pages no
        #: tier would hold stay acknowledged here, never lost.
        self.spill = spill if spill is not None else {}
        #: The shard's own registry — pipeline internals (tier stats,
        #: breakers, demotion counters) stay per-failure-domain.
        self.registry = MetricsRegistry()
        self._brownouts = CounterFamily(
            self.registry, "fleet.shard_brownout", "shard"
        )
        self._codec_normal = DeflateCodec()
        self._codec_degraded = make_degraded_codec()
        tier0 = SfmBackend(
            capacity_bytes=UPPER_TIER_BYTES,
            codec=self._codec_normal,
            registry=self.registry,
            tier="cpu-zswap",
        )
        self.pipeline = TierPipeline(
            [
                tier0,
                XfmBackend(
                    capacity_bytes=UPPER_TIER_BYTES,
                    registry=self.registry,
                    tier="xfm",
                ),
                DfmBackend(
                    capacity_bytes=DFM_BYTES,
                    registry=self.registry,
                    tier="dfm",
                ),
            ],
            registry=self.registry,
            demotion=LruDemotion(watermark_fraction=0.75),
            spill=_spill_into(self.spill),
            trace_labels={"shard": name},
        )
        self._normal_demotion = self.pipeline.demotion
        self.queue: Deque[FleetRequest] = deque()
        #: Simulated instant the shard finishes its in-flight request.
        #: This is what makes the shard a real busy server: service runs
        #: in a borrowed timeline, so when the next event fires the
        #: clock is back at the service start, and an arrival landing
        #: before this instant must still queue behind the request.
        self.busy_until_ns = 0.0
        self.alive = True
        self.degraded = False
        self.degraded_tenants: FrozenSet[str] = frozenset()
        self.degraded_ops = 0
        self._pump_scheduled = False
        #: Completion callback installed by the frontend; receives every
        #: request this shard terminates (served, shed, or failed).
        self.on_complete: Callable[[FleetRequest], None] = ignore_request
        self._store_est_ns = tier0.swap_latency_s("out") * 1e9
        self._load_est_ns = tier0.swap_latency_s("in") * 1e9

    # -- admission into the queue -------------------------------------------

    def _estimate_ns(self, op: str) -> float:
        return self._store_est_ns if op == "store" else self._load_est_ns

    def backlog_ns(self, now_ns: Optional[float] = None) -> float:
        """Rough wait ahead of a new arrival at ``now_ns`` (default: the
        clock): the remainder of the in-flight request plus the queued
        service estimates."""
        if now_ns is None:
            now_ns = _sim_clock.now_ns()
        in_flight = max(0.0, self.busy_until_ns - now_ns)
        return in_flight + sum(self._estimate_ns(r.op) for r in self.queue)

    def submit(self, req: FleetRequest) -> None:
        """Enqueue or shed (queue-full / dead shard raise
        :class:`OverloadError` with a backlog-sized retry-after)."""
        if not self.alive:
            raise OverloadError(
                f"shard {self.name} is dead",
                reason="shard-dead",
                retry_after_ns=self._estimate_ns(req.op),
            )
        if len(self.queue) >= self.queue_depth:
            raise OverloadError(
                f"shard {self.name} queue full ({self.queue_depth})",
                reason="queue-full",
                retry_after_ns=self.backlog_ns() + self._estimate_ns(req.op),
            )
        req.shard = self.name
        self.queue.append(req)
        self._schedule_pump()

    # -- service pump ---------------------------------------------------------

    def _schedule_pump(self) -> None:
        """Chain the next pump firing at the instant the shard is free
        (never earlier — the server is genuinely busy until then)."""
        if self._pump_scheduled or not self.queue or not self.alive:
            return
        self._pump_scheduled = True
        delay = max(0.0, self.busy_until_ns - _sim_clock.now_ns())
        self.scheduler.schedule_after(delay, self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if not self.alive:
            return
        # The service is modelled work: it runs in a borrowed timeline,
        # and everything it schedules (the completion's follow-ups, the
        # next pump) is computed at the completion instant inside it.
        with _sim_clock.scoped():
            while self.queue:
                req = self.queue.popleft()
                now = _sim_clock.now_ns()
                # Deadline-aware shed-before-work: a request that cannot
                # finish in time is refused *before* any pipeline work.
                if now + self._estimate_ns(req.op) > req.deadline_ns:
                    req.status = "shed"
                    req.reason = "deadline"
                    req.retry_after_ns = self.backlog_ns(now)
                    req.done_ns = now
                    self.on_complete(req)
                    continue
                self._serve(req)
                self.busy_until_ns = req.done_ns
                break
            self._schedule_pump()

    def _serve(self, req: FleetRequest) -> None:
        ring = _context._current.ring
        if ring is not None:
            ring.mark()
        start_ns = _sim_clock.now_ns()
        # The brownout codec for degraded tenants, the normal one else.
        if self.degraded and req.tenant in self.degraded_tenants:
            self.pipeline.tiers[0].codec = self._codec_degraded
            self.degraded_ops += 1
        else:
            self.pipeline.tiers[0].codec = self._codec_normal
        try:
            if req.op == "store":
                if req.data is None or len(req.data) != PAGE_SIZE:
                    raise ConfigError("store request needs one page of data")
                accepted = self.pipeline.store(req.key, req.data)
                req.status = "served" if accepted else "failed"
                req.reason = "" if accepted else "store-rejected"
            elif req.op == "load":
                try:
                    req.result = self.pipeline.load(req.key)
                except SfmError:
                    # Spilled mid-cascade: still acknowledged, still ours.
                    req.result = self.spill.pop(req.key, None)
                if req.result is None:
                    req.status = "failed"
                    req.reason = "missing"
                else:
                    req.status = "served"
            else:
                raise ConfigError(f"unknown op {req.op!r}")
        except TierUnavailableError:
            req.status = "failed"
            req.reason = "tier-unavailable"
        except CorruptedBlobError:
            req.status = "failed"
            req.reason = "corrupted"
        except BaseException:
            if ring is not None:
                ring.commit(True)
            raise
        # Service-time floor: guarantee the timeline strictly advances
        # per served request, even when the pipeline work was free
        # (digest-cache hit, early reject) or tracing is off.
        now = _sim_clock.now_ns()
        elapsed = now - start_ns
        if elapsed < MIN_SERVICE_NS:
            now = _sim_clock.advance_ns(MIN_SERVICE_NS - elapsed)
        req.done_ns = now
        if ring is not None:
            ring.commit(
                req.rid % TRACE_SAMPLE_EVERY == 0
                or req.status != "served"
                or now > req.deadline_ns
            )
        self.on_complete(req)

    # -- degraded mode --------------------------------------------------------

    def enter_brownout(self, tenants: FrozenSet[str]) -> None:
        """Degrade: static-table codec for ``tenants`` and
        demotion-cascade bypass."""
        self.degraded = True
        self.degraded_tenants = tenants
        self.pipeline.demotion = NeverDemote()
        self._brownouts[self.name].inc()

    def exit_brownout(self) -> None:
        self.degraded = False
        self.degraded_tenants = frozenset()
        self.pipeline.demotion = self._normal_demotion

    # -- failure --------------------------------------------------------------

    def kill(self) -> Deque[FleetRequest]:
        """Mark the shard dead and hand back its queued (unserved)
        requests for the frontend to re-route."""
        self.alive = False
        pending = self.queue
        self.queue = deque()
        return pending

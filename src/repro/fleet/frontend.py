"""Sharded fleet frontend: routing, shed accounting, and failover.

Routing is rendezvous (highest-random-weight) hashing over the *live*
shard set: each key scores every shard with a keyed blake2b digest and
goes to the maximum. Rendezvous gives the two properties a far-memory
fleet needs — deterministic placement with no coordination state, and
minimal disruption on membership change (killing one of N shards moves
only that shard's keys, everyone else's placement is untouched).

The frontend also owns the fleet-level serving counters: admission
(delegated to :class:`~repro.fleet.admission.AdmissionController`),
the shared retry budget, per-op latency quantiles under
``op_latency_ns{op,tier="fleet"}`` (what the SLO engine reads), the
``fleet.requests`` / ``.served`` / ``.shed`` / ``.failed`` and
``fleet.relocated_pages`` registry counters (the campaign report reads
them back, counting nothing twice), and an explicit placement map (key
-> shard) kept so failover can enumerate exactly which acknowledged
pages lived on a dead shard and relocate them to siblings.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigError, OverloadError, ReproError
from repro.fleet.admission import AdmissionController, TenantQuota
from repro.fleet.brownout import TRACK_FLEET, BrownoutConfig, BrownoutController
from repro.fleet.retrybudget import RetryBudget
from repro.fleet.shard import FleetRequest, FleetShard, ignore_request
from repro.sim import CLOCK as _sim_clock
from repro.sim.events import EventScheduler
from repro.telemetry import trace as _trace
from repro.telemetry.registry import CounterFamily, MetricsRegistry


def rendezvous_score(key: int, shard_name: str) -> int:
    """Deterministic 64-bit score of (key, shard) for HRW routing."""
    digest = hashlib.blake2b(
        f"{key}:{shard_name}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class FleetFrontend:
    """N independent pipeline shards behind one admission gate."""

    def __init__(
        self,
        shard_names: Tuple[str, ...],
        quotas: Tuple[TenantQuota, ...],
        scheduler: EventScheduler,
        registry: Optional[MetricsRegistry] = None,
        queue_depth: int = 8,
    ) -> None:
        if len(set(shard_names)) != len(shard_names) or not shard_names:
            raise ConfigError("frontend needs uniquely named shards")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.scheduler = scheduler
        #: Fleet-level last-resort spill, shared by every shard: a page
        #: spilled out of any pipeline stays acknowledged here.
        self.spill: Dict[int, bytes] = {}
        self.shards: Dict[str, FleetShard] = {
            name: FleetShard(
                name, scheduler, queue_depth=queue_depth, spill=self.spill
            )
            for name in shard_names
        }
        for shard in self.shards.values():
            shard.on_complete = self._on_shard_complete
        self.admission = AdmissionController(quotas, registry=self.registry)
        self.retry_budget = RetryBudget(registry=self.registry)
        self.brownout = BrownoutController(
            BrownoutConfig(),
            on_enter=self._enter_brownout,
            on_exit=self._exit_brownout,
            registry=self.registry,
        )
        #: key -> shard name, for every acknowledged resident page.
        self.placement: Dict[int, str] = {}
        #: Completion hook installed by the harness (phase accounting,
        #: shadow checks, retry decisions); receives terminal requests.
        self.on_complete: Callable[[FleetRequest], None] = ignore_request
        self._lat = {
            op: self.registry.quantile("op_latency_ns", op=op, tier="fleet")
            for op in ("store", "load")
        }
        #: Per-request counters, each bound once per label set.
        reg = self.registry
        self._requests = CounterFamily(reg, "fleet.requests", "tenant")
        self._shed = CounterFamily(reg, "fleet.shed", "reason", "tenant")
        self._served = CounterFamily(reg, "fleet.served", "tenant", "op")
        self._failed = CounterFamily(reg, "fleet.failed", "tenant", "reason")
        #: Live shard name -> its routing bytes, in declaration order;
        #: kill_shard, the only place a shard dies, removes it.
        self._live = {name: name.encode("ascii") for name in shard_names}

    # -- routing --------------------------------------------------------------

    def route(self, key: int) -> str:
        """The live shard with the highest :func:`rendezvous_score` for
        ``key`` (the first on a tie), comparing the big-endian digests
        directly."""
        if not self._live:
            raise ConfigError("no live shards")
        prefix = b"%d:" % key
        return max(
            self._live.items(),
            key=lambda shard: hashlib.blake2b(
                prefix + shard[1], digest_size=8
            ).digest(),
        )[0]

    # -- submission -----------------------------------------------------------

    def _count_shed(self, req: FleetRequest, reason: str) -> None:
        self._shed[reason, req.tenant].inc()
        self.brownout.record(shed=True)
        if _trace.tracing_enabled():
            _trace.instant(
                "fleet_shed", TRACK_FLEET,
                args={"tenant": req.tenant, "op": req.op, "reason": reason},
            )

    def submit(self, req: FleetRequest) -> None:
        """Admit-and-enqueue one request; sheds raise
        :class:`OverloadError` (and are fully accounted before raising).

        First attempts earn retry budget on admission; retries
        (``req.attempt > 0``) must have spent budget at the caller via
        :meth:`charge_retry` before re-submitting.
        """
        self._requests[req.tenant].inc()
        try:
            self.admission.admit(req.tenant, req.op)
        except OverloadError as exc:
            req.status = "shed"
            req.reason = exc.reason
            req.retry_after_ns = exc.retry_after_ns
            req.done_ns = _sim_clock.now_ns()
            self._count_shed(req, exc.reason)
            raise
        if req.attempt == 0:
            self.retry_budget.earn()
        self._enqueue(req)

    def _enqueue(self, req: FleetRequest) -> None:
        """Route and queue an already-admitted request (also the
        failover re-route path — no second admission charge)."""
        if not self._live:
            req.status = "shed"
            req.reason = "shard-dead"
            req.done_ns = _sim_clock.now_ns()
            self._count_shed(req, "shard-dead")
            raise OverloadError(
                "fleet has no live shards", reason="shard-dead"
            )
        target = self.placement.get(req.key) if req.op == "load" else None
        if target is None or not self.shards[target].alive:
            target = self.route(req.key)
        try:
            self.shards[target].submit(req)
        except OverloadError as exc:
            req.status = "shed"
            req.reason = exc.reason
            req.retry_after_ns = exc.retry_after_ns
            req.done_ns = _sim_clock.now_ns()
            self._count_shed(req, exc.reason)
            raise
        self.brownout.record(shed=False)

    def charge_retry(self, retry_after_ns: float = 0.0) -> None:
        """Spend shared retry budget for one client retry; raises
        :class:`~repro.errors.RetryBudgetExhausted` on an empty balance
        (the caller fast-fails instead of re-offering the request)."""
        self.retry_budget.spend(retry_after_ns=retry_after_ns)

    # -- completion fan-in ----------------------------------------------------

    def _on_shard_complete(self, req: FleetRequest) -> None:
        if req.status == "served":
            self._served[req.tenant, req.op].inc()
            self._lat[req.op].observe(req.done_ns - req.arrival_ns)
            if req.op == "store":
                self.placement[req.key] = req.shard
                self.admission.on_page_stored(req.tenant)
            else:
                self.placement.pop(req.key, None)
                self.admission.on_page_released(req.tenant)
        elif req.status == "shed":
            # Queued-then-deadline-shed inside the shard.
            self._count_shed(req, req.reason)
        else:
            self._failed[req.tenant, req.reason].inc()
        self.on_complete(req)

    # -- degraded mode --------------------------------------------------------

    def _enter_brownout(self) -> None:
        tenants = frozenset(self.admission.degradable_tenants())
        for shard in self.shards.values():
            if shard.alive:
                shard.enter_brownout(tenants)

    def _exit_brownout(self) -> None:
        for shard in self.shards.values():
            if shard.alive:
                shard.exit_brownout()

    # -- failover -------------------------------------------------------------

    def kill_shard(self, name: str) -> Dict[str, int]:
        """Chaos-kill ``name``: re-route its queued work, then relocate
        every acknowledged resident page to rendezvous-chosen siblings
        (``drain_tier``-style: load from the dying pipeline, store into
        a live one, spill as last resort — never silently dropped).

        The relocation is modelled work and runs in a borrowed timeline:
        the clock is back at the kill instant when this returns.
        """
        if name not in self.shards:
            raise ConfigError(f"unknown shard {name!r}")
        victim = self.shards[name]
        pending = victim.kill()
        self._live.pop(name, None)
        if _trace.tracing_enabled():
            _trace.instant(
                "fleet_failover", TRACK_FLEET,
                args={"shard": name, "queued": len(pending)},
            )
        self.registry.counter("fleet.failover", shard=name).inc()
        for req in pending:
            try:
                self._enqueue(req)
            except OverloadError:
                # Shed and counted by _enqueue; like every terminal
                # request it reaches the owner (tallies, client retry).
                self.on_complete(req)
        stats = {"relocated": 0, "spilled": 0, "lost": 0}
        doomed = sorted(
            key for key, where in self.placement.items() if where == name
        )
        survivors = bool(self._live)
        with _sim_clock.scoped():
            for key in doomed:
                data = self._extract(victim, key)
                if data is None:
                    stats["lost"] += 1
                    self.placement.pop(key, None)
                    continue
                if not survivors:
                    # Last shard standing died: the spill is the only
                    # acknowledged home left.
                    self.spill[key] = data
                    self.placement.pop(key, None)
                    stats["spilled"] += 1
                    stats["relocated"] += 1
                    continue
                target = self.route(key)
                if self.shards[target].pipeline.store(key, data):
                    self.placement[key] = target
                else:
                    self.spill[key] = data
                    self.placement.pop(key, None)
                    stats["spilled"] += 1
                stats["relocated"] += 1
        self.registry.counter("fleet.relocated_pages").inc(stats["relocated"])
        return stats

    def _extract(self, shard: FleetShard, key: int) -> Optional[bytes]:
        try:
            data = shard.pipeline.load(key)
        except ReproError:
            data = None
        if data is None:
            data = self.spill.pop(key, None)
        return data

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        """Unhook the completion and brownout callbacks. Each is a
        bound method that ties this frontend, its shards and the owner
        of :attr:`on_complete` into a reference cycle; without them a
        finished fleet is freed by refcount as soon as its owner drops
        it, not at the next full collection. Everything stays readable
        (registries, placement, shard pipelines); the fleet just stops
        reporting completions and changing brownout mode."""
        self.on_complete = ignore_request
        self.brownout.on_enter = self.brownout.on_exit = None
        for shard in self.shards.values():
            shard.on_complete = ignore_request

    # -- direct access (final sweeps, diagnostics) ----------------------------

    def lookup(self, key: int) -> Optional[bytes]:
        """Out-of-band exclusive load, bypassing admission/queues (the
        harness's zero-acknowledged-loss sweep)."""
        if key in self.spill:
            return self.spill.pop(key)
        where = self.placement.get(key)
        if where is None:
            return None
        try:
            data = self.shards[where].pipeline.load(key)
        except ReproError:
            return None
        if data is not None:
            self.placement.pop(key, None)
        return data

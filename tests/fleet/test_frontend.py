"""Frontend routing, shard queueing/shedding, and failover relocation."""

import pytest

from repro.compression.deflate import DeflateCodec
from repro.errors import OverloadError
from repro.fleet.frontend import FleetFrontend, rendezvous_score
from repro.fleet import shard as shard_module
from repro.fleet.shard import (
    DEGRADED_SPEC,
    FleetRequest,
    FleetShard,
    make_degraded_codec,
)
from repro.fleet.admission import TenantQuota
from repro.fleet.traffic import page_for
from repro.sim import CLOCK, EventScheduler


def _quota(name="t0", rate=1e9):
    # Effectively unlimited: these tests exercise queueing, not quotas.
    return TenantQuota(name=name, rate_per_s=rate, burst=1e6)


def _frontend(scheduler, shards=3, queue_depth=8, **kwargs):
    return FleetFrontend(
        tuple(f"shard-{i}" for i in range(shards)),
        (_quota(),),
        scheduler,
        queue_depth=queue_depth,
        **kwargs,
    )


def _store(rid, key, deadline_ns=1e9):
    now = CLOCK.now_ns()
    return FleetRequest(
        rid=rid, tenant="t0", op="store", key=key,
        arrival_ns=now, deadline_ns=now + deadline_ns,
        data=page_for(0, key),
    )


def _load(rid, key, deadline_ns=1e9):
    now = CLOCK.now_ns()
    return FleetRequest(
        rid=rid, tenant="t0", op="load", key=key,
        arrival_ns=now, deadline_ns=now + deadline_ns,
    )


class TestRouting:
    def test_rendezvous_score_is_deterministic(self):
        assert rendezvous_score(42, "shard-1") == rendezvous_score(
            42, "shard-1"
        )
        assert rendezvous_score(42, "shard-1") != rendezvous_score(
            42, "shard-2"
        )

    def test_route_spreads_keys(self):
        with CLOCK.scoped(start_ns=0.0):
            frontend = _frontend(EventScheduler(), shards=4)
            homes = {frontend.route(key) for key in range(200)}
            assert len(homes) == 4

    def test_membership_change_moves_only_victim_keys(self):
        # The rendezvous property failover depends on: killing a shard
        # must not reshuffle keys homed on the survivors.
        with CLOCK.scoped(start_ns=0.0):
            frontend = _frontend(EventScheduler(), shards=4)
            before = {key: frontend.route(key) for key in range(300)}
            frontend.kill_shard("shard-2")
            for key, home in before.items():
                if home != "shard-2":
                    assert frontend.route(key) == home
                else:
                    assert frontend.route(key) != "shard-2"


class TestServing:
    def test_store_then_load_round_trips(self):
        with CLOCK.scoped(start_ns=0.0):
            scheduler = EventScheduler()
            frontend = _frontend(scheduler)
            done = []
            frontend.on_complete = done.append
            frontend.submit(_store(0, key=7))
            scheduler.run()
            assert done[0].status == "served"
            assert frontend.placement[7] == done[0].shard
            frontend.submit(_load(1, key=7))
            scheduler.run()
            assert done[1].status == "served"
            assert done[1].result == page_for(0, 7)
            assert 7 not in frontend.placement  # loads are exclusive

    def test_served_latency_includes_queue_wait(self):
        with CLOCK.scoped(start_ns=0.0):
            scheduler = EventScheduler()
            frontend = _frontend(scheduler, shards=1)
            done = []
            frontend.on_complete = done.append
            for rid in range(3):
                frontend.submit(_store(rid, key=rid))
            scheduler.run()
            latencies = [r.done_ns - r.arrival_ns for r in done]
            # One busy server: each request waits behind its elders.
            assert latencies[0] < latencies[1] < latencies[2]

    def test_queue_full_sheds_at_submit_with_hint(self):
        with CLOCK.scoped(start_ns=0.0):
            scheduler = EventScheduler()
            frontend = _frontend(scheduler, shards=1, queue_depth=2)
            frontend.submit(_store(0, key=0))
            frontend.submit(_store(1, key=1))
            with pytest.raises(OverloadError) as info:
                frontend.submit(_store(2, key=2))
            assert info.value.reason == "queue-full"
            assert info.value.retry_after_ns > 0

    def test_deadline_shed_before_work(self):
        with CLOCK.scoped(start_ns=0.0):
            scheduler = EventScheduler()
            frontend = _frontend(scheduler, shards=1)
            done = []
            frontend.on_complete = done.append
            frontend.submit(_store(0, key=0))
            # Arrives second with a deadline the backlog already blows.
            frontend.submit(_store(1, key=1, deadline_ns=10.0))
            scheduler.run()
            by_rid = {r.rid: r for r in done}
            assert by_rid[0].status == "served"
            assert by_rid[1].status == "shed"
            assert by_rid[1].reason == "deadline"

    def test_dead_shard_sheds_at_submit(self):
        with CLOCK.scoped(start_ns=0.0):
            scheduler = EventScheduler()
            frontend = _frontend(scheduler, shards=1)
            frontend.shards["shard-0"].kill()
            with pytest.raises(OverloadError) as info:
                frontend.submit(_store(0, key=0))
            assert info.value.reason == "shard-dead"


class TestFailover:
    def test_kill_relocates_every_acknowledged_page(self):
        with CLOCK.scoped(start_ns=0.0):
            scheduler = EventScheduler()
            frontend = _frontend(scheduler, shards=3)
            done = []
            frontend.on_complete = done.append
            for rid in range(30):
                frontend.submit(_store(rid, key=rid))
                scheduler.run()
            assert all(r.status == "served" for r in done)
            victim_keys = [
                key for key, home in frontend.placement.items()
                if home == "shard-0"
            ]
            assert victim_keys  # the hash spreads 30 keys over 3 shards
            stats = frontend.kill_shard("shard-0")
            scheduler.run()
            assert stats["lost"] == 0
            assert stats["relocated"] == len(victim_keys)
            # Every acknowledged page still loads back byte-identical.
            for key in range(30):
                assert frontend.lookup(key) == page_for(0, key)

    def test_killed_shard_queue_fails_over_to_siblings(self):
        with CLOCK.scoped(start_ns=0.0):
            scheduler = EventScheduler()
            frontend = _frontend(scheduler, shards=2)
            done = []
            frontend.on_complete = done.append
            queued = []
            for rid in range(40):
                req = _store(rid, key=rid)
                frontend.submit(req)
                if req.shard == "shard-0":
                    queued.append(req.rid)
                if len(queued) >= 2:
                    break
            assert queued
            frontend.kill_shard("shard-0")
            scheduler.run()
            by_rid = {r.rid: r for r in done}
            for rid in queued:
                assert by_rid[rid].status == "served"
                assert by_rid[rid].shard == "shard-1"

    def test_failover_shed_reaches_the_owner(self):
        # A queued request that finds every sibling full is shed: it is
        # counted once and handed to on_complete like any other shed.
        with CLOCK.scoped(start_ns=0.0):
            frontend = _frontend(EventScheduler(), shards=2, queue_depth=1)
            done = []
            frontend.on_complete = done.append
            queued, shed = {}, 0
            for rid in range(40):
                req = _store(rid, key=rid)
                try:
                    frontend.submit(req)
                except OverloadError:
                    shed += 1
                    continue
                queued[req.shard] = req
                if len(queued) == 2:
                    break
            assert len(queued) == 2
            frontend.kill_shard("shard-0")
            assert done == [queued["shard-0"]]
            assert done[0].status == "shed"
            assert done[0].reason == "queue-full"
            assert frontend.registry.value(
                "fleet.shed", reason="queue-full", tenant="t0"
            ) == shed + 1

    def test_brownout_switches_codec_for_degradable_only(self):
        with CLOCK.scoped(start_ns=0.0):
            scheduler = EventScheduler()
            frontend = FleetFrontend(
                ("shard-0",),
                (
                    TenantQuota(
                        name="gold", rate_per_s=1e9, burst=1e6, qos="premium"
                    ),
                    TenantQuota(name="best-effort", rate_per_s=1e9, burst=1e6),
                ),
                scheduler,
            )
            frontend._enter_brownout()
            shard = frontend.shards["shard-0"]
            assert shard.degraded
            assert shard.degraded_tenants == frozenset({"best-effort"})
            now = CLOCK.now_ns()
            for rid, tenant in ((0, "gold"), (1, "best-effort")):
                frontend.submit(
                    FleetRequest(
                        rid=rid, tenant=tenant, op="store", key=rid,
                        arrival_ns=now, deadline_ns=now + 1e9,
                        data=page_for(0, rid),
                    )
                )
            scheduler.run()
            assert shard.degraded_ops == 1  # best-effort only
            frontend._exit_brownout()
            assert not shard.degraded
            # Pages stored degraded still load back after exit.
            now = CLOCK.now_ns()
            load = FleetRequest(
                rid=2, tenant="best-effort", op="load", key=1,
                arrival_ns=now, deadline_ns=now + 1e9,
            )
            frontend.submit(load)
            scheduler.run()
            assert load.status == "served"
            assert load.result == page_for(0, 1)

    def test_each_shard_gets_a_fresh_brownout_codec_without_a_parse(
        self, refuse_table_parsing
    ):
        """The packaged tables are parsed once per process, but each
        shard still gets a brownout codec of its own, because it sets
        that codec's spec."""
        codecs = [make_degraded_codec() for _ in range(2)]
        assert codecs[0] is not codecs[1]
        assert all(codec.spec is DEGRADED_SPEC for codec in codecs)
        assert DeflateCodec.spec is not DEGRADED_SPEC


class TestSpill:
    def test_page_no_tier_holds_spills_and_loads_back(self, monkeypatch):
        # Shrink the shard's tiers until a demotion cascade finds no room
        # anywhere: the victim goes to the fleet spill, and its load is
        # served from there after the pipeline reports it missing.
        monkeypatch.setattr(shard_module, "UPPER_TIER_BYTES", 16 * 1024)
        monkeypatch.setattr(shard_module, "DFM_BYTES", 4 * 1024)
        with CLOCK.scoped(start_ns=0.0):
            scheduler = EventScheduler()
            shard = FleetShard("shard-0", scheduler, queue_depth=4)
            done = []
            shard.on_complete = done.append
            spilled = set()
            for rid in range(400):
                shard.submit(_store(rid, key=5 * rid + 1))
                scheduler.run()
                spilled |= set(shard.spill)
            served = [r.key for r in done if r.status == "served"]
            assert served
            assert spilled and spilled <= set(served)
            done.clear()
            for rid, key in enumerate(served, start=400):
                shard.submit(_load(rid, key=key))
                scheduler.run()
            assert [r.status for r in done] == ["served"] * len(served)
            assert all(r.result == page_for(0, r.key) for r in done)
            assert shard.spill == {}

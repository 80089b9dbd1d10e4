"""Routing oracle: ``FleetFrontend.route`` against the rendezvous reference.

``route`` scores shards from precomputed name bytes and compares raw
digests; the reference is the textbook highest-random-weight rule,
``max(live, key=lambda n: rendezvous_score(key, n))``, whose ties go to
the first live shard. The two must agree on every key, for every shard
count, before and after each shard kill.
"""

import random

import pytest

from repro.errors import ConfigError
from repro.fleet.admission import TenantQuota
from repro.fleet.frontend import FleetFrontend, rendezvous_score
from repro.sim import CLOCK, EventScheduler

KEYS = random.Random(2024).sample(range(1 << 40), 10_000)


def _frontend(shards: int) -> FleetFrontend:
    return FleetFrontend(
        tuple(f"shard-{i}" for i in range(shards)),
        (TenantQuota(name="t0", rate_per_s=1e9, burst=1e6),),
        EventScheduler(),
    )


def _reference(key: int, live) -> str:
    return max(live, key=lambda name: rendezvous_score(key, name))


def _alive(frontend):
    return [name for name, shard in frontend.shards.items() if shard.alive]


@pytest.mark.parametrize("shards", range(1, 9))
def test_route_matches_reference_through_every_kill(shards):
    # Also the HRW property, kill after kill: a kill re-routes exactly
    # the keys the victim owned; every other key keeps its home.
    with CLOCK.scoped(start_ns=0.0):
        frontend = _frontend(shards)
        kills = random.Random(shards).sample(sorted(frontend.shards), shards)
        live = [f"shard-{i}" for i in range(shards)]
        before, victim = None, None
        for next_victim in kills + [None]:
            assert _alive(frontend) == live
            if not live:
                break
            homes = {key: frontend.route(key) for key in KEYS}
            for key, home in homes.items():
                assert home == _reference(key, live)
                if before is not None and before[key] != victim:
                    assert home == before[key]
            before, victim = homes, next_victim
            frontend.kill_shard(victim)
            live.remove(victim)
        with pytest.raises(ConfigError):
            frontend.route(KEYS[0])


def test_killed_shard_leaves_the_live_set_at_once():
    with CLOCK.scoped(start_ns=0.0):
        frontend = _frontend(4)
        frontend.kill_shard("shard-1")
        assert _alive(frontend) == ["shard-0", "shard-2", "shard-3"]
        assert all(frontend.route(key) != "shard-1" for key in KEYS)


def test_ties_go_to_the_first_live_shard(monkeypatch):
    # Force every score equal: the reference's ``max`` keeps the first
    # live shard, and so must ``route``.
    import hashlib

    class Flat:
        def __init__(self, *args, **kwargs):
            pass

        def digest(self):
            return bytes(8)

    with CLOCK.scoped(start_ns=0.0):
        frontend = _frontend(3)
        monkeypatch.setattr(hashlib, "blake2b", Flat)
        assert frontend.route(7) == "shard-0"
        frontend.kill_shard("shard-0")
        assert frontend.route(7) == "shard-1"

"""The fleet trace keeps a sample of served requests plus every late or
failed one, and nothing but the trace depends on the sample.

Each campaign here runs twice: as shipped (one served request in
``TRACE_SAMPLE_EVERY`` keeps its pipeline window) and with every window
kept (``TRACE_SAMPLE_EVERY`` patched to 1), which is the trace the fleet
wrote before sampling existed.
"""

import json

import pytest

from repro.fleet import shard as shard_module
from repro.fleet.harness import FleetConfig, run_fleet
from repro.fleet.shard import FleetShard
from repro.resilience.chaos import fault_plan_for
from repro.resilience.faults import FaultInjector
from repro.sfm.page import PAGE_SIZE
from repro.sim import CLOCK
from repro.sim.context import run_context
from repro.telemetry.session import RING_CAPACITY_ENV
from repro.telemetry.trace import TraceRing

#: A short 5x-spike campaign. Under the full chaos fault profile it
#: sheds, fails loads of poisoned pages, serves a store after its
#: deadline and dumps the flight recorder on every poison and SLO burn.
CONFIG = FleetConfig(
    seed=7,
    shards=2,
    steady_rate_rps=17_500.0,
    steady_ns=20e6,
    spike_ns=15e6,
    drain_guard_ns=5e6,
    recovery_ns=20e6,
)

#: Ring capacity of the overflow campaign (far below its kept events).
SMALL_RING = 64


def _campaign(out_dir, every, ring_capacity=None, served=None):
    """Run CONFIG into ``out_dir`` with ``TRACE_SAMPLE_EVERY = every``;
    with ``served`` given, append one record per request ``_serve``
    handled: (op, key, service start, status, done, deadline)."""
    injector = FaultInjector(fault_plan_for("full", seed=3))
    with pytest.MonkeyPatch.context() as patch, run_context(injector=injector):
        patch.setattr(shard_module, "TRACE_SAMPLE_EVERY", every)
        if ring_capacity is not None:
            patch.setenv(RING_CAPACITY_ENV, str(ring_capacity))
        if served is not None:
            serve = FleetShard._serve

            def recording_serve(self, req):
                start_ns = CLOCK.now_ns()
                serve(self, req)
                served.append((
                    req.op, req.key, start_ns, req.status, req.done_ns,
                    req.deadline_ns,
                ))

            patch.setattr(FleetShard, "_serve", recording_serve)
        run_fleet(CONFIG, out_dir)
    return out_dir


def _load(out_dir, name):
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


def _events(out_dir):
    """The trace's events with each tid replaced by its track name (tids
    are numbered in order of first use, which sampling can change)."""
    records = _load(out_dir, "trace.json")["traceEvents"]
    tracks = {
        r["tid"]: r["args"]["name"]
        for r in records if r["name"] == "thread_name"
    }
    events = []
    for record in records:
        if record["ph"] == "M":
            continue
        record = dict(record)
        record["tid"] = tracks[record["tid"]]
        events.append(record)
    return events


def _key(event):
    return json.dumps(event, sort_keys=True)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    served = []
    sampled = _campaign(tmp_path_factory.mktemp("sampled"), 8, served=served)
    full = _campaign(tmp_path_factory.mktemp("full"), 1)
    return sampled, full, served


def test_only_the_trace_depends_on_the_sample(runs):
    sampled, full, _ = runs
    assert (sampled / "fleet_report.json").read_bytes() == (
        full / "fleet_report.json"
    ).read_bytes()
    dumps = sorted(path.name for path in sampled.glob("flight_*.json"))
    assert dumps, "the campaign left no flight dump to compare"
    assert dumps == sorted(path.name for path in full.glob("flight_*.json"))
    for name in dumps:
        assert (sampled / name).read_bytes() == (full / name).read_bytes()
    metrics, baseline = _load(sampled, "metrics.json"), _load(full, "metrics.json")
    sampled_out = metrics["registry"].pop("trace.sampled_out")
    assert baseline["registry"].pop("trace.sampled_out") == 0
    assert metrics["registry"] == baseline["registry"]
    assert sampled_out == metrics["trace"]["sampled_out"] > 0
    assert baseline["trace"]["sampled_out"] == 0


def test_the_trace_differs_only_by_dropped_windows(runs):
    sampled, full, _ = runs
    kept, everything = _events(sampled), _events(full)
    # The sampled trace is the full one with events left out, in order.
    remaining = iter(map(_key, everything))
    assert all(key in remaining for key in map(_key, kept))
    doc = _load(sampled, "trace.json")
    assert doc["otherData"] == {
        "dropped_events": 0,
        "sampled_out_events": len(everything) - len(kept),
    }
    assert _load(full, "trace.json")["otherData"] == {"dropped_events": 0}
    # Fleet events outside any window are all kept.
    fleet = [_key(e) for e in everything if e["tid"] == "fleet"]
    assert fleet and fleet == [_key(e) for e in kept if e["tid"] == "fleet"]


def test_every_parent_resolves_to_a_kept_span(runs):
    sampled, _, _ = runs
    events = _events(sampled)
    spans = {e["args"]["span"] for e in events if "span" in e.get("args", {})}
    parents = [e["args"]["parent"] for e in events if "parent" in e.get("args", {})]
    assert parents
    assert set(parents) <= spans


def test_late_and_failed_requests_keep_their_pipeline_span(runs):
    sampled, full, served = runs

    def pipeline_spans(out_dir):
        return {
            (e["name"], e["args"]["vaddr"], e["ts"])
            for e in _events(out_dir) if e["name"].startswith("pipeline_")
        }

    late_or_failed = {
        ("pipeline_" + op, key * PAGE_SIZE, start_ns / 1e3)
        for op, key, start_ns, status, done_ns, deadline_ns in served
        if status != "served" or done_ns > deadline_ns
    }
    expected = late_or_failed & pipeline_spans(full)
    assert expected, "no late or failed request left a pipeline span"
    assert expected <= pipeline_spans(sampled)
    # ...and most served requests were sampled out.
    assert len(pipeline_spans(sampled)) < len(pipeline_spans(full)) / 2


def test_an_overflowing_ring_keeps_the_newest_kept_events(
    runs, tmp_path, monkeypatch
):
    sampled, _, _ = runs
    # A dropped window never evicts a kept event: every commit that
    # drops its window leaves the full ring exactly as the mark found it.
    mark, commit = TraceRing.mark, TraceRing.commit
    at_mark, drops = {}, []

    def checked_mark(ring):
        at_mark[id(ring)] = ring.events()
        mark(ring)

    def checked_commit(ring, keep):
        commit(ring, keep)
        if not keep:
            drops.append(ring.events() == at_mark[id(ring)])

    monkeypatch.setattr(TraceRing, "mark", checked_mark)
    monkeypatch.setattr(TraceRing, "commit", checked_commit)
    small = _campaign(tmp_path, 8, ring_capacity=SMALL_RING)
    assert drops and all(drops)
    # ...so the small ring holds exactly the newest SMALL_RING events
    # the large ring kept.
    kept = _events(sampled)
    assert len(kept) > SMALL_RING
    assert list(map(_key, _events(small))) == list(map(_key, kept[-SMALL_RING:]))
    trace = _load(small, "metrics.json")["trace"]
    assert trace["events"] == SMALL_RING
    assert trace["dropped"] == len(kept) - SMALL_RING
    assert trace["sampled_out"] == _load(sampled, "metrics.json")["trace"]["sampled_out"]

"""TierPipeline health: breakers, quarantine routing, drain, spill guard."""

import pytest

from repro.dfm.backend import DfmBackend
from repro.errors import CorruptedBlobError, SfmError, TierUnavailableError
from repro.resilience import faults
from repro.resilience.breaker import BreakerConfig
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sfm.backend import SfmBackend
from repro.sfm.metrics import BandwidthLedger, SwapStats
from repro.sfm.page import PAGE_SIZE
from repro.sim.context import run_context
from repro.tiering import SwapOutcome
from repro.tiering.pipeline import FAILURE_REASONS, TierPipeline


def _page(key: int) -> bytes:
    unit = bytes([(key * 7 + j) % 13 for j in range(64)])
    return (unit * (PAGE_SIZE // len(unit)))[:PAGE_SIZE]


def _pipeline(**kwargs):
    """CPU-zswap -> XFM -> DFM with tight breakers for fast tripping."""
    defaults = dict(
        cpu_capacity_bytes=64 * 1024,
        xfm_capacity_bytes=64 * 1024,
        dfm_capacity_bytes=256 * 1024,
        breaker_config=BreakerConfig(
            failure_threshold=2, cooldown_ops=3, probes_to_close=1
        ),
    )
    defaults.update(kwargs)
    return TierPipeline.build(**defaults)


class _LinkDownTier:
    """Protocol-shaped stub whose every store fails with ``link-error``;
    counts how many pages it was offered."""

    tier_name = "flaky"
    capacity_bytes = 64 * PAGE_SIZE

    def __init__(self):
        self.stats = SwapStats()
        self.ledger = BandwidthLedger()
        self.offers = 0

    def swap_out(self, page):
        self.offers += 1
        return SwapOutcome(accepted=False, reason="link-error")

    def swap_in(self, page):
        raise AssertionError("the stub never holds a page")

    promote = swap_in

    def invalidate(self, vaddr):
        return False

    def contains(self, vaddr):
        return False

    def stored_pages(self):
        return 0

    def used_bytes(self):
        return 0

    def effective_bytes_freed(self):
        return 0

    def compact(self):
        return 0

    def swap_latency_s(self, direction):
        return 0.0


class TestBreakerIntegration:
    def test_breaker_trips_mid_demotion_round(self):
        """A tier failing every store is offered demotion victims only
        until its breaker opens, even inside one round; the rest of the
        round routes around it."""
        flaky = _LinkDownTier()
        pipeline = TierPipeline([
            ("cpu-zswap", SfmBackend(capacity_bytes=64 * PAGE_SIZE)),
            ("flaky", flaky),
            ("dfm", DfmBackend(capacity_bytes=64 * PAGE_SIZE)),
        ])
        for key in range(16):
            assert pipeline.store(key, _page(key))
        assert flaky.offers == 0
        assert pipeline.demote_coldest(8) == 8
        threshold = BreakerConfig().failure_threshold
        assert flaky.offers == threshold
        assert pipeline.pipeline_stats.quarantine_skips == 8 - threshold == 5
        assert pipeline.breaker_states()["flaky"] == "open"
        for key in range(8):
            assert pipeline.tier_of_key(key) == "dfm"
            assert pipeline.load(key) == _page(key)

    def test_link_failures_trip_dfm_breaker_and_stores_route_around(self):
        pipeline = _pipeline(
            # Tiny upper tiers: stores fall through to DFM quickly.
            cpu_capacity_bytes=4 * 1024,
            xfm_capacity_bytes=4 * 1024,
        )
        plan = FaultPlan(
            seed=1,
            specs=(FaultSpec(faults.DFM_LINK_ERROR, probability=1.0),),
        )
        with run_context(injector=FaultInjector(plan)):
            for key in range(12):
                pipeline.store(key, _page(key))
        assert pipeline.breaker_states()["dfm"] == "open"
        assert pipeline.pipeline_stats.quarantine_skips > 0
        assert pipeline.pipeline_stats.tier_errors == 0  # rejects, not raises
        # No accepted page went to the failing tier while it was up.
        assert pipeline.tiers_by_name()["dfm"].stored_pages() == 0

    def test_breaker_recloses_after_cooldown_probe(self):
        pipeline = _pipeline(
            cpu_capacity_bytes=4 * 1024, xfm_capacity_bytes=4 * 1024
        )
        plan = FaultPlan(
            seed=1,
            specs=(FaultSpec(faults.DFM_LINK_ERROR, probability=1.0),),
        )
        with run_context(injector=FaultInjector(plan)):
            for key in range(6):
                pipeline.store(key, _page(key))
        assert pipeline.breaker_states()["dfm"] == "open"
        # Fault cleared: cooldown ticks on skipped ops, then the
        # half-open probe succeeds and the tier rejoins.
        for key in range(100, 112):
            pipeline.store(key, _page(key))
        assert pipeline.breaker_states()["dfm"] == "closed"
        assert pipeline.tiers_by_name()["dfm"].stored_pages() > 0

    def test_transitions_counted_in_registry(self):
        pipeline = _pipeline(
            cpu_capacity_bytes=4 * 1024, xfm_capacity_bytes=4 * 1024
        )
        plan = FaultPlan(
            seed=1,
            specs=(FaultSpec(faults.DFM_LINK_ERROR, probability=1.0),),
        )
        with run_context(injector=FaultInjector(plan)):
            for key in range(6):
                pipeline.store(key, _page(key))
        snapshot = pipeline.registry.snapshot()
        assert any(
            name.startswith("tier_breaker.transitions")
            and "tier=dfm" in name and "to=open" in name
            for name in snapshot
        )

    def test_capacity_rejects_do_not_feed_breakers(self):
        assert "pool-full" not in FAILURE_REASONS
        assert "incompressible" not in FAILURE_REASONS
        pipeline = _pipeline(
            cpu_capacity_bytes=4 * 1024,
            xfm_capacity_bytes=4 * 1024,
            dfm_capacity_bytes=4 * 1024,
        )
        for key in range(20):
            pipeline.store(key, _page(key))
        assert all(
            state == "closed"
            for state in pipeline.breaker_states().values()
        )


class TestDrain:
    def test_drain_relocates_pages_off_a_tier(self):
        pipeline = _pipeline()
        for key in range(8):
            assert pipeline.store(key, _page(key))
        origin = pipeline.tier_of_key(0)
        held = pipeline.tiers_by_name()[origin].stored_pages()
        assert held > 0
        moved = pipeline.drain_tier(origin)
        assert moved == held
        assert pipeline.tiers_by_name()[origin].stored_pages() == 0
        assert pipeline.pipeline_stats.drained_pages == moved
        # Every page survives the relocation byte-for-byte.
        for key in range(8):
            assert pipeline.load(key) == _page(key)

    def test_drain_respects_limit_and_skips_origin(self):
        pipeline = _pipeline()
        for key in range(6):
            assert pipeline.store(key, _page(key))
        origin = pipeline.tier_of_key(0)
        before = pipeline.tiers_by_name()[origin].stored_pages()
        assert pipeline.drain_tier(origin, limit=2) == 2
        assert (
            pipeline.tiers_by_name()[origin].stored_pages() == before - 2
        )

    def test_drain_unknown_tier_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            _pipeline().drain_tier("nope")


class TestLoadFailureModes:
    def test_tier_unavailable_load_is_retryable(self):
        pipeline = _pipeline(
            cpu_capacity_bytes=4 * 1024, xfm_capacity_bytes=4 * 1024
        )
        assert pipeline.store(0, _page(0))
        assert pipeline.tier_of_key(0) == "dfm"
        plan = FaultPlan(
            seed=1,
            specs=(FaultSpec(faults.DFM_LINK_ERROR, probability=1.0),),
        )
        with run_context(injector=FaultInjector(plan)):
            with pytest.raises(TierUnavailableError):
                pipeline.load(0)
        assert pipeline.pipeline_stats.tier_errors == 1
        # Mapping survived; the same load succeeds once the link is up.
        assert pipeline.load(0) == _page(0)

    def test_corrupted_load_is_explicit_and_accounted(self):
        pipeline = _pipeline()
        assert pipeline.store(0, _page(0))
        assert pipeline.tier_of_key(0) == "cpu-zswap"
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(
                    faults.ZPOOL_MEDIA_CORRUPTION,
                    probability=1.0,
                    max_fires=1,
                ),
            ),
        )
        with run_context(injector=FaultInjector(plan)):
            with pytest.raises(CorruptedBlobError):
                pipeline.load(0)
        assert pipeline.pipeline_stats.data_loss_events == 1
        # The key is gone for good — a silent miss would be a bug, and
        # so would a second success.
        assert pipeline.load(0) is None

    def test_poisoned_vaddr_raises_explicitly_via_demotion(self):
        """Corruption discovered mid-demotion poisons the vaddr; the
        later keyed load reports CorruptedBlobError, not a miss."""
        pipeline = _pipeline()
        for key in range(4):
            assert pipeline.store(key, _page(key))
        origin = pipeline.tier_of_key(0)
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(
                    faults.ZPOOL_MEDIA_CORRUPTION,
                    probability=1.0,
                    max_fires=1,
                ),
            ),
        )
        with run_context(injector=FaultInjector(plan)):
            # Force the LRU-coldest (key 0) out of its tier.
            demoted = pipeline.demote_coldest(
                1, from_tier=pipeline.tier_names.index(origin)
            )
        assert demoted == 1  # the cascade continued past the loss
        assert pipeline.pipeline_stats.data_loss_events == 1
        with pytest.raises(CorruptedBlobError):
            pipeline.load(0)
        # Later keys are unaffected.
        assert pipeline.load(1) == _page(1)


class _Gate:
    """Admission policy that can be slammed shut mid-test, so the
    demotion put-back fails and the spill path actually fires."""

    def __init__(self):
        self.open = True

    def admit(self, tier) -> bool:
        return self.open


class TestSpillGuard:
    def _gated_pipeline(self, spill):
        gate = _Gate()
        pipeline = TierPipeline.build(
            cpu_capacity_bytes=64 * 1024,
            xfm_capacity_bytes=64 * 1024,
            dfm_capacity_bytes=64 * 1024,
            admission=gate,
            spill=spill,
        )
        return pipeline, gate

    def test_broken_spill_callback_is_counted_not_fatal(self):
        """Satellite regression: an exception escaping the demotion
        spill callback must not desync the pipeline."""

        def broken(vaddr, data):
            raise RuntimeError("spill sink is on fire")

        pipeline, gate = self._gated_pipeline(broken)
        for key in range(6):
            assert pipeline.store(key, _page(key))
        gate.open = False  # every tier now refuses admission
        for _ in range(3):
            # Victims are gathered in batches; once collected, a page
            # every tier (including its source) refuses must be spilled
            # — so each call spills its whole victim round, and the
            # third call finds nothing left to demote.
            assert pipeline.demote_coldest(3, from_tier=0) == 0
        assert pipeline.pipeline_stats.spill_callback_errors == 6
        assert pipeline.pipeline_stats.spills == 0
        # The pipeline stays consistent: every still-held key loads.
        gate.open = True
        for key in range(6):
            if pipeline.tier_of_key(key) is not None:
                assert pipeline.load(key) == _page(key)

    def test_working_spill_callback_still_counts_spills(self):
        spilled = {}
        pipeline, gate = self._gated_pipeline(
            lambda vaddr, data: spilled.__setitem__(vaddr, data)
        )
        for key in range(6):
            assert pipeline.store(key, _page(key))
        gate.open = False
        for _ in range(3):
            pipeline.demote_coldest(3, from_tier=0)
        # Batched victim rounds: both calls that found victims spilled
        # their whole round (see the broken-callback test above).
        assert pipeline.pipeline_stats.spills == len(spilled) == 6
        assert pipeline.pipeline_stats.spill_callback_errors == 0
        # Spilled pages carry the right bytes to the backing device.
        for vaddr, data in spilled.items():
            assert data == _page(vaddr // PAGE_SIZE)


class TestHalfOpenProbeAccounting:
    """Half-open probes are first-class registry counters, and the
    trace instants carry the pipeline's trace labels (shard + tier)."""

    def _trip_and_reclose(self, pipeline):
        plan = FaultPlan(
            seed=1,
            specs=(FaultSpec(faults.DFM_LINK_ERROR, probability=1.0),),
        )
        with run_context(injector=FaultInjector(plan)):
            for key in range(6):
                pipeline.store(key, _page(key))
        assert pipeline.breaker_states()["dfm"] == "open"
        for key in range(100, 112):
            pipeline.store(key, _page(key))
        assert pipeline.breaker_states()["dfm"] == "closed"

    def test_probe_results_counted_with_trace_labels(self):
        pipeline = _pipeline(
            cpu_capacity_bytes=4 * 1024,
            xfm_capacity_bytes=4 * 1024,
            trace_labels={"shard": "shard-3"},
        )
        self._trip_and_reclose(pipeline)
        snapshot = pipeline.registry.snapshot()
        assert any(
            name.startswith("tier_breaker.probe_results")
            and "tier=dfm" in name
            and "result=success" in name
            and "shard=shard-3" in name
            for name in snapshot
        )

    def test_probe_and_transition_instants_carry_shard_label(self):
        from repro.telemetry.session import TelemetrySession

        session = TelemetrySession()
        with session:
            pipeline = _pipeline(
                cpu_capacity_bytes=4 * 1024,
                xfm_capacity_bytes=4 * 1024,
                registry=session.registry,
                trace_labels={"shard": "shard-3"},
            )
            self._trip_and_reclose(pipeline)
        probes = [
            e for e in session.ring.events() if e.name == "tier_breaker_probe"
        ]
        transitions = [
            e for e in session.ring.events() if e.name == "tier_breaker"
        ]
        assert probes and transitions
        for event in probes + transitions:
            assert event.args["shard"] == "shard-3"
            assert event.args["tier"] == "dfm"
        assert any(e.args["result"] == "success" for e in probes)

"""TierPipeline health: breakers, quarantine routing, drain, spill guard."""

import pytest

from repro.dfm.backend import DfmBackend
from repro.errors import CorruptedBlobError, SfmError, TierUnavailableError
from repro.resilience import faults
from repro.resilience.breaker import BreakerConfig
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sfm.backend import SfmBackend
from repro.sfm.metrics import SwapStats, TrafficStats
from repro.sfm.page import PAGE_SIZE, Page
from repro.sim.context import run_context
from repro.tiering.protocol import SwapOutcome
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
        self.traffic = TrafficStats()
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


    @pytest.mark.parametrize(
        "path,error",
        [
            ("prefetch", CorruptedBlobError),
            ("prefetch", TierUnavailableError),
            ("demotion", TierUnavailableError),
            ("promote_up", CorruptedBlobError),
            ("promote_up", TierUnavailableError),
            ("drain", CorruptedBlobError),
            ("drain", TierUnavailableError),
        ],
    )
    def test_every_way_out_of_a_tier_accounts_its_failure(
        self, path, error, monkeypatch
    ):
        """Two pages sit in the middle tier; taking the first succeeds,
        taking the second raises ``error``. Every path counts one tier
        error, a corruption is one data loss and drops the page, an
        unreachable tier keeps it where it was; a load never poisons the
        vaddr, the other paths do; every successful take but a drain
        read credits the tier's breaker."""
        mid = _ArmedTier(SfmBackend(capacity_bytes=64 * PAGE_SIZE))
        pipeline = TierPipeline([
            ("cpu", SfmBackend(capacity_bytes=64 * PAGE_SIZE)),
            ("mid", mid),
            ("low", SfmBackend(capacity_bytes=64 * PAGE_SIZE)),
        ])
        first, second = (
            Page(vaddr=key * PAGE_SIZE, data=_page(key)) for key in (1, 2)
        )
        for page in (first, second):
            assert pipeline.swap_out(page).accepted
        assert pipeline.demote_coldest(2, from_tier=0) == 2
        assert pipeline.tier_of(second.vaddr) == "mid"
        credits = []
        breaker = pipeline.breakers[1]
        record_success = breaker.record_success
        monkeypatch.setattr(
            breaker, "record_success",
            lambda: credits.append(1) or record_success(),
        )
        mid.fail_on(second.vaddr, error)

        if path == "prefetch":
            assert pipeline.promote(first) == _page(1)
            with pytest.raises(error):
                pipeline.promote(second)
            landed = None
        elif path == "demotion":
            assert pipeline.demote_coldest(2, from_tier=1) == 1
            landed = "low"
        elif path == "promote_up":
            assert pipeline.promote_up(first.vaddr) == "cpu"
            if error is CorruptedBlobError:
                with pytest.raises(error):
                    pipeline.promote_up(second.vaddr)
            else:
                assert pipeline.promote_up(second.vaddr) == "mid"
                assert pipeline.pipeline_stats.promotions_blocked == 1
            landed = "cpu"
        else:
            moved = pipeline.drain_tier("mid")
            assert moved == 1
            landed = "cpu"

        stats = pipeline.pipeline_stats
        assert pipeline.tier_of(first.vaddr) == landed
        assert stats.tier_errors == 1
        assert len(credits) == (0 if path == "drain" else 1)
        lost = error is CorruptedBlobError
        assert stats.data_loss_events == int(lost)
        assert pipeline.contains(second.vaddr) is not lost
        assert pipeline.tier_of(second.vaddr) == (None if lost else "mid")
        if not lost:
            # Retryable: the same page comes back once the tier answers.
            assert pipeline.swap_in(second) == _page(2)
            return
        if path != "prefetch":
            # Poisoned: a later access is told the page was lost, once.
            with pytest.raises(CorruptedBlobError, match="poisoned"):
                pipeline.swap_in(second)
        with pytest.raises(SfmError, match="not in any pipeline tier"):
            pipeline.swap_in(second)

    def test_a_corrupted_load_does_not_poison(self):
        """A direct load reports the loss itself, so a second access is a
        plain miss, not a second poison report."""
        mid = _ArmedTier(SfmBackend(capacity_bytes=64 * PAGE_SIZE))
        pipeline = TierPipeline([("mid", mid)])
        page = Page(vaddr=PAGE_SIZE, data=_page(1))
        assert pipeline.swap_out(page).accepted
        mid.fail_on(page.vaddr, CorruptedBlobError)
        with pytest.raises(CorruptedBlobError):
            pipeline.swap_in(page)
        with pytest.raises(SfmError, match="not in any pipeline tier"):
            pipeline.swap_in(page)


class _ArmedTier:
    """A real tier whose take (``swap_in``/``promote``) of one vaddr
    raises once, as a failing device would: a corrupted blob is dropped
    first (the tier poisons it), an unreachable tier keeps it."""

    def __init__(self, tier):
        self._tier = tier
        self._armed = {}

    def __getattr__(self, name):
        return getattr(self._tier, name)

    def fail_on(self, vaddr, error):
        self._armed[vaddr] = error

    def _take(self, page, take):
        error = self._armed.pop(page.vaddr, None)
        if error is CorruptedBlobError:
            self._tier.invalidate(page.vaddr)
            raise CorruptedBlobError("injected", vaddr=page.vaddr)
        if error is not None:
            raise error("injected")
        return take(page)

    def swap_in(self, page):
        return self._take(page, self._tier.swap_in)

    def promote(self, page):
        return self._take(page, self._tier.promote)


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

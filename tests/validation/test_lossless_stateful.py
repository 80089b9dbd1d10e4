"""The lossless contract as one stateful test over the tier stack.

A Hypothesis state machine drives store / load / invalidate / promote /
demote / drain against a small :class:`TierPipeline` (upper tiers of a
few pages, a DFM floor that overflows into a spill dict) and checks
every step against the one :class:`ShadowOracle`: each acknowledged
page is in exactly one tier or the spill, nothing is ever returned
wrong, only typed errors escape, and simulated time never runs
backwards. The variant classes run the same rules under the chaos fault
profiles, where the stack may additionally report explicit losses — but
still never a silent one.

Tier-1 runs a short budget; the ``fuzz``-marked twin runs the long one
of :mod:`tests.hypothesis_settings` (and adds the ``full`` profile,
whose media corruption poisons pages).
"""

import contextlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.errors import CorruptedBlobError, SfmError, TierUnavailableError
from repro.resilience.breaker import BreakerConfig
from repro.resilience.chaos import fault_plan_for
from repro.resilience.faults import FaultInjector
from repro.sfm.page import PAGE_SIZE
from repro.sim import CLOCK
from repro.sim.context import run_context
from repro.tiering.pipeline import TierPipeline
from repro.tiering.policy import LruDemotion
from repro.validation.shadow import ShadowOracle
from repro.workloads.corpus import page_for
from tests.hypothesis_settings import fuzz_settings

KEYS = st.integers(0, 11)
#: ``page_for`` content ids: every 5th is incompressible (falls through).
CONTENTS = st.integers(0, 24)
PICK = st.integers(0, 1 << 16)
TIER_NAMES = ("cpu-zswap", "xfm", "dfm")


class LosslessPipeline(RuleBasedStateMachine):
    FAULT_PROFILE = None

    def __init__(self):
        super().__init__()
        self._scope = contextlib.ExitStack()
        self._scope.enter_context(CLOCK.scoped())
        self._scope.enter_context(run_context(validation=True))
        self.spill = {}
        self.pipeline = TierPipeline.build(
            cpu_capacity_bytes=3 * PAGE_SIZE,
            xfm_capacity_bytes=3 * PAGE_SIZE,
            dfm_capacity_bytes=4 * PAGE_SIZE,
            demotion=LruDemotion(watermark_fraction=0.5),
            spill=self.spill.__setitem__,
            breaker_config=BreakerConfig(),
        )
        self.oracle = ShadowOracle()
        self.last_ns = CLOCK.now_ns()

    @initialize(fault_seed=st.integers(0, 255))
    def inject_faults(self, fault_seed):
        if self.FAULT_PROFILE is not None:
            plan = fault_plan_for(self.FAULT_PROFILE, fault_seed)
            self.injector = FaultInjector(plan)
            self._scope.enter_context(run_context(injector=self.injector))

    def teardown(self):
        self._scope.close()

    # -- helpers ------------------------------------------------------------

    def _typed(self, call, *args):
        """Run one pipeline call; a typed error is returned, anything
        else propagates and fails the test."""
        CLOCK.advance_ns(1_000.0)
        try:
            return call(*args)
        except (TierUnavailableError, SfmError) as exc:
            return exc

    def _acked(self, pick):
        keys = self.oracle.keys()
        return keys[pick % len(keys)]

    def _places(self, key):
        vaddr = key * PAGE_SIZE
        places = [
            name
            for name, tier in self.pipeline.tiers_by_name().items()
            if tier.contains(vaddr)
        ]
        if vaddr in self.spill:
            places.append("spill")
        return places

    # -- rules --------------------------------------------------------------

    @rule(key=KEYS, content=CONTENTS)
    def store(self, key, content):
        data = page_for(0, content)
        # A re-store supersedes whatever copy the owner still had.
        self.spill.pop(key * PAGE_SIZE, None)
        self.oracle.forget(key)
        if self._typed(self.pipeline.store, key, data) is True:
            self.oracle.ack(key, data)

    @precondition(lambda self: len(self.oracle))
    @rule(pick=PICK)
    def load(self, pick):
        key = self._acked(pick)
        data = self._typed(self.pipeline.load, key)
        if isinstance(data, TierUnavailableError):
            return  # transient: still acknowledged, still resident
        if isinstance(data, CorruptedBlobError):
            assert self.oracle.lost(key)
            return
        if isinstance(data, SfmError):
            # Spilled mid-cascade: the backing device has it.
            data = self.spill.pop(key * PAGE_SIZE, None)
        assert self.oracle.check(key, data, "load")

    @precondition(lambda self: len(self.oracle))
    @rule(pick=PICK)
    def invalidate(self, pick):
        key = self._acked(pick)
        self._typed(self.pipeline.invalidate, key * PAGE_SIZE)
        self.spill.pop(key * PAGE_SIZE, None)
        self.oracle.forget(key)

    @precondition(lambda self: len(self.oracle))
    @rule(pick=PICK)
    def promote_key(self, pick):
        key = self._acked(pick)
        outcome = self._typed(self.pipeline.promote_key, key)
        if isinstance(outcome, CorruptedBlobError):
            assert self.oracle.lost(key)
        else:
            assert not isinstance(outcome, SfmError), outcome

    @rule(count=st.integers(1, 3), from_tier=st.integers(0, 1))
    def demote_coldest(self, count, from_tier):
        outcome = self._typed(self.pipeline.demote_coldest, count, from_tier)
        assert isinstance(outcome, int), outcome

    @rule(name=st.sampled_from(TIER_NAMES), limit=st.integers(1, 4))
    def drain_tier(self, name, limit):
        outcome = self._typed(self.pipeline.drain_tier, name, limit)
        assert isinstance(outcome, int), outcome

    # -- the contract -------------------------------------------------------

    @invariant()
    def lossless(self):
        now = CLOCK.now_ns()
        assert now >= self.last_ns, "simulated time ran backwards"
        self.last_ns = now
        for key in self.oracle.keys():
            places = self._places(key)
            if not places:
                # Nowhere: the page was poisoned mid-cascade, and the
                # stack must say so when asked for it.
                assert self.FAULT_PROFILE is not None, f"key {key} vanished"
                with pytest.raises(CorruptedBlobError):
                    self.pipeline.load(key)
                self.oracle.lost(key)
            else:
                assert len(places) == 1, (key, places)
        assert self.oracle.silent_corruptions == 0
        if self.FAULT_PROFILE is None:
            assert self.oracle.explicit_losses == 0
        stored = sum(tier.stored_pages() for tier in self.pipeline.tiers)
        assert stored + len(self.spill) == len(self.oracle)


class LosslessPipelineUnderFaults(LosslessPipeline):
    FAULT_PROFILE = "transient"


class LosslessPipelineUnderMediaFaults(LosslessPipeline):
    FAULT_PROFILE = "full"


_BUDGET = dict(max_examples=25, stateful_step_count=40)

TestLossless = LosslessPipeline.TestCase
TestLossless.settings = settings(**_BUDGET)
TestLosslessUnderFaults = LosslessPipelineUnderFaults.TestCase
TestLosslessUnderFaults.settings = settings(**_BUDGET)


@pytest.mark.fuzz
@pytest.mark.parametrize(
    "machine",
    [
        LosslessPipeline,
        LosslessPipelineUnderFaults,
        LosslessPipelineUnderMediaFaults,
    ],
)
def test_fuzz_lossless_state_machine(machine):
    run_state_machine_as_test(machine, settings=fuzz_settings(**_BUDGET))


def test_promotion_every_tier_refuses_spills_the_page():
    """The machine's first find, replayed: a link fault made even the
    old tier refuse a page back during ``promote_up``, which raised a
    bare ``SfmError`` and dropped the page although a spill was set."""
    state = LosslessPipelineUnderMediaFaults()
    try:
        state.inject_faults(fault_seed=135)
        for content, then in ((0, state.invalidate), (24, state.load)):
            state.demote_coldest(count=1, from_tier=0)
            state.store(key=0, content=content)
            then(pick=0)
        state.demote_coldest(count=1, from_tier=0)
        state.store(key=0, content=4)
        state.promote_key(pick=0)
        state.load(pick=0)
        state.demote_coldest(count=1, from_tier=0)
        state.store(key=0, content=24)
        state.promote_key(pick=0)
        state.lossless()
        assert state.spill and state.pipeline.pipeline_stats.spills == 1
    finally:
        state.teardown()

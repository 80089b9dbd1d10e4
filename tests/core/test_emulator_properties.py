"""Model-level properties of the Fig. 12 emulator, over random points.

The pinned digests in ``test_emulator_next_event.py`` prove that nothing
moved; these properties say what must hold at *any* point of the grid
(refresh policy, accesses/REF, SPM size, promotion rate, seed):

* **Conservation.** Every arrival either completed, fell back to the
  CPU, or is still in flight at the horizon, and the in-flight remainder
  fits the SPM (each op holds one page of it). Per-reason fallbacks sum
  to the total; the SPM peak never exceeds its capacity.
* **Invisibility.** Read from the traced window stream: each window
  executes at most the policy's ``access_budget``, at most
  ``random_per_ref`` of them random, and every conditional fixed-row
  access targets a row that window is refreshing.
* **No perturbation.** Tracing changes nothing in the report.

Tier-1 runs a short budget; the ``fuzz``-marked twin runs the long one
of :mod:`tests.hypothesis_settings`.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.emulator import EmulatorConfig, XfmEmulator
from repro.dram.refresh_policy import REFRESH_POLICIES
from repro.sfm.page import PAGE_SIZE
from repro.sim.context import run_context
from repro.telemetry import trace
from tests.hypothesis_settings import fuzz_settings

_points = st.builds(
    EmulatorConfig,
    refresh_policy=st.sampled_from(REFRESH_POLICIES),
    accesses_per_ref=st.integers(1, 3),
    spm_bytes=st.sampled_from([16, 64, 256, 1024, 8192]).map(
        lambda kib: kib * 1024
    ),
    promotion_rate=st.sampled_from([0.02, 0.1, 0.3, 0.6, 1.0]),
    # 2560 tREFI are enough for fixed rows to share a REF slot.
    sim_time_s=st.sampled_from([0.002, 0.01]),
    seed=st.integers(0, 2**16),
)

def _traced_run(config):
    emulator = XfmEmulator(config)
    ring = trace.TraceRing(capacity=1 << 20)
    with run_context(ring=ring):
        report = emulator.run()
    assert ring.dropped == 0
    return emulator, report, ring.events()


def check_conservation(config, report):
    in_flight = report.total_ops - report.completed_ops - report.fallback_ops
    assert 0 <= in_flight <= config.spm_bytes // PAGE_SIZE
    assert report.fallback_ops == (
        report.fallback_spm_full + report.fallback_queue_full
    )
    assert 0 <= report.spm_peak_bytes <= config.spm_bytes


def check_invisibility(emulator, config, events):
    policy = emulator.refresh.policy
    budget = policy.access_budget(config.accesses_per_ref)
    window = None
    executed = randoms = 0
    served = 0
    for event in events:
        if event.name == "ref_window":
            window = event.args
            executed = randoms = 0
        elif event.name == "window_access":
            assert window is not None, "access before any refresh window"
            served += 1
            executed += 1
            assert executed <= budget, (
                f"window {window['ref_index']} ran {executed} accesses, "
                f"budget {budget}"
            )
            args = event.args
            if args["conditional"]:
                row = args["row"]
                if row is not None:
                    assert window["row_start"] <= row < window["row_stop"], (
                        f"conditional access to row {row} outside window "
                        f"{window['ref_index']}'s rows"
                    )
            else:
                randoms += 1
                assert randoms <= config.random_per_ref
    return served


def check_properties(config):
    emulator, traced, events = _traced_run(config)
    check_conservation(config, traced)
    served = check_invisibility(emulator, config, events)
    assert served == traced.conditional_accesses + traced.random_accesses
    untraced = XfmEmulator(config).run()
    assert untraced == traced


#: Corners a short budget may miss: overloaded points where SPM
#: pressure fires randoms every window, and a long one with a large SPM
#: where conditional matches pile up behind flexible writebacks.
_CORNERS = [
    EmulatorConfig(
        refresh_policy=policy,
        accesses_per_ref=budget,
        spm_bytes=spm_kib * 1024,
        promotion_rate=1.0,
        sim_time_s=sim_time_s,
        seed=3,
    )
    for policy, budget, spm_kib, sim_time_s in (
        ("all-bank", 3, 64, 0.002),
        ("per-bank", 1, 64, 0.002),
        ("all-bank", 1, 8192, 0.01),
    )
]


@given(_points)
@example(_CORNERS[0])
@example(_CORNERS[1])
@example(_CORNERS[2])
@settings(max_examples=12)
def test_emulator_properties(config):
    check_properties(config)


@pytest.mark.fuzz
@given(_points)
@fuzz_settings(max_examples=12)
def test_fuzz_emulator_properties(config):
    check_properties(config)

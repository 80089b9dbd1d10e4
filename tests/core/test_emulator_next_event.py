"""Skip-ahead equivalence for the emulator's refresh stream.

The emulator answers each window with the next window index it needs
(``schedule_windows``' next-event contract), so idle stretches fire no
event. There is no fixed-increment reference left to diff against: the
reports below were pinned from the commit *before* the stream learned
to skip (every window fired), and must never move.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.core.emulator import EmulatorConfig, XfmEmulator
from repro.core.refresh_channel import WindowScheduler
from repro.sfm.page import PAGE_SIZE
from repro.sim.context import run_context
from repro.telemetry import trace
from repro.workloads.traces import SWAP_IN, SWAP_OUT, SwapTrace


def _digest(report) -> str:
    canonical = json.dumps(
        dataclasses.asdict(report),
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _config(policy, budget, rate, spm_kib, **overrides):
    return EmulatorConfig(
        refresh_policy=policy,
        accesses_per_ref=budget,
        promotion_rate=rate,
        spm_bytes=spm_kib * 1024,
        sim_time_s=0.01,
        seed=77,
        **overrides,
    )


#: (policy, accesses_per_ref, promotion_rate, SPM KiB) -> report digest
#: at the parent commit. Low rates are almost all idle windows, rate 1.0
#: with 256 KiB is overloaded and never idle.
PINNED_REPORTS = {
    ("all-bank", 1, 0.02, 256): "8ef1395fe7920a18",
    ("all-bank", 1, 0.02, 8192): "3b00ac6ec2c820df",
    ("all-bank", 1, 0.2, 256): "f06102746a2a89c4",
    ("all-bank", 1, 0.2, 8192): "39b271bb1fb8ebd5",
    ("all-bank", 1, 1.0, 256): "d68a1123f897c2f1",
    ("all-bank", 1, 1.0, 8192): "5ce920b3fb50bbd1",
    ("all-bank", 3, 0.02, 256): "a0b5d274c88aaee4",
    ("all-bank", 3, 0.02, 8192): "c9319e924934136d",
    ("all-bank", 3, 0.2, 256): "fd05c51614b9a0fe",
    ("all-bank", 3, 0.2, 8192): "429dbc193a068a3e",
    ("all-bank", 3, 1.0, 256): "859d9c50f4bb8446",
    ("all-bank", 3, 1.0, 8192): "dbffa693f64cdc86",
    ("per-bank", 1, 0.02, 256): "10b108a8b6866366",
    ("per-bank", 1, 0.02, 8192): "f4ca5cc7e5a460fc",
    ("per-bank", 1, 0.2, 256): "6c5359fe8c6cfe57",
    ("per-bank", 1, 0.2, 8192): "551a5096d02329e9",
    ("per-bank", 1, 1.0, 256): "2c533ffa82347165",
    ("per-bank", 1, 1.0, 8192): "ad98ab0afcaed72a",
    ("per-bank", 3, 0.02, 256): "527aff1c622da794",
    ("per-bank", 3, 0.02, 8192): "541c773840cfffe6",
    ("per-bank", 3, 0.2, 256): "8610a9b1c74cd54d",
    ("per-bank", 3, 0.2, 8192): "c4696d33de44cf00",
    ("per-bank", 3, 1.0, 256): "f5fa1bef39a67a25",
    ("per-bank", 3, 1.0, 8192): "518e99b10ec87d41",
}

PINNED_TRACE_REPORTS = {
    "all-bank": "c47ed70323386a6d",
    "per-bank": "4dc548df4aafa792",
}


def _bursty_trace() -> SwapTrace:
    """Six 40-op bursts ~770 idle tREFI apart."""
    rng = random.Random(5)
    swap_trace = SwapTrace()
    t = 0.0
    for burst in range(6):
        for i in range(40):
            t += rng.expovariate(1.0 / 2e-6)
            kind = SWAP_OUT if rng.random() < 0.6 else SWAP_IN
            swap_trace.record(t, kind, (burst * 40 + i) * PAGE_SIZE)
        t += 3e-3
    return swap_trace


def _count_drains(monkeypatch):
    """Count the windows the emulator's consumer actually runs."""
    drained = []
    drain_window = WindowScheduler.drain_window

    def counting(self, ref_index, pressure=False):
        drained.append(ref_index)
        return drain_window(self, ref_index, pressure=pressure)

    monkeypatch.setattr(WindowScheduler, "drain_window", counting)
    return drained


class TestPinnedReports:
    @pytest.mark.parametrize("point", sorted(PINNED_REPORTS))
    def test_synthetic_grid(self, point):
        report = XfmEmulator(_config(*point)).run()
        assert _digest(report) == PINNED_REPORTS[point]

    @pytest.mark.parametrize("policy", sorted(PINNED_TRACE_REPORTS))
    def test_trace_with_long_gaps(self, policy):
        emulator = XfmEmulator(
            EmulatorConfig(
                refresh_policy=policy,
                accesses_per_ref=1,
                spm_bytes=64 * 1024,
                seed=9,
            )
        )
        report = emulator.run_trace(_bursty_trace())
        assert _digest(report) == PINNED_TRACE_REPORTS[policy]

    def test_validation_checkpoints_hold_while_skipping(self):
        point = ("per-bank", 1, 0.2, 256)
        with run_context(validation=True):
            report = XfmEmulator(_config(*point)).run()
        assert _digest(report) == PINNED_REPORTS[point]


class TestSkipAhead:
    @pytest.mark.parametrize("policy", ["all-bank", "per-bank"])
    def test_idle_windows_fire_no_event(self, monkeypatch, policy):
        drained = _count_drains(monkeypatch)
        emulator = XfmEmulator(_config(policy, 3, 0.02, 8192))
        report = emulator.run()
        windows = 2560 * emulator.refresh.policy.windows_per_trefi
        assert report.completed_ops > 0
        assert drained == sorted(set(drained))
        # ~90 ops over 2560 tREFI: a few windows per op, not all of them.
        assert 0 < len(drained) < 12 * report.total_ops < windows / 2

    def test_overloaded_point_fires_every_window(self, monkeypatch):
        drained = _count_drains(monkeypatch)
        XfmEmulator(_config("all-bank", 1, 1.0, 256)).run()
        assert drained == list(range(2560))


class TestTracing:
    @pytest.mark.parametrize(
        "point",
        [("all-bank", 3, 0.2, 8192), ("per-bank", 1, 0.02, 256)],
    )
    def test_report_equal_and_every_window_traced(self, point):
        emulator = XfmEmulator(_config(*point))
        ring = trace.TraceRing(capacity=1 << 20)
        with run_context(ring=ring):
            traced = emulator.run()
        assert _digest(traced) == PINNED_REPORTS[point]
        windows = 2560 * emulator.refresh.policy.windows_per_trefi
        spans = [e for e in ring.events() if e.name == "ref_window"]
        assert [e.args["ref_index"] for e in spans] == list(range(windows))
        # Ring order is index order, with each window's accesses after
        # its own span: a skipped window's span never overtakes them.
        current = -1
        for event in ring.events():
            if event.name == "ref_window":
                current = event.args["ref_index"]
            elif event.name == "window_access":
                policy = emulator.refresh.policy
                assert event.ts_ns == policy.window(current).start_ns

"""TelemetrySession export, the golden emulator mini-trace, and the CLI."""

import json

import numpy as np
import pytest

from repro.core.emulator import EmulatorConfig, XfmEmulator
from repro.sfm.page import PAGE_SIZE
from repro.sim.context import current, run_context
from repro.telemetry import flightrec, trace
from repro.telemetry.session import TelemetrySession
from repro.campaigns import CAMPAIGNS, run
from repro.telemetry.runner import WORKLOADS


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSession:
    def test_enables_and_disables_tracing(self):
        assert not trace.tracing_enabled()
        with TelemetrySession() as session:
            assert trace.tracing_enabled()
            assert current().ring is session.ring
        assert not trace.tracing_enabled()

    def test_writes_trace_and_metrics(self, tmp_path):
        from repro.sfm.metrics import SwapStats

        with TelemetrySession(out_dir=tmp_path) as session:
            trace.instant("x", trace.TRACK_CPU)
            session.registry.counter("demo").inc(3)
            session.add_stats("swap", SwapStats(swap_outs=2))
        doc = _load(tmp_path / "trace.json")
        assert any(e["name"] == "x" for e in doc["traceEvents"])
        metrics = _load(tmp_path / "metrics.json")
        assert metrics["schema"] == 1
        assert metrics["registry"]["demo"] == 3
        assert metrics["stats"]["swap"]["swap_outs"] == 2
        assert metrics["trace"]["events"] == 1

    def test_no_write_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with TelemetrySession(out_dir=tmp_path):
                raise RuntimeError("boom")
        assert not (tmp_path / "trace.json").exists()


class TestRingCapacity:
    def test_kwarg_sets_capacity(self):
        session = TelemetrySession(ring_capacity=4)
        assert session.ring.capacity == 4

    def test_env_var_sets_default(self, monkeypatch):
        from repro.telemetry.session import RING_CAPACITY_ENV

        monkeypatch.setenv(RING_CAPACITY_ENV, "128")
        assert TelemetrySession().ring.capacity == 128

    def test_kwarg_wins_over_env(self, monkeypatch):
        from repro.telemetry.session import RING_CAPACITY_ENV

        monkeypatch.setenv(RING_CAPACITY_ENV, "128")
        assert TelemetrySession(ring_capacity=8).ring.capacity == 8

    def test_non_integer_env_raises(self, monkeypatch):
        from repro.errors import ConfigError
        from repro.telemetry.session import RING_CAPACITY_ENV

        monkeypatch.setenv(RING_CAPACITY_ENV, "lots")
        with pytest.raises(ConfigError):
            TelemetrySession()

    def test_default_capacity_without_env(self, monkeypatch):
        from repro.telemetry.session import (
            DEFAULT_RING_CAPACITY,
            RING_CAPACITY_ENV,
        )

        monkeypatch.delenv(RING_CAPACITY_ENV, raising=False)
        assert TelemetrySession().ring.capacity == DEFAULT_RING_CAPACITY

    def test_cli_campaigns_honour_the_env_var(self, monkeypatch, tmp_path):
        from repro.__main__ import main
        from repro.telemetry.session import RING_CAPACITY_ENV

        monkeypatch.setenv(RING_CAPACITY_ENV, "8")
        assert main(["trace", "zswap", "--out", str(tmp_path)]) == 0
        assert _load(tmp_path / "metrics.json")["trace"]["capacity"] == 8

    def test_dropped_events_exported_as_gauge(self, tmp_path):
        with TelemetrySession(out_dir=tmp_path, ring_capacity=2):
            for i in range(5):
                trace.instant(f"e{i}", trace.TRACK_CPU)
        metrics = _load(tmp_path / "metrics.json")
        assert metrics["registry"]["trace.ring_dropped"] == 3
        assert metrics["trace"]["dropped"] == 3
        assert metrics["trace"]["capacity"] == 2
        assert metrics["trace"]["events"] == 2


class TestFlightRecorderLifecycle:
    def test_session_installs_and_removes_recorder(self):
        assert current().flight is None
        with TelemetrySession() as session:
            assert current().flight is session.flight
        assert current().flight is None

    def test_nested_sessions_restore_outer_recorder(self):
        with TelemetrySession() as outer:
            with TelemetrySession() as inner:
                assert current().flight is inner.flight
                assert current().ring is inner.ring
            assert current().flight is outer.flight
            # The outer trace is still on and still its own.
            assert trace.tracing_enabled()
            assert current().ring is outer.ring
            trace.instant("after_inner", trace.TRACK_CPU)
        assert [e.name for e in outer.ring.events()] == ["after_inner"]
        assert not trace.tracing_enabled() and current().ring is None

    def test_trigger_dump_lands_in_out_dir_and_metrics(self, tmp_path):
        with TelemetrySession(out_dir=tmp_path):
            trace.instant("boom", trace.TRACK_CPU)
            flightrec.trigger(flightrec.REASON_POISON, {"vaddr": 0})
        assert (tmp_path / "flight_poison.json").exists()
        metrics = _load(tmp_path / "metrics.json")
        assert metrics["flight_records"] == [
            str(tmp_path / "flight_poison.json")
        ]


class TestGoldenEmulatorTrace:
    """A 3-window emulator run has a fully deterministic event sequence."""

    def _run(self):
        emulator = XfmEmulator(
            EmulatorConfig(spm_bytes=PAGE_SIZE, crq_depth=4)
        )
        comp = np.array([2, 1, 0])
        decomp = np.zeros(3, dtype=int)
        ring = trace.TraceRing()
        with run_context(ring=ring):
            report = emulator._simulate(comp, decomp)
        return emulator, ring, report

    def test_event_sequence(self):
        _, ring, _ = self._run()
        names = [e.name for e in ring.events()]
        assert names == [
            # REF 0: op 1 admitted, op 2 falls back (SPM holds one page),
            # op 1's read rides the window.
            "ref_window", "offload_enqueue", "cpu_fallback", "window_access",
            # REF 1: arrival falls back, op 1's grouped writeback lands.
            "ref_window", "cpu_fallback", "window_access", "offload_complete",
            # REF 2: idle window.
            "ref_window",
        ]

    def test_window_timestamps_follow_ref_cadence(self):
        emulator, ring, _ = self._run()
        trefi = emulator.timings.trefi_ns
        windows = [e for e in ring.events() if e.name == "ref_window"]
        assert [w.ts_ns for w in windows] == [0.0, trefi, 2 * trefi]
        assert all(w.dur_ns == emulator.timings.trfc_ns for w in windows)
        assert all(w.track == "refresh/ch0" for w in windows)

    def test_fallback_reasons_reconcile_with_report(self):
        _, ring, report = self._run()
        reasons = [
            e.args["reason"]
            for e in ring.events()
            if e.name == "cpu_fallback"
        ]
        assert report.total_ops == 3
        assert report.completed_ops == 1
        assert reasons.count("spm_full") == report.fallback_spm_full == 2
        assert reasons.count("queue_full") == report.fallback_queue_full == 0
        assert (
            report.fallback_spm_full + report.fallback_queue_full
            == report.fallback_ops
        )

    def test_untraced_run_is_identical(self):
        """Emission must never perturb the simulation itself."""
        _, _, traced = self._run()
        emulator = XfmEmulator(
            EmulatorConfig(spm_bytes=PAGE_SIZE, crq_depth=4)
        )
        untraced = emulator._simulate(
            np.array([2, 1, 0]), np.zeros(3, dtype=int)
        )
        assert untraced.total_ops == traced.total_ops
        assert untraced.fallback_ops == traced.fallback_ops
        assert untraced.completed_ops == traced.completed_ops
        assert untraced.conditional_accesses == traced.conditional_accesses


class TestRunnerAndCli:
    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            run(CAMPAIGNS["trace"], "nope")

    def test_zswap_workload_reconciles(self, tmp_path):
        report, written = run(CAMPAIGNS["trace"], "zswap", out_dir=tmp_path)
        assert written == [tmp_path / "trace.json", tmp_path / "metrics.json"]
        trace_doc = _load(tmp_path / "trace.json")
        metrics = _load(tmp_path / "metrics.json")

        tracks = {
            e["args"]["name"]
            for e in trace_doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert len(tracks) >= 3
        assert {"cpu", "nma", "driver", "refresh/ch0"} <= tracks

        by_reason = {}
        for event in trace_doc["traceEvents"]:
            if event["name"] == "cpu_fallback":
                reason = event["args"]["reason"]
                by_reason[reason] = by_reason.get(reason, 0) + 1
        swap = metrics["stats"]["swap"]
        assert by_reason.get("spm_full", 0) == swap["fallbacks_spm_full"] > 0
        assert (
            by_reason.get("queue_full", 0) == swap["fallbacks_queue_full"] > 0
        )
        assert (
            by_reason.get("demand_fault", 0) == swap["fallbacks_demand"] > 0
        )
        # Every fallback counter increments exactly one trace event.
        assert sum(by_reason.values()) == (
            swap["fallbacks_spm_full"]
            + swap["fallbacks_queue_full"]
            + swap["fallbacks_demand"]
        )
        assert report["summary"]["trace_events"] == metrics["trace"]["events"]

    def test_cli_trace_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "out"
        assert main(["trace", "zswap", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "trace workload: zswap" in printed
        assert (out / "trace.json").exists()
        assert (out / "metrics.json").exists()

    def test_cli_trace_emulator(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "out"
        assert main(["trace", "emulator", "--out", str(out)]) == 0
        assert "trace workload: emulator" in capsys.readouterr().out
        assert (out / "trace.json").exists()
        assert (out / "metrics.json").exists()

    def test_cli_trace_unknown_workload(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["trace", "bogus", "--out", str(tmp_path)]) == 2
        assert "unknown trace workload" in capsys.readouterr().err

    def test_all_workloads_registered(self):
        assert set(WORKLOADS) == {"zswap", "emulator", "tiers"}

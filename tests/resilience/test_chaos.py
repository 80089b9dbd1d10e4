"""Chaos harness: zero silent corruption, deterministic reports, CLI."""

import json
import random
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.resilience.chaos import (
    ChaosConfig,
    PROFILES,
    format_report,
    run_chaos,
)
from repro.resilience.faults import FaultInjector
from repro.validation.generators import gen_fault_plan


class TestCampaigns:
    def test_transient_profile_is_loss_free(self):
        """Every fault in the transient profile must be healed: no
        poison, no data loss, no silent corruption."""
        report = run_chaos(ChaosConfig(seed=3, ops=300))
        assert report["verdict"]["clean"]
        assert report["verdict"]["silent_corruptions"] == 0
        assert report["recovery"]["poison_pages"] == 0
        assert report["recovery"]["data_loss_events"] == 0
        assert report["faults"]["total_fires"] > 0

    def test_full_profile_detects_every_corruption(self):
        """Media corruption may lose pages — but every loss must be an
        explicit detection, never wrong bytes."""
        report = run_chaos(
            ChaosConfig(seed=7, ops=300, profile="full")
        )
        assert report["verdict"]["silent_corruptions"] == 0
        assert report["verdict"]["all_detections_accounted"]
        assert report["faults"]["by_site"].get("zpool.media_corruption")
        # Detections happened and were resolved one way or the other.
        recovery = report["recovery"]
        assert recovery["corruptions_detected"] > 0
        assert (
            recovery["corruptions_recovered"] + recovery["poison_pages"] > 0
        )

    def test_same_seed_identical_report(self):
        config = ChaosConfig(seed=11, ops=200, profile="full")
        a = run_chaos(config)
        b = run_chaos(config)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seed_different_faults(self):
        a = run_chaos(ChaosConfig(seed=1, ops=200, profile="full"))
        b = run_chaos(ChaosConfig(seed=2, ops=200, profile="full"))
        assert a["faults"] != b["faults"]

    def test_report_files_written_and_deterministic(self, tmp_path):
        config = ChaosConfig(seed=5, ops=150)
        run_chaos(config, tmp_path / "a")
        run_chaos(config, tmp_path / "b")
        for name in ("chaos_report.json", "trace.json", "metrics.json"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second, name
        report = json.loads(
            (tmp_path / "a" / "chaos_report.json").read_text()
        )
        assert report["schema"] == 1

    def test_poison_auto_dumps_flight_records(self, tmp_path):
        """The full profile's unhealed corruptions trip the flight
        recorder: each poisoned page leaves a ``flight_poison*.json``
        black box in the out dir, and the report lists the filenames."""
        report = run_chaos(
            ChaosConfig(seed=7, ops=300, profile="full"), tmp_path
        )
        assert report["recovery"]["poison_pages"] > 0
        names = report["flight_records"]
        assert names and names[0] == "flight_poison.json"
        for name in names:
            doc = json.loads((tmp_path / name).read_text())
            assert doc["reason"] == "poison"
            assert doc["events"]

    def test_flight_record_names_stay_in_report_without_out_dir(self):
        report = run_chaos(ChaosConfig(seed=7, ops=300, profile="full"))
        assert report["flight_records"]
        # Deterministic: same seed, same dump names.
        again = run_chaos(ChaosConfig(seed=7, ops=300, profile="full"))
        assert report["flight_records"] == again["flight_records"]

    def test_validation_hooks_hold_under_chaos(self):
        """The invariant checkers must pass while faults fire (the CI
        chaos-smoke gate)."""
        report = run_chaos(ChaosConfig(seed=3, ops=200, validate=True))
        assert report["verdict"]["clean"]

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            ChaosConfig(profile="nonsense")

    def test_format_report_mentions_verdict(self):
        report = run_chaos(ChaosConfig(seed=3, ops=100))
        text = format_report(report)
        assert "verdict" in text
        assert "silent_corruptions=0" in text


class TestFuzzedFaultPlans:
    """Satellite: seeded FaultPlan generation feeding the chaos loop."""

    def test_generated_plans_are_reproducible(self):
        for case in range(10):
            a = gen_fault_plan(random.Random(case))
            b = gen_fault_plan(random.Random(case))
            assert a == b
            assert a.specs  # never an empty schedule
            FaultInjector(a)  # always installable

    def test_fuzzed_campaigns_never_corrupt_silently(self):
        """A handful of randomly-shaped fault plans over the transient
        workload: whatever fires, silent corruption stays zero."""
        from repro.resilience.chaos import drive
        from repro.sim.context import run_context
        from repro.telemetry.session import TelemetrySession

        for case in range(4):
            plan = gen_fault_plan(random.Random(1000 + case))
            config = ChaosConfig(seed=plan.seed & 0xFFFF, ops=120)
            injector = FaultInjector(plan)
            session = TelemetrySession()
            with session, run_context(injector=injector):
                report = drive(config, session)
            assert report["verdict"]["silent_corruptions"] == 0, plan
            assert report["verdict"]["all_detections_accounted"], plan


class TestCli:
    def test_chaos_subcommand_smoke(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "chaos",
                "--seed", "3", "--ops", "150",
                "--profile", "transient",
                "--validation", "--fail-on-loss",
                "--out", str(tmp_path / "chaos"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "chaos campaign" in result.stdout
        assert (tmp_path / "chaos" / "chaos_report.json").exists()

    def test_profiles_registry(self):
        assert set(PROFILES) == {"transient", "full"}
        # Transient is strictly a subset of full (minus media faults).
        transient_sites = {s.site for s in PROFILES["transient"]}
        full_sites = {s.site for s in PROFILES["full"]}
        assert transient_sites < full_sites
        assert "zpool.media_corruption" not in transient_sites

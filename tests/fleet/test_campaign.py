"""Acceptance: the deterministic overload and failover campaigns.

These are the ISSUE's acceptance criteria, asserted under a fixed seed:
under a 5x arrival spike the fleet sheds rather than queueing
unboundedly (admitted-request spike p99 within 3x the steady p99, shed
rate > 0 during the spike, 0 after recovery), a chaos-killed shard
fails over with zero acknowledged-data loss, and the whole report is
byte-identical across repeat runs.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.fleet.harness import FleetConfig, format_report, run_fleet
from repro.sim.events import EventScheduler

#: Test-sized campaign: ~2900 arrivals, ~1.5 s host time.
SPIKE_CONFIG = FleetConfig(
    seed=7,
    shards=2,
    steady_rate_rps=17_500.0,
    steady_ns=30e6,
    spike_ns=20e6,
    drain_guard_ns=10e6,
    recovery_ns=30e6,
)

KILL_CONFIG = FleetConfig(
    seed=11,
    shards=3,
    steady_rate_rps=17_500.0,
    steady_ns=30e6,
    spike_ns=20e6,
    drain_guard_ns=10e6,
    recovery_ns=30e6,
    kill_shard_at_ns=45e6,  # mid-spike, the worst moment
)


@pytest.fixture(scope="module")
def spike_reports():
    """The spike campaign run twice (repeat-determinism evidence)."""
    return run_fleet(SPIKE_CONFIG), run_fleet(SPIKE_CONFIG)


@pytest.fixture(scope="module")
def kill_run(tmp_path_factory):
    """The failover campaign with its artifacts: the report and the
    exported registry series (``metrics.json``)."""
    out = tmp_path_factory.mktemp("fleet-kill")
    report = run_fleet(KILL_CONFIG, out)
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    return report, metrics["registry"]


@pytest.fixture(scope="module")
def kill_report(kill_run):
    return kill_run[0]


def _exported(registry, name, by):
    """Counter ``name`` in ``metrics.json``, summed per value of its
    ``by`` label."""
    out = {}
    for key, value in registry.items():
        metric, _, labels = key.partition("{")
        if metric != name:
            continue
        for pair in labels.rstrip("}").split(","):
            label, _, label_value = pair.partition("=")
            if label == by:
                out[label_value] = out.get(label_value, 0) + value
    return out


class TestOverloadContract:
    def test_spike_sheds_instead_of_queueing_unboundedly(self, spike_reports):
        report = spike_reports[0]
        assert report["phases"]["spike"]["shed"] > 0
        assert report["phases"]["spike"]["shed_rate"] > 0.1
        assert report["verdict"]["spike_shed"] is True

    def test_admitted_spike_p99_stays_bounded(self, spike_reports):
        report = spike_reports[0]
        steady_p99 = report["phases"]["steady"]["latency_ns"]["p99"]
        spike_p99 = report["phases"]["spike"]["latency_ns"]["p99"]
        assert steady_p99 > 0
        assert spike_p99 <= 3 * steady_p99

    def test_recovery_is_shed_free(self, spike_reports):
        report = spike_reports[0]
        assert report["phases"]["recovery"]["shed"] == 0
        assert report["verdict"]["recovery_clean"] is True

    def test_steady_phase_never_sheds(self, spike_reports):
        assert spike_reports[0]["phases"]["steady"]["shed"] == 0

    def test_no_acknowledged_data_loss(self, spike_reports):
        verdict = spike_reports[0]["verdict"]
        assert verdict["acked_data_lost"] == 0
        assert verdict["silent_corruptions"] == 0
        assert spike_reports[0]["sweep"]["lost"] == 0
        assert spike_reports[0]["sweep"]["corrupt"] == 0

    def test_brownout_enters_under_spike_and_degrades(self, spike_reports):
        brownout = spike_reports[0]["brownout"]
        assert brownout["entries"] >= 1
        assert brownout["degraded_ops"] > 0
        assert 0.0 < brownout["residency_fraction"] < 1.0

    def test_retry_budget_bounds_amplification(self, spike_reports):
        report = spike_reports[0]
        budget = report["retry_budget"]
        # Retries happened, but the governor refused the storm: retry
        # traffic stayed a small fraction of admitted work.
        assert budget["retries_scheduled"] > 0
        assert budget["fast_fails"] > 0
        served = sum(report["phases"][p]["served"] for p in report["phases"])
        assert budget["spent"] <= 0.2 * served

    def test_per_tenant_fairness(self, spike_reports):
        # Equal shares + equal quotas: shedding must not starve anyone.
        ratio = spike_reports[0]["fairness"]["max_min_goodput_ratio"]
        assert 1.0 <= ratio < 1.5

    def test_availability_burn_dumps_flight_record(self, spike_reports):
        report = spike_reports[0]
        assert report["slo"]["fleet-availability"]["met"] is False
        assert any(
            name.startswith("flight_slo_burn")
            for name in report["flight_records"]
        )

    def test_latency_slos_hold_for_admitted_requests(self, spike_reports):
        # Shed-before-work means what *is* admitted still meets its
        # latency SLO even mid-overload.
        slo = spike_reports[0]["slo"]
        assert slo["fleet-store-latency"]["met"] is True
        assert slo["fleet-load-latency"]["met"] is True

    def test_report_is_byte_identical_across_runs(self, spike_reports):
        first, second = spike_reports
        a = json.dumps(first, indent=2, sort_keys=True)
        b = json.dumps(second, indent=2, sort_keys=True)
        assert a == b

    def test_format_report_renders(self, spike_reports):
        text = format_report(spike_reports[0])
        assert "fleet campaign" in text
        assert "verdict" in text

    def test_format_report_has_no_failover_line_without_a_kill(
        self, spike_reports
    ):
        assert "failover" not in format_report(spike_reports[0])


class TestFailoverContract:
    def test_killed_shard_relocates_with_zero_loss(self, kill_report):
        failover = kill_report["failover"]
        assert failover["relocated"] > 0
        assert failover["lost"] == 0

    def test_format_report_prints_the_failover_line(self, kill_report):
        lines = format_report(kill_report).splitlines()
        assert f"  failover: {kill_report['failover']}" in lines

    def test_zero_acknowledged_loss_through_kill(self, kill_report):
        verdict = kill_report["verdict"]
        assert verdict["acked_data_lost"] == 0
        assert verdict["silent_corruptions"] == 0
        sweep = kill_report["sweep"]
        assert sweep["checked"] > 0
        assert sweep["lost"] == 0
        assert sweep["corrupt"] == 0

    def test_fleet_keeps_serving_after_kill(self, kill_report):
        # Recovery happens on the surviving shards: still shed-free.
        assert kill_report["phases"]["recovery"]["shed"] == 0
        assert kill_report["phases"]["recovery"]["served"] > 0

    def test_kill_campaign_deterministic(self):
        a = json.dumps(run_fleet(KILL_CONFIG), sort_keys=True)
        b = json.dumps(run_fleet(KILL_CONFIG), sort_keys=True)
        assert a == b


class TestReportMatchesMetrics:
    """``fleet_report.json`` and ``metrics.json`` carry one count per
    event: every report figure the registry also exports equals its
    series, and the harness's per-phase tallies add up to the same
    totals."""

    def test_tenants(self, kill_run):
        report, registry = kill_run
        tenants = report["tenants"]
        for field, name in (
            ("offered", "fleet.requests"),
            ("served", "fleet.served"),
            ("shed", "fleet.shed"),
        ):
            exported = _exported(registry, name, "tenant")
            assert {t: row[field] for t, row in tenants.items()} == {
                t: exported.get(t, 0) for t in tenants
            }, field
            assert sum(row[field] for row in tenants.values()) == sum(
                phase[field] for phase in report["phases"].values()
            ), field

    def test_shed_reasons(self, kill_run):
        report, registry = kill_run
        by_reason = report["shedding"]["by_reason"]
        assert by_reason and by_reason == _exported(
            registry, "fleet.shed", "reason"
        )

    def test_retry_budget(self, kill_run):
        report, registry = kill_run
        budget = report["retry_budget"]
        events = _exported(registry, "fleet.retry_budget", "event")
        assert budget["spent"] == budget["retries_scheduled"] == events["spent"]
        assert budget["refused"] == budget["fast_fails"] == events["refused"]
        assert budget["spent"] > 0 and budget["refused"] > 0
        # A scheduled retry of a load whose page was claimed meanwhile
        # is never re-offered.
        assert 0 < sum(
            phase["retries"] for phase in report["phases"].values()
        ) <= budget["spent"]

    def test_brownout_transitions(self, kill_run):
        report, registry = kill_run
        brownout = report["brownout"]
        to = _exported(registry, "fleet.brownout.transitions", "to")
        assert brownout["entries"] == to.get("brownout", 0) > 0
        assert brownout["exits"] == to.get("normal", 0)

    def test_relocated_pages(self, kill_run):
        report, registry = kill_run
        failover = report["failover"]
        assert failover["relocated_pages_total"] == failover["relocated"] > 0
        assert registry["fleet.relocated_pages"] == failover["relocated"]


class TestReportArtifacts:
    def test_out_dir_writes_report_and_flight_dumps(self, tmp_path):
        config = FleetConfig(
            seed=3,
            shards=2,
            steady_rate_rps=17_500.0,
            steady_ns=8e6,
            spike_ns=8e6,
            drain_guard_ns=4e6,
            recovery_ns=8e6,
        )
        report = run_fleet(config, tmp_path)
        on_disk = json.loads(
            (tmp_path / "fleet_report.json").read_text(encoding="utf-8")
        )
        assert on_disk == json.loads(json.dumps(report))
        assert (tmp_path / "trace.json").exists()
        metrics = json.loads(
            (tmp_path / "metrics.json").read_text(encoding="utf-8")
        )
        # No kill, so no relocation series: the report reads it as 0
        # without creating it.
        assert report["failover"] == {"relocated_pages_total": 0}
        assert "fleet.relocated_pages" not in metrics["registry"]
        for name in report["flight_records"]:
            assert (tmp_path / name).exists()


class TestSafetyBound:
    def test_campaign_cut_at_its_event_bound_raises(self, monkeypatch):
        # A report over a partial run must never be written silently.
        run = EventScheduler.run
        monkeypatch.setattr(
            EventScheduler, "run", lambda self, max_events=None: run(self, 50)
        )
        with pytest.raises(ConfigError, match="safety bound"):
            run_fleet(
                FleetConfig(
                    seed=5, shards=2, steady_rate_rps=17_500.0,
                    steady_ns=4e6, spike_ns=2e6, drain_guard_ns=1e6,
                    recovery_ns=3e6,
                )
            )

"""CLI entry-point tests."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.experiments import EXPERIMENTS
from repro.campaigns import CAMPAIGNS
from repro.sim import CLOCK
from repro.sim.context import current, run_context

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


@pytest.fixture(autouse=True)
def _run_state_is_restored():
    """Every in-process ``main([...])`` hands back the run context it
    found (the same object) and the simulated clock's ticks."""
    before, ticks = current(), CLOCK.now_ticks()
    yield
    assert current() is before and CLOCK.now_ticks() == ticks


def _report_field(out: str, key: str) -> str:
    """Value of one ``key : value`` line in a rendered replay report."""
    for line in out.splitlines():
        if ":" in line and line.split(":")[0].strip() == key:
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in output:\n{out}")


def test_closed_stdout_ends_quietly():
    """``python -m repro list | head -0``: the CLI writes into a pipe
    whose reader is gone and stops with the status of a writer killed
    by SIGPIPE, printing no traceback. The read end is closed before
    the CLI starts, so its first write meets the closed pipe however
    the two processes are scheduled (a reader that closes after one
    line can lose the race: the whole listing fits the pipe buffer).
    ``-u`` makes that write happen inside the command, not at exit.
    What ``list`` prints is checked by ``TestCli::test_list_is_default``."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "list"],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 128 + signal.SIGPIPE, stderr
    assert stderr == b""


class TestCli:
    def test_list_is_default(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "available experiments" in out
        for name in EXPERIMENTS:
            assert name in out

    def test_single_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "DDR5-32Gb" in out

    def test_multiple_experiments(self, capsys):
        assert main(["table2", "table3"]) == 0
        out = capsys.readouterr().out
        assert "LUTs" in out and "Dynamic" in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_budget(self, capsys):
        assert main(["budget"]) == 0
        assert "locked fraction" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_fast_experiments_run(self, name, capsys):
        """Each experiment prints exactly the committed text of the
        results file(s) it owns, which its bench writes from the same
        data. A diff means a paper number or its rendering moved; rerun
        the benches to regenerate only if the shift is intended."""
        assert main([name]) == 0
        committed = "".join(
            (RESULTS / f"{stem}.txt").read_text(encoding="utf-8")
            for stem in EXPERIMENTS[name].results
        )
        assert capsys.readouterr().out == committed

    def test_export_writes_figure_data(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "data")]) == 0
        written = {p.name for p in (tmp_path / "data").iterdir()}
        assert written == {
            "fig1.csv", "fig3.json", "fig8.csv", "fig11.json", "fig12.csv",
        }


class TestReplayCli:
    def test_replay_shipped_scenario_exits_clean(self, capsys):
        assert main(["replay", "kv-cache", "--backend", "dfm"]) == 0
        out = capsys.readouterr().out
        assert "scenario" in out and "kv-cache" in out
        assert "amat" in out

    def test_replay_writes_telemetry_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(
            ["replay", "web-session", "--out", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert str(out_dir / "trace.json") in out
        assert str(out_dir / "metrics.json") in out
        assert (out_dir / "trace.json").exists()
        assert (out_dir / "metrics.json").exists()

    def test_replay_with_validation_checkers(self, capsys):
        assert main(
            ["replay", "kv-cache", "--backend", "cpu", "--validation"]
        ) == 0
        assert _report_field(capsys.readouterr().out, "clean") == "True"

    def test_chaos_replay_smoke(self, capsys):
        # Transient faults heal: replay stays clean under injection.
        assert main(
            ["replay", "chaos-soak", "--fault-profile", "transient",
             "--fault-seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert _report_field(out, "clean") == "True"
        assert _report_field(out, "data_loss_events") == "0"

    def test_replay_unknown_scenario_is_usage_error(self, capsys):
        assert main(["replay", "nope"]) == 2
        assert "scenario name" in capsys.readouterr().err

    def test_replay_unknown_backend_is_usage_error(self, capsys):
        assert main(["replay", "kv-cache", "--backend", "floppy"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_replay_unreadable_trace_file_is_usage_error(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.trace.jsonl.gz"
        bad.write_bytes(b"not a trace")
        assert main(["replay", "--trace-file", str(bad)]) == 2
        assert "unusable trace" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["0", "-5", "nan"])
    def test_slo_bad_window_is_usage_error(self, window, tmp_path, capsys):
        out = tmp_path / "slo"
        assert main(
            ["slo", "web-session", "--window-ns", window, "--out", str(out)]
        ) == 2
        assert "slo: --window-ns must be finite and > 0" in (
            capsys.readouterr().err
        )
        assert not out.exists()


class TestValidationInherits:
    """A command run without ``--validation`` keeps the checkpoint
    setting it was started under (``REPRO_VALIDATION``, pytest's
    ``--validation``) instead of switching checkpoints off."""

    def test_replay_and_chaos_run_with_checkpoints_on(
        self, monkeypatch, capsys
    ):
        from repro.campaigns import CAMPAIGNS
        from repro.scenarios.replayer import TraceReplayer
        from repro.validation.hooks import validation_enabled

        seen = {}

        def spy(name, original):
            def wrapped(*args, **kwargs):
                seen[name] = validation_enabled()
                return original(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(
            TraceReplayer, "run", spy("replay", TraceReplayer.run)
        )
        chaos = CAMPAIGNS["chaos"]
        monkeypatch.setitem(
            CAMPAIGNS, "chaos", chaos._replace(drive=spy("chaos", chaos.drive))
        )
        with run_context(validation=True):
            assert main(["replay", "kv-cache"]) == 0
            assert main(["chaos", "--seed", "3", "--ops", "40"]) == 0
        assert seen == {"replay": True, "chaos": True}


class TestRecordCli:
    def test_record_then_replay_round_trip(self, tmp_path, capsys):
        path = tmp_path / "kv.trace.jsonl.gz"
        assert main(
            ["record", "kv-cache", "--trace-file", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert path.exists()
        assert "fingerprint" in out and str(path) in out
        assert main(
            ["replay", "--trace-file", str(path), "--backend", "pipeline"]
        ) == 0

    def test_record_unknown_scenario_is_usage_error(self, capsys):
        assert main(["record", "mystery"]) == 2
        assert "scenario name" in capsys.readouterr().err


class TestIngestCli:
    def test_ingest_writes_manifest(self, tmp_path, capsys):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n" * 400)
        (root / "b.md").write_text("words " * 600)
        out_dir = tmp_path / "corpus"
        assert main(["ingest", str(root), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "source" in out and "text" in out
        assert str(out_dir / "manifest.json") in out
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "source.pages.gz").exists()

    def test_ingest_missing_root_is_usage_error(self, tmp_path, capsys):
        assert main(
            ["ingest", str(tmp_path / "absent"),
             "--out", str(tmp_path / "o")]
        ) == 2
        assert "ingest failed" in capsys.readouterr().err

    def test_ingest_needs_exactly_one_root(self, capsys):
        assert main(["ingest"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_list_mentions_scenario_commands(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "replay" in out and "record" in out and "ingest" in out
        assert "kv-cache" in out


class TestCodectuneCli:
    def _tree(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "a.py").write_text(
            "def handler(request):\n    return request.body\n" * 200
        )
        (root / "b.md").write_text("far memory compresses well " * 400)
        return root

    def test_codectune_trains_and_persists(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        out_path = tmp_path / "tables.json"
        assert main(
            ["codectune", str(root), "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "source" in out and "text" in out
        assert str(out_path) in out
        from repro.compression.static_tables import StaticTableRegistry

        registry = StaticTableRegistry.load(out_path)
        assert "source" in registry and "text" in registry
        entry = registry.get("source")
        assert entry.num_pages > 0 and entry.window_size >= 1024

    def test_codectune_accepts_preingested_corpus(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        corpus = tmp_path / "corpus"
        assert main(["ingest", str(root), "--out", str(corpus)]) == 0
        capsys.readouterr()
        out_path = tmp_path / "tables.json"
        assert main(
            ["codectune", str(corpus), "--out", str(out_path)]
        ) == 0
        assert "source" in capsys.readouterr().out
        assert out_path.exists()

    def test_codectune_rejects_extra_targets(self, capsys):
        assert main(["codectune", "a", "b"]) == 2
        assert "at most one" in capsys.readouterr().err

    def test_codectune_empty_tree_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(
            ["codectune", str(empty), "--out", str(tmp_path / "t.json")]
        ) == 2
        assert "no corpus domains" in capsys.readouterr().err

    def test_list_mentions_codectune(self, capsys):
        assert main([]) == 0
        assert "codectune" in capsys.readouterr().out


class TestSloCli:
    def test_slo_prints_percentiles_and_summary(self, capsys):
        assert main(["slo", "web-session"]) == 0
        out = capsys.readouterr().out
        assert "latency percentiles" in out
        for column in ("p50_us", "p99_us", "p999_us"):
            assert column in out
        # Rows exist per op class x tier.
        assert "pipeline" in out and "cpu-zswap" in out
        assert "slo summary" in out
        assert "store-latency" in out
        assert "load-latency" in out
        assert "availability" in out

    def test_slo_scenario_flag_form(self, capsys):
        assert main(["slo", "--scenario", "web-session"]) == 0
        assert "slo summary" in capsys.readouterr().out

    def test_slo_writes_report_json(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "slo"
        assert main(
            ["slo", "web-session", "--out", str(out_dir)]
        ) == 0
        assert str(out_dir / "slo_report.json") in capsys.readouterr().out
        doc = json.loads((out_dir / "slo_report.json").read_text())
        assert doc["scenario"] == "web-session"
        assert doc["slo"]["summary"]
        assert doc["latency_percentiles"]
        assert (out_dir / "trace.json").exists()
        assert (out_dir / "metrics.json").exists()

    def test_slo_fail_on_violation_gates_exit_code(self, capsys):
        # The default objectives are deliberately tight enough that the
        # demotion cascades in web-session burn the store budget.
        code = main(
            ["slo", "web-session", "--fail-on-violation"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATED" in out

    def test_slo_unknown_scenario_is_usage_error(self, capsys):
        assert main(["slo", "nope"]) == 2
        assert "scenario name" in capsys.readouterr().err

    def test_slo_unknown_backend_is_usage_error(self, capsys):
        assert main(["slo", "web-session", "--backend", "tape"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_list_mentions_slo(self, capsys):
        assert main([]) == 0
        assert "repro slo" in capsys.readouterr().out


class TestProfileCli:
    """``profile`` hands its arguments to the checkout's e2e runner in a
    child process and passes the child's exit status back."""

    @pytest.fixture
    def launched(self, monkeypatch):
        commands = []

        def fake_run(command, *args, **kwargs):
            commands.append(command)
            return subprocess.CompletedProcess(command, 3)

        monkeypatch.setattr(subprocess, "run", fake_run)
        return commands

    def test_arguments_reach_the_runner(self, launched):
        from repro import __main__ as cli

        assert main(
            ["profile", "tier_churn", "--seed", "23", "--seconds", "2.5"]
        ) == 3
        assert launched == [[
            sys.executable, str(cli._E2E_RUNNER), "--workload", "tier_churn",
            "--seed", "23", "--trace", "1", "--seconds", "2.5",
        ]]
        assert cli._E2E_RUNNER.parts[-3:] == ("benchmarks", "e2e", "run.py")

    def test_defaults_leave_the_length_to_the_runner(self, launched):
        assert main(["profile", "xfm_emulator"]) == 3
        (command,) = launched
        assert command[2:] == [
            "--workload", "xfm_emulator", "--seed", "0", "--trace", "1",
        ]

    def test_workload_is_required(self, launched, capsys):
        assert main(["profile"]) == 2
        assert "workload" in capsys.readouterr().err
        assert launched == []

    def test_missing_benchmarks_is_usage_error(
        self, launched, monkeypatch, tmp_path, capsys
    ):
        from repro import __main__ as cli

        monkeypatch.setattr(cli, "_E2E_RUNNER", tmp_path / "run.py")
        assert main(["profile", "tier_churn"]) == 2
        assert "benchmarks/" in capsys.readouterr().err
        assert launched == []

    def test_list_mentions_profile(self, capsys):
        assert main([]) == 0
        assert "repro profile" in capsys.readouterr().out


#: A short command line per table campaign (``--out`` is appended).
#: Chaos at the full profile poisons pages and the fleet's spike burns
#: its availability SLO, so both leave flight dumps too.
WROTE_LINES = {
    "chaos": "chaos --seed 7 --ops 400 --profile full",
    "fleet": "fleet --fleet-shards 2 --rate-rps 17500 --duration-scale 0.1",
    "replay": "replay kv-cache --backend pipeline",
    "slo": "slo web-session",
    "trace": "trace zswap emulator",
    "tiers": "tiers",
}


class TestWroteLines:
    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_every_file_written_is_listed_once(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*WROTE_LINES[name].split(), "--out", str(out)]) == 0
        wrote = [
            line.split("  wrote ", 1)[1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  wrote ")
        ]
        on_disk = [str(path) for path in out.rglob("*") if path.is_file()]
        assert sorted(wrote) == sorted(on_disk)


#: Every ``python -m repro`` line of ``.github/workflows/ci.yml``.
CI_INVOCATIONS = [
    "chaos --seed 3 --ops 400 --profile transient --validation "
    "--fail-on-loss --out chaos-out",
    "chaos --seed 7 --ops 400 --profile full --validation "
    "--out chaos-out-full",
    "tiers --out tiers-out",
    "record kv-cache --trace-file replay-out/kv.trace.jsonl.gz",
    "replay --trace-file replay-out/kv.trace.jsonl.gz --backend pipeline "
    "--validation --out replay-out/pipeline",
    "replay --trace-file replay-out/kv.trace.jsonl.gz --backend dfm "
    "--validation --out replay-out/dfm",
    "replay chaos-soak --fault-profile transient --fault-seed 3",
    "replay kv-cache --backend xfm-mc --fault-profile transient "
    "--fault-seed 3",
    "ingest src --out replay-out/corpus",
    "slo --scenario web-session --out replay-out/slo",
    "fleet --fleet-shards 2 --rate-rps 17500 --spike-multiplier 1.0 "
    "--duration-scale 0.5 --expect-no-shed --fail-on-slo-violation "
    "--out fleet-out/steady",
    "fleet --fleet-shards 2 --rate-rps 17500 --duration-scale 0.5 "
    "--expect-shed --out fleet-out/spike",
    "fleet --fleet-shards 3 --rate-rps 17500 --duration-scale 0.5 "
    "--kill-shard-at-ms 37.5 --expect-shed --out fleet-out/failover",
    "trace zswap --out trace-out",
]


class TestCommandsOwnTheirOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--ops", "5"],
            ["chaos", "--rate-rps", "9"],
            ["replay", "kv-cache", "--window-ns", "5"],
            ["slo", "web-session", "--validation"],
            ["tiers", "--seed", "1"],
            ["trace", "zswap", "--backend", "dfm"],
            ["record", "kv-cache", "--fault-seed", "2"],
            ["profile", "tier_churn", "--ops", "5"],
        ],
    )
    def test_foreign_option_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"python -m repro {argv[0]}: error:" in err
        assert argv[-2] in err

    @pytest.mark.parametrize(
        "command,own,foreign",
        [
            ("fleet", ["--rate-rps", "--expect-shed"], ["--ops", "--backend"]),
            ("chaos", ["--ops", "--fail-on-loss"], ["--rate-rps", "--backend"]),
            ("replay", ["--backend", "--trace-file"], ["--ops", "--seed"]),
            ("slo", ["--window-ns", "--scenario"], ["--validation", "--ops"]),
            ("tiers", ["--out"], ["--seed", "--backend"]),
        ],
    )
    def test_help_lists_only_its_own_options(
        self, command, own, foreign, capsys
    ):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert f"python -m repro {command}" in out
        assert all(option in out for option in own)
        assert not any(option in out for option in foreign)

    @pytest.mark.parametrize("line", CI_INVOCATIONS)
    def test_every_ci_invocation_parses(self, line):
        from repro.__main__ import COMMANDS, command_parser

        command, *rest = line.split()
        assert command in COMMANDS
        command_parser(command).parse_args(rest)  # SystemExit = rejected

    def test_ci_table_is_current(self):
        from pathlib import Path

        text = (
            Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml"
        ).read_text(encoding="utf-8").replace("\\\n", " ")
        found = [
            " ".join(line.split("python -m repro ", 1)[1].split())
            for line in text.splitlines()
            if "python -m repro " in line and not line.lstrip().startswith("#")
        ]
        found = [line.split(" |")[0].strip() for line in found]
        assert sorted(found) == sorted(CI_INVOCATIONS)


#: SHA-256 of the report each chaos-smoke / fleet-smoke line of
#: ``ci.yml`` writes, keyed by that line's ``--out``. A refactor leaves
#: every byte of them alone; only a model change (one that moves
#: simulated behaviour on purpose and says so) regenerates them, by
#: rerunning the lines and hashing the reports.
PINNED_CI_REPORTS = {
    "chaos-out":
        "cae2adce94c48c855354b5dcf4c508ea65da5dabedade986f35cb3fb4ea08a56",
    "chaos-out-full":
        "43ca943b6ba3ddeb43ec950bf1250577a254957f28a4eb830f34400c0454a8d2",
    "fleet-out/steady":
        "a22e99bad62fa14a6046c90692795f6576fa56fc09b7dfdfe91e6aa73eb38269",
    "fleet-out/spike":
        "6777cf25037c05cf72639db56c188b0a8da45288a968f4346dd42ccc503fcae3",
    "fleet-out/failover":
        "3eaf4dae888654f29d3931cc1d772bc7a003616cfe3f49521fc8b9b44d593c6f",
}


@pytest.fixture(scope="module")
def ci_reports(tmp_path_factory):
    """Run every chaos / fleet line of :data:`CI_INVOCATIONS` in-process
    once: ``--out`` -> (exit code, SHA-256 of the report it wrote)."""
    import contextlib
    import hashlib
    import io

    root = tmp_path_factory.mktemp("ci")
    reports = {}
    for line in CI_INVOCATIONS:
        command, *rest = line.split()
        if command not in ("chaos", "fleet"):
            continue
        at = rest.index("--out") + 1
        out = rest[at]
        rest[at] = str(root / out)
        before, ticks = current(), CLOCK.now_ticks()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, *rest])
        assert current() is before and CLOCK.now_ticks() == ticks, line
        report = root / out / f"{command}_report.json"
        reports[out] = (code, hashlib.sha256(report.read_bytes()).hexdigest())
    return reports


class TestCiReportsPinned:
    def test_every_pinned_report_is_a_ci_line(self, ci_reports):
        assert sorted(ci_reports) == sorted(PINNED_CI_REPORTS)

    @pytest.mark.parametrize("out", sorted(PINNED_CI_REPORTS))
    def test_report_is_byte_identical(self, ci_reports, out):
        code, digest = ci_reports[out]
        assert code == 0
        assert digest == PINNED_CI_REPORTS[out]

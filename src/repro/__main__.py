"""Command-line entry point: regenerate the paper's figures and tables,
and drive the campaigns built on the stack.

Usage::

    python -m repro list                 # experiments + every command's usage
    python -m repro table1 table2 fig3   # run specific experiments
    python -m repro all                  # everything (a few minutes)
    python -m repro <command> [options]  # see COMMANDS; options follow it

The experiments are the rows of :mod:`repro.analysis.experiments`'
table: each prints exactly the text of the ``benchmarks/results``
file(s) its benchmark writes from the same data, and the benchmarks add
timing and shape assertions on top of it. Each command owns its
options: one entry in :data:`COMMANDS` holds its help line, the
arguments it declares on its own parser, and the function that runs it
and returns the exit code (0 clean, 1 when the run's verdict fails, 2
on usage errors). The campaign commands run through
:mod:`repro.campaigns`' table and runner.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Sequence


# -- arguments: each declared once; a command lists the ones it owns --------


def _one_of(kind: str, names: Sequence[str]) -> Dict[str, object]:
    """``add_argument`` keywords for a value that must be one of
    ``names``; the error says ``unknown <kind>`` and lists them."""

    def parse(value: str) -> str:
        if value not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {value!r} (have: {', '.join(names)})"
            )
        return value

    return {"type": parse, "metavar": "{" + ",".join(names) + "}"}


def _scenario_names() -> List[str]:
    from repro.scenarios.zoo import SCENARIOS

    return sorted(SCENARIOS)


def _arguments() -> Dict[str, Dict[str, object]]:
    """``add_argument`` keywords of every argument of every command, by
    name. A function because naming the choices imports the packages
    that define them."""
    from repro.resilience.chaos import PROFILES
    from repro.telemetry.runner import WORKLOADS
    from repro.tiering.factory import TIER_KINDS

    scenario = _one_of("scenario name", _scenario_names())
    profile = _one_of("fault profile", sorted(PROFILES))

    def flag(help: str) -> Dict[str, object]:
        return {"action": "store_true", "help": help}

    return {
        "directory": dict(nargs="?", default="figure-data"),
        "workloads": dict(
            nargs="*", default=["zswap"],
            help="default zswap; several get one sub-directory of --out each",
            **_one_of("trace workload", sorted(WORKLOADS)),
        ),
        "scenario": dict(nargs="?", help="a shipped scenario", **scenario),
        "root": dict(
            nargs="*", help="a file tree (codectune: or an ingested corpus "
            "directory; default: this package's own source tree)",
        ),
        "--out": dict(
            help="output directory (codectune: the tables file); trace and "
            "record default to trace-out, ingest to corpus-out",
        ),
        "workload": dict(help="an end-to-end benchmark workload"),
        "--seed": dict(type=int, default=0, help="campaign/builder seed"),
        "--seconds": dict(
            type=float, help="measurement length the run is sized for "
            "(default: the benchmark's own)",
        ),
        "--validation": flag("run with the validation checkers on"),
        "--ops": dict(type=int, default=400, help="operation count"),
        "--profile": dict(
            default="transient", help="fault profile", **profile
        ),
        "--fail-on-loss": flag(
            "exit nonzero on explicit data loss or poison pages too"
        ),
        "--trace-file": dict(
            metavar="PATH", help="replay: a trace artifact to replay "
            "instead of a shipped scenario; record: where to save it",
        ),
        "--backend": dict(
            default="pipeline", help="target tier config",
            **_one_of("backend", TIER_KINDS),
        ),
        "--fault-profile": dict(
            help="replay under a chaos fault profile", **profile
        ),
        "--fault-seed": dict(
            type=int, default=0, help="fault-plan seed for --fault-profile"
        ),
        "--scenario": dict(
            dest="scenario_option", help="the scenario, as an option",
            **scenario,
        ),
        "--window-ns": dict(
            type=float, default=15000.0, help="simulated-time window size"
        ),
        "--fail-on-violation": flag(
            "exit nonzero when an objective misses its target"
        ),
        "--max-file-kib": dict(
            type=int, default=512, help="skip files larger than this"
        ),
        "--fleet-shards": dict(type=int, default=4, help="pipeline shards"),
        "--rate-rps": dict(
            type=float, default=35000.0,
            help="steady-state offered arrival rate (requests/s)",
        ),
        "--spike-multiplier": dict(
            type=float, default=5.0,
            help="arrival-rate multiplier during the spike phase",
        ),
        "--duration-scale": dict(
            type=float, default=1.0,
            help="scale all phase durations (1.0 = 160 ms simulated)",
        ),
        "--kill-shard-at-ms": dict(
            type=float, help="chaos-kill shard-0 at this simulated millisecond"
        ),
        "--expect-shed": flag(
            "fail unless the spike sheds, recovery is clean, and admitted "
            "spike p99 <= 3x steady p99"
        ),
        "--expect-no-shed": flag(
            "fail if any request was shed (steady campaigns)"
        ),
        "--fail-on-slo-violation": flag(
            "exit nonzero when an SLO misses its target"
        ),
    }


def _usage_error(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


# -- commands ---------------------------------------------------------------


def _run_campaign(name: str, args) -> int:
    """Run a table campaign: print each run's report and written files."""
    from repro.campaigns import CAMPAIGNS, run
    from repro.errors import ConfigError

    campaign = CAMPAIGNS[name]
    try:
        runs = campaign.config(args)
    except ConfigError as exc:
        return _usage_error(f"{name}: {exc}")
    ok = True
    for config, out_dir in runs:
        report, written = run(campaign, config, out_dir)
        print(campaign.format(report))
        for path in written:
            print(f"  wrote {path}")
        ok = campaign.ok(report, args) and ok
    return 0 if ok else 1


def _cmd_list(args) -> int:
    from repro.analysis.experiments import EXPERIMENTS

    print("available experiments:")
    for name, experiment in EXPERIMENTS.items():
        print(f"  {name:8s} {experiment.description}")
    print("run: python -m repro <name> [<name> ...] | all")
    print("commands (options follow the command; --help describes them):")
    for name, command in COMMANDS.items():
        usage = command_parser(name).format_usage().rstrip()
        print(f"  {name}: {command.help}")
        print("    " + usage.replace("\n", "\n    "))
    return 0


def _cmd_export(args) -> int:
    from repro.analysis.experiments import EXPERIMENTS

    target = Path(args.directory)
    target.mkdir(parents=True, exist_ok=True)
    for experiment in EXPERIMENTS.values():
        if experiment.export is not None:
            path = target / experiment.export_file
            text = experiment.export(experiment.compute())
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
    return 0


def _cmd_record(args) -> int:
    from repro.scenarios.format import trace_fingerprint
    from repro.scenarios.zoo import ARTIFACT_SUFFIX, build_scenario

    if args.scenario is None:
        return _usage_error(
            "record needs one scenario name "
            f"(have: {', '.join(_scenario_names())})"
        )
    trace = build_scenario(args.scenario, seed=args.seed)
    if args.trace_file is not None:
        path = Path(args.trace_file)
    else:
        path = Path(args.out or "trace-out", args.scenario + ARTIFACT_SUFFIX)
    trace.save(path)
    print(f"recorded scenario: {args.scenario}")
    print(f"  events      : {len(trace)}")
    print(f"  unique pages: {len(trace.pages)}")
    print(f"  fingerprint : {trace_fingerprint(trace)}")
    print(f"  wrote {path}")
    return 0


def _cmd_ingest(args) -> int:
    from repro.errors import ConfigError
    from repro.scenarios.ingest import IngestConfig, ingest_tree

    if len(args.root) != 1:
        return _usage_error("ingest needs exactly one root directory")
    out_dir = Path(args.out or "corpus-out")
    try:
        manifest = ingest_tree(
            args.root[0],
            out_dir,
            IngestConfig(max_file_bytes=args.max_file_kib * 1024),
        )
    except ConfigError as exc:
        return _usage_error(f"ingest failed: {exc}")
    print(f"ingested corpus: {manifest.root_label}")
    for domain, pages in manifest.summary().items():
        print(f"  {domain:10s}: {pages} pages")
    print(f"  total      : {manifest.total_pages()} pages "
          f"({manifest.page_size} B each)")
    print(f"  wrote {out_dir / 'manifest.json'}")
    return 0


def _cmd_codectune(args) -> int:
    """Train per-domain static Huffman tables (auto-tuned matcher
    parameters) and persist them; a raw file tree is ingested into a
    temporary directory first."""
    import tempfile

    from repro.compression.static_tables import (
        DEFAULT_TABLES_PATH,
        StaticTableRegistry,
    )
    from repro.compression.tuning import make_tuner
    from repro.errors import ConfigError, ManifestError
    from repro.scenarios.ingest import (
        MANIFEST_NAME,
        CorpusManifest,
        IngestConfig,
        ingest_tree,
    )

    if len(args.root) > 1:
        return _usage_error("codectune takes at most one corpus directory")
    root = (
        Path(args.root[0]) if args.root
        else Path(__file__).resolve().parents[1]
    )
    out_path = Path(args.out) if args.out else DEFAULT_TABLES_PATH
    choices: dict = {}
    registry = StaticTableRegistry()
    try:
        if (root / MANIFEST_NAME).exists():
            manifest = CorpusManifest.load(root)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                manifest = ingest_tree(
                    root,
                    tmp,
                    IngestConfig(max_file_bytes=args.max_file_kib * 1024),
                )
                registry.train_from_manifest(
                    manifest, tuner=make_tuner(record=choices)
                )
                manifest = None
        if manifest is not None:
            registry.train_from_manifest(
                manifest, tuner=make_tuner(record=choices)
            )
    except (ConfigError, ManifestError) as exc:
        return _usage_error(f"codectune failed: {exc}")
    if not len(registry):
        return _usage_error(f"no corpus domains found under {root}")
    registry.save(out_path)
    print(f"trained static tables: {len(registry)} domain(s) from {root}")
    for domain in registry.domains():
        entry = registry.get(domain)
        choice = choices[domain]
        print(
            f"  {domain:10s}: {entry.num_pages:5d} pages  "
            f"window={entry.window_size:<5d} chain={entry.max_chain:<3d} "
            f"lazy={str(entry.lazy):5s} "
            f"sample ratio={choice.ratio:.2f}  "
            f"table_id=0x{entry.tables.table_id:08x}"
        )
    print(f"  wrote {out_path}")
    return 0


#: The end-to-end benchmark runner of the checkout this package sits in.
_E2E_RUNNER = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "run.py"


def _cmd_profile(args) -> int:
    """One traced run of an end-to-end workload: the checkout's
    ``benchmarks/e2e/run.py --trace 1`` in a fresh process, which prints
    the per-layer table and the result line; its exit status is ours."""
    import subprocess

    if not _E2E_RUNNER.is_file():
        return _usage_error(
            f"profile: no benchmark runner at {_E2E_RUNNER} "
            "(it needs a source checkout with benchmarks/)"
        )
    command = [
        sys.executable, str(_E2E_RUNNER), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", "1",
    ]
    if args.seconds is not None:
        command += ["--seconds", repr(args.seconds)]
    return subprocess.run(command).returncode


class Command(NamedTuple):
    """One CLI command: its help line, the arguments it owns (names in
    :func:`_arguments`, in usage order), and the function that runs the
    parsed arguments and returns the exit code."""

    help: str
    arguments: Sequence[str]
    run: Callable[[argparse.Namespace], int]


_REPLAY_TARGET = ("--backend", "--fault-profile", "--fault-seed")
_FLEET_ARGUMENTS = (
    "--seed", "--fleet-shards", "--rate-rps", "--spike-multiplier",
    "--duration-scale", "--kill-shard-at-ms", "--expect-shed",
    "--expect-no-shed", "--fail-on-slo-violation", "--out",
)

COMMANDS: Dict[str, Command] = {
    "list": Command(
        "enumerate the experiments and every command's usage", (), _cmd_list
    ),
    "export": Command(
        "write the figures' CSV/JSON series", ("directory",), _cmd_export
    ),
    "trace": Command(
        "run reference workloads under tracing: Perfetto trace + metrics",
        ("workloads", "--out"), partial(_run_campaign, "trace"),
    ),
    "tiers": Command(
        "3-tier demotion/promotion demo, traced", ("--out",),
        partial(_run_campaign, "tiers"),
    ),
    "chaos": Command(
        "seeded fault campaign over the tier pipeline",
        ("--seed", "--ops", "--profile", "--validation", "--fail-on-loss",
         "--out"),
        partial(_run_campaign, "chaos"),
    ),
    "replay": Command(
        "replay a swap trace against a backend config",
        ("scenario", "--trace-file", *_REPLAY_TARGET, "--validation", "--out"),
        partial(_run_campaign, "replay"),
    ),
    "slo": Command(
        "replay a scenario under tracing and evaluate latency/availability "
        "SLOs over simulated-time windows",
        ("scenario", "--scenario", *_REPLAY_TARGET, "--window-ns",
         "--fail-on-violation", "--out"),
        partial(_run_campaign, "slo"),
    ),
    "record": Command(
        "re-record a zoo scenario from a live pipeline run",
        ("scenario", "--seed", "--trace-file", "--out"), _cmd_record,
    ),
    "ingest": Command(
        "page-ify a file tree into a digest-verified per-domain corpus",
        ("root", "--out", "--max-file-kib"), _cmd_ingest,
    ),
    "codectune": Command(
        "train and persist per-domain static Huffman tables",
        ("root", "--out", "--max-file-kib"), _cmd_codectune,
    ),
    "fleet": Command(
        "deterministic overload campaign (steady -> spike -> drain -> "
        "recovery) through the sharded frontend",
        _FLEET_ARGUMENTS, partial(_run_campaign, "fleet"),
    ),
    "profile": Command(
        "one traced end-to-end benchmark run: per-layer host time",
        ("workload", "--seed", "--seconds"), _cmd_profile,
    ),
}


def command_parser(name: str) -> argparse.ArgumentParser:
    command = COMMANDS[name]
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {name}", description=command.help
    )
    known = _arguments()
    for argument in command.arguments:
        parser.add_argument(argument, **known[argument])
    return parser


def _run_experiments(names: List[str]) -> int:
    """Print each experiment's results text, exactly as its results
    files hold it."""
    from repro.analysis.experiments import EXPERIMENTS

    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        return _usage_error(f"unknown experiment(s): {', '.join(unknown)}")
    for name in names:
        experiment = EXPERIMENTS[name]
        for text in experiment.render(experiment.compute()):
            print(text)
    return 0


def main(argv: List[str] = None) -> int:
    try:
        status = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``python -m repro list | head -1``):
        # stop quietly with the status of a writer killed by SIGPIPE, and
        # point stdout at devnull so the exit-time flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    return status


def _dispatch(argv: List[str] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    name = argv[0] if argv else "list"
    if name in ("-h", "--help"):
        name = "list"
    if name not in COMMANDS:
        return _run_experiments(argv)
    try:
        args = command_parser(name).parse_args(argv[1:])
    except SystemExit as exc:
        # argparse reports usage errors (2) and --help (0) by exiting.
        return exc.code
    return COMMANDS[name].run(args)


if __name__ == "__main__":
    raise SystemExit(main())

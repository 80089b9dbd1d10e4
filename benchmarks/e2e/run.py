#!/usr/bin/env python3
"""End-to-end benchmark of the XFM reproduction: one command, five workloads.

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N] [--repeats R]
                                  [--seconds S] [--quick] [--out DIR]
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py compare A.json B.json

Without ``--trace`` this runs the suite: for every workload, ``--repeats``
untraced runs (end-to-end metrics) and one traced run (per-layer metrics),
each a fresh Python process, one at a time; it then checks that simulated
statistics repeated bit-for-bit and writes ``results.json``. With
``--trace`` it is one run speaking the protocol ``BENCHMARK.json``
declares: the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Two kinds of number are kept apart. *Host* metrics say what the Python
simulator costs to run; they are noisy and are reported as medians.
*Sim* statistics say what the modelled hardware does; they are a pure
function of ``(workload, seed, seconds)`` and must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Everything a run writes stays here (the native kernel, export scratch).
BUILD = ROOT / ".bench_build"
#: Set-up is repeated so ``setup_s`` is a median, not one sample.
SETUP_REPEATS = 3
QUICK_DIVISOR = 10
#: Set by the suite for its child runs once the native kernel is built.
WARMED_ENV = "E2E_NATIVE_WARMED"


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _program_env() -> Dict[str, str]:
    """Environment under which the program is imported: its source tree
    on the path and its native-kernel cache inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_NATIVE_CACHE"] = str(BUILD / "repro-native")
    # The C compiler's intermediates stay inside the checkout too.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(BUILD / "tmp")
    env.pop("REPRO_NO_NATIVE", None)
    return env


def warm_up() -> bool:
    """Untimed: build (first time) and load the ``_hotpath`` kernel in a
    throw-away process, so no timed region ever holds a compile. Returns
    whether the native kernels loaded."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "from repro.compression import _native; print(int(_native.available()))"],
        env=_program_env(), capture_output=True, text=True, timeout=600,
    )
    if probe.returncode != 0:
        raise SystemExit(f"warm-up could not import the program:\n{probe.stderr}")
    return probe.stdout.strip() == "1"


# -- one run ------------------------------------------------------------------


def single_run(
    name: str, seed: int, seconds: float, traced: bool,
    out_dir: Optional[Path], setup_repeats: int,
) -> Tuple[dict, dict]:
    """Run one workload once in this process. Returns the full record
    and the contract's result object."""
    # A suite child skips the warm-up its parent already ran.
    native_loaded = bool(os.environ.get(WARMED_ENV)) or warm_up()
    if not native_loaded:
        raise SystemExit(
            "native codec kernels did not load (no C compiler?): the "
            "pure-Python fallback is ~80x slower and op counts assume the "
            "kernels; refusing to time it"
        )
    os.environ.update(_program_env())
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[name]
    scale = seconds / workloads.REFERENCE_SECONDS
    workdir = BUILD / f"e2e-run-{os.getpid()}"
    tracer = captured = None
    try:
        begin = perf_counter()
        workloads.import_program(workload)
        import_s = perf_counter() - begin
        from repro.compression import _native

        if not _native.available():
            raise SystemExit("native kernels loaded in warm-up but not here")
        if traced:
            tracer = Tracer()
            captured = layers.install(tracer)
        setups = []
        for _ in range(setup_repeats):
            state = None  # drop the previous build before timing the next
            begin = perf_counter()
            state = workload.setup(seed, scale, workdir)
            setups.append(perf_counter() - begin)
        outcome = workload.run(state, tracer)
    finally:
        if tracer is not None:
            tracer.unpatch_all()
        shutil.rmtree(workdir, ignore_errors=True)

    problems = list(outcome.problems)
    if traced:
        self_s = tracer.self_s_by_layer()
        metrics = layers.layer_metrics(
            tracer, captured, outcome, native_loaded, self_s
        )
        gap = layers.accounting_gap(self_s, metrics, outcome.wall_s)
        if gap > 0.01:
            problems.append(f"span self times miss the traced wall by {gap:.2%}")
        problems += layers.separation_problems(name, metrics, self_s)
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "throughput_ops_s": outcome.ops / outcome.wall_s,
            "host_us_per_op_p50": statistics.median(outcome.unit_us_per_op),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    declared = _declared()
    section = declared["per_layer" if traced else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    if set(units) != set(metrics):
        raise SystemExit(
            "BENCHMARK.json and the run disagree on metric names: "
            f"undeclared {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}"
        )
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "native_loaded": native_loaded, "correct": not problems,
        "problems": problems, "attempted": outcome.ops, "failed": outcome.failed,
        "wall_s": outcome.wall_s, "timed_units": len(outcome.unit_us_per_op),
        "sim": outcome.sim, "sim_digest": workloads.sim_digest(outcome.sim_outputs),
        "metrics": metrics,
    }
    _print_run(record, units)
    if traced:
        print(layers.layer_table(
            tracer, self_s, metrics["bench.unattributed_s"], outcome.wall_s
        ))
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "record.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        if traced:
            tracer.write_chrome_trace(out_dir / "spans.trace.json.gz")
    result = {
        "correct": record["correct"],
        "attempted": outcome.ops,
        "failed": outcome.failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    return record, result


def _print_run(record: dict, units: Dict[str, str]) -> None:
    mode = "traced" if record["traced"] else "untraced"
    print(
        f"{record['workload']} seed={record['seed']} seconds={record['seconds']:g} "
        f"({mode}): {record['attempted']} ops in {record['wall_s']:.2f} s host, "
        f"{record['failed']} failed, {record['timed_units']} timed units, "
        f"native_loaded={int(record['native_loaded'])}"
    )
    if record["workload"].startswith("fleet"):
        print(
            "  open loop in simulated time: arrivals are scheduler events, "
            "generator lateness is 0 by construction"
        )
    for key, value in record["metrics"].items():
        if not record["traced"] or value:
            print(f"  {key:<40}{value:>16.6g} {units[key]}")
    for key, value in record["sim"].items():
        print(f"  sim {key:<36}{value:>16.6g}")
    print(f"  sim_digest {record['sim_digest']}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


# -- the suite ----------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, traced: bool, out: Path,
           quick: bool) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(int(traced)), "--out", str(out),
    ] + (["--quick"] if quick else [])
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=900,
        env={**os.environ, WARMED_ENV: "1"},
    )
    lines = done.stdout.rstrip().splitlines()
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        raise SystemExit(
            f"{name} ({'traced' if traced else 'untraced'}) exited "
            f"{done.returncode}:\n{done.stderr}"
        )
    with open(out / "record.json", encoding="utf-8") as fh:
        return json.load(fh)


def _summarise(name: str, runs: List[dict], traced: dict, declared: dict) -> dict:
    """Fold one workload's runs into the results document; the gate on
    simulated statistics lives here."""
    import compare
    import layers

    for run in runs[1:] + [traced]:
        if run["sim_digest"] != runs[0]["sim_digest"] or run["sim"] != runs[0]["sim"]:
            mode = "the traced run" if run["traced"] else "a repeat"
            raise SystemExit(
                f"{name}: simulated outputs of {mode} differ from the first "
                f"run ({run['sim_digest']} vs {runs[0]['sim_digest']}); the "
                "model is not deterministic under this seed, or tracing "
                "perturbed it"
            )
    end_to_end = {}
    for entry in declared["end_to_end"]:
        values = [run["metrics"][entry["name"]] for run in runs]
        q1, median, q3 = compare.quartiles(values)
        end_to_end[entry["name"]] = {
            "kind": "host", "unit": entry["unit"], "better": entry["better"],
            "bound": entry["bound"], "values": values, "median": median,
            "q1": q1, "q3": q3, "n": len(values),
        }
    sim = dict(runs[0]["sim"])
    sim["failed_ops_ratio"] = runs[0]["failed"] / runs[0]["attempted"]
    for key, value in sim.items():
        unit, better, bound = layers.SIM_STATS[key]
        end_to_end[key] = {
            "kind": "sim", "unit": unit, "better": better, "bound": bound,
            "value": value,
        }
    per_layer = dict(traced["metrics"])
    per_layer["bench.trace_overhead_ratio"] = (
        traced["wall_s"] / statistics.median(run["wall_s"] for run in runs) - 1
    )
    return {
        "sim_digest": runs[0]["sim_digest"], "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": runs[0]["attempted"], "failed": runs[0]["failed"],
    }


def _print_summary(name: str, summary: dict) -> None:
    print(f"\n== {name}: end to end ==")
    for key, entry in summary["end_to_end"].items():
        if entry["kind"] == "host":
            print(
                f"  {key:<28}host {entry['median']:>14.6g} {entry['unit']:<6}"
                f" q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  n={entry['n']}"
            )
        else:
            print(f"  {key:<28}sim  {entry['value']:>14.6g} {entry['unit']}")
    print(
        f"  sim_digest {summary['sim_digest']}\n"
        f"  bench.trace_overhead_ratio "
        f"{summary['per_layer']['bench.trace_overhead_ratio']:.3f}"
    )


def suite(names: List[str], seed: int, seconds: float, repeats: int,
          quick: bool, out: Path) -> int:
    import workloads

    declared = _declared()
    implemented = set(workloads.WORKLOADS)
    if implemented != {w["name"] for w in declared["workloads"]}:
        raise SystemExit(
            "BENCHMARK.json and workloads.py disagree on workload names: "
            f"{sorted(implemented ^ {w['name'] for w in declared['workloads']})}"
        )
    document = {
        "schema": 1, "seed": seed, "seconds": seconds, "quick": quick,
        "repeats": repeats, "native_loaded": warm_up(),
        "host": {
            "python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": {},
    }
    for name in names:
        runs = [
            _child(name, seed, seconds, False, out / "runs" / name / f"r{i}", quick)
            for i in range(repeats)
        ]
        traced = _child(name, seed, seconds, True, out / "runs" / name / "traced", quick)
        document["native_loaded"] = document["native_loaded"] and all(
            run["native_loaded"] for run in runs + [traced]
        )
        summary = _summarise(name, runs, traced, declared)
        summary["why"] = next(
            w["why"] for w in declared["workloads"] if w["name"] == name
        )
        document["workloads"][name] = summary
        _print_summary(name, summary)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.json", "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
    print(f"\nresults: {out / 'results.json'}")
    return 0


# -- entry --------------------------------------------------------------------


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:])
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"{ROOT} holds no program to benchmark (src/repro)", file=sys.stderr)
        return 2
    declared = _declared()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="measurement length each run is sized for "
                             f"(default {declared['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run once and print the result line; 1 = with spans")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke mode: op counts / {QUICK_DIVISOR}, 1 repeat")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    seconds = args.seconds
    if seconds is None:
        seconds = declared["run_seconds"] / (QUICK_DIVISOR if args.quick else 1)

    if args.trace is None:
        return suite(
            args.workload or names, args.seed, seconds,
            1 if args.quick else args.repeats, args.quick,
            args.out or BUILD / "e2e-results",
        )
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace runs exactly one --workload")
    record, result = single_run(
        args.workload[0], args.seed, seconds, bool(args.trace), args.out,
        1 if args.quick else SETUP_REPEATS,
    )
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

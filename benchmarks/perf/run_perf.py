"""CLI for the codec hot-path perf harness.

Modes:

``run``
    Measure every kernel and print the results as JSON. With
    ``--update-baseline`` the committed ``BENCH_perf.json`` is rewritten:
    the fresh numbers become the ``baseline`` section while the pinned
    pre-overhaul ``reference`` section is preserved verbatim (it is a
    historical measurement and must never be re-run on new code).

``check``
    Re-measure with reduced iterations (CI smoke mode) and compare each
    kernel against the committed baseline. Exits non-zero when any
    kernel is more than ``--max-slowdown`` times slower than its
    committed number, or when the baseline and ``microbench.KERNELS``
    do not name the same kernels. The threshold is deliberately loose
    (2.5x) because CI machines differ from the baseline machine; the
    gate catches algorithmic regressions (accidentally reverting to a
    bit-serial loop), not percent-level noise.

``guard <name>``
    Assert that one overhead stays under ``--max-overhead`` (each guard
    has its own default). All but ``sim`` are in-process ratios (guarded
    loop vs plain loop on the same machine, same run), so unlike
    ``check`` the gate can afford to be tight:

    ``telemetry`` (3%)  the *disabled* telemetry guards on the deflate
        round-trip kernel.
    ``span`` (3%)  the *disabled* span/quantile/flight-recorder guards at
        the pipeline's real instrumentation-site density.
    ``tier`` (25%)  the zswap store/load path through a single-tier
        ``TierPipeline`` over the same path on a bare ``SfmBackend``. The
        bookkeeping is ~4 us per op over a ~40 us loop (digest-cache-hit
        stores, native decodes), hence 25%.
    ``stats`` (50%)  a registry-bound ``SwapStats`` field increment over
        a plain ``__slots__`` attribute increment: stats fields must stay
        plain attributes that the registry reads at snapshot time.
    ``sim`` (5%)  the ``tier_pipeline_store`` / ``tier_pipeline_load``
        kernels, best-of-``--trials``, against their committed
        ``BENCH_perf.json`` baselines. They route every operation through
        the pieces the shared simulated-clock/event core touched (span
        clock reads, breaker checks, latency accounting) and the
        baselines were recorded with it in place, so the gate bounds
        drift from that record.
    ``calls`` (exact)  Python and C calls per op, counted with a
        ``sys.setprofile`` hook over a fixed short slice of each of the
        five end-to-end workloads (``benchmarks/e2e/workloads.py``), each
        slice in a fresh interpreter. Every count, in total and per
        top-level ``repro`` package, must equal the ``calls`` record in
        ``BENCH_perf.json`` for the running interpreter's minor version
        (one record per version); on a version with no record the counts
        are printed as not comparable. With ``--record`` the fresh counts
        become this version's record and the old record's per-op counts
        move to its ``previous`` entries.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py run
    PYTHONPATH=src python benchmarks/perf/run_perf.py run --update-baseline
    PYTHONPATH=src python benchmarks/perf/run_perf.py check --inner-scale 0.5
    PYTHONPATH=src python benchmarks/perf/run_perf.py guard telemetry
    PYTHONPATH=src python benchmarks/perf/run_perf.py guard sim
    PYTHONPATH=src python benchmarks/perf/run_perf.py guard stats
    PYTHONPATH=src python benchmarks/perf/run_perf.py guard calls [--record]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import callcount  # noqa: E402  (sibling modules, path-injected above)
import microbench  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_perf.json"
E2E_DIR = REPO_ROOT / "benchmarks" / "e2e"


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _measure(args: argparse.Namespace) -> dict:
    """Run all kernels, optionally inside a telemetry session.

    With ``--trace-dir`` the measurement runs under tracing and writes
    ``trace.json``/``metrics.json`` there (the measured numbers then
    include the enabled-tracing overhead — useful for inspecting the
    harness itself, not for updating baselines).
    """
    trace_dir = getattr(args, "trace_dir", None)
    if not trace_dir:
        return microbench.run_all(args.inner_scale, args.repeats)
    from repro.telemetry.session import TelemetrySession

    with TelemetrySession(out_dir=trace_dir):
        results = microbench.run_all(args.inner_scale, args.repeats)
    print(f"telemetry written to {trace_dir}", file=sys.stderr)
    return results


def _report_deltas(fresh: dict, previous: dict) -> None:
    """Per-kernel deltas vs the *previous committed baseline* — the
    numbers a reviewer of a perf PR actually needs. (The pinned
    ``reference`` section answers a different question: cumulative
    speedup since the pre-overhaul seed.)"""
    if not previous:
        print("no previous baseline to diff against", file=sys.stderr)
        return
    width = max(len(name) for name in fresh)
    print(
        f"{'kernel'.ljust(width)}  previous(s/op)  fresh(s/op)   delta",
        file=sys.stderr,
    )
    for name, record in sorted(fresh.items()):
        base = previous.get(name)
        if base is None:
            print(f"{name.ljust(width)}  (new kernel)", file=sys.stderr)
            continue
        ratio = record["seconds_per_op"] / base["seconds_per_op"]
        print(
            f"{name.ljust(width)}  {base['seconds_per_op']:.6f}"
            f"        {record['seconds_per_op']:.6f}"
            f"     {(ratio - 1.0) * 100:+6.1f}%",
            file=sys.stderr,
        )


def cmd_run(args: argparse.Namespace) -> int:
    results = _measure(args)
    payload = {"schema": 1, "kernels": results}
    baseline_path = Path(args.baseline)
    doc = _load(baseline_path) if baseline_path.exists() else {}
    previous = doc.get("baseline", {}).get("kernels", {})
    _report_deltas(results, previous)
    if args.update_baseline:
        doc["schema"] = 1
        doc["baseline"] = {"kernels": results}
        if previous:
            doc["delta_vs_previous_baseline"] = {
                name: round(
                    results[name]["seconds_per_op"]
                    / previous[name]["seconds_per_op"],
                    3,
                )
                for name in results
                if name in previous
            }
        reference = doc.get("reference", {}).get("kernels", {})
        if reference:
            doc["speedup_vs_reference"] = {
                name: round(
                    reference[name]["seconds_per_op"]
                    / results[name]["seconds_per_op"],
                    2,
                )
                for name in results
                if name in reference
            }
        with open(baseline_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {baseline_path}")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    doc = _load(Path(args.baseline))
    committed = doc["baseline"]["kernels"]
    mismatched = sorted(set(committed) ^ set(microbench.KERNELS))
    if mismatched:
        print(
            f"kernels not in both {args.baseline} and microbench.KERNELS: "
            + ", ".join(mismatched)
        )
        return 1
    fresh = _measure(args)
    failures = []
    width = max(len(name) for name in fresh)
    print(f"{'kernel'.ljust(width)}  committed(s/op)  fresh(s/op)  ratio")
    for name, record in sorted(fresh.items()):
        base = committed[name]
        ratio = record["seconds_per_op"] / base["seconds_per_op"]
        flag = "  FAIL" if ratio > args.max_slowdown else ""
        print(
            f"{name.ljust(width)}  {base['seconds_per_op']:.6f}"
            f"         {record['seconds_per_op']:.6f}     {ratio:5.2f}x{flag}"
        )
        if ratio > args.max_slowdown:
            failures.append((name, ratio))
    if failures:
        print(
            f"\nperf regression: {len(failures)} kernel(s) exceeded the "
            f"{args.max_slowdown}x slowdown gate:"
        )
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x slower than committed baseline")
        return 1
    print(f"\nall kernels within the {args.max_slowdown}x gate")
    return 0


def _best_ratio(ratio_fn):
    """Best-of-``--trials`` of an in-process ratio, so a single noisy
    plain-loop batch can't fail the gate spuriously."""
    return lambda args: min(
        ratio_fn(repeats=args.repeats) for _ in range(args.trials)
    )


def _sim_ratio(args: argparse.Namespace) -> float:
    """Worst tier kernel, each best-of-``--trials`` full kernel runs
    against its committed baseline."""
    committed = _load(Path(args.baseline))["baseline"]["kernels"]
    worst = 0.0
    for name in ("tier_pipeline_store", "tier_pipeline_load"):
        fresh = min(
            microbench.run_kernel(name, args.inner_scale, args.repeats)[
                "seconds_per_op"
            ]
            for _ in range(args.trials)
        )
        base = committed[name]["seconds_per_op"]
        print(f"{name}: committed {base:.6f} s/op, fresh {fresh:.6f} s/op")
        worst = max(worst, fresh / base)
    return worst


# -- the call gate ----------------------------------------------------------

def _count_in_child(name: str) -> dict:
    """One slice's counts from ``callcount.py`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("callcount.py")), name],
        env=env, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"call gate: slice {name} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _calls_differ(fresh: dict, recorded: dict) -> list:
    """Every count of one slice that moved from its record."""
    moved = []
    for key in ("ops", "python_calls", "c_calls"):
        if fresh[key] != recorded.get(key):
            moved.append(f"{key} {recorded.get(key)} -> {fresh[key]}")
    packages = sorted(set(fresh["by_package"]) | set(recorded.get("by_package", {})))
    zero = {"python": 0, "c": 0}
    for package in packages:
        now = fresh["by_package"].get(package, zero)
        then = recorded.get("by_package", {}).get(package, zero)
        for kind in ("python", "c"):
            if now[kind] != then[kind]:
                moved.append(f"{package} {kind} calls {then[kind]} -> {now[kind]}")
    return moved


def cmd_calls(args: argparse.Namespace) -> int:
    version = "%d.%d" % sys.version_info[:2]
    baseline_path = Path(args.baseline)
    doc = _load(baseline_path)
    records = doc.get("calls", {}).get("by_python", {})
    fresh = {name: _count_in_child(name) for name in callcount.CALL_SLICES}
    print(f"{'slice':<22}{'ops':>7}{'py calls/op':>13}{'C calls/op':>12}")
    for name, counts in fresh.items():
        if "skipped" in counts:
            print(f"{name:<22}skipped: {counts['skipped']}")
            continue
        print(
            f"{name:<22}{counts['ops']:>7}{counts['python_calls_per_op']:>13.2f}"
            f"{counts['c_calls_per_op']:>12.2f}"
        )
    fresh = {name: c for name, c in fresh.items() if "skipped" not in c}
    if args.record:
        slices = {}
        for name, counts in fresh.items():
            old = records.get(version, {}).get(name)
            if old is not None:
                counts["previous"] = {
                    key: old[key]
                    for key in ("python_calls_per_op", "c_calls_per_op")
                }
            slices[name] = counts
        records[version] = slices
        doc["calls"] = {
            "seed": callcount.CALL_SEED,
            "description": (
                "run_perf.py guard calls: Python and C calls per op over a "
                "short slice of each e2e workload (sys.setprofile hook, one "
                "fresh interpreter per slice, PYTHONHASHSEED=0), one record "
                "per interpreter minor version. previous = the per-op "
                "counts of the record this one replaced."
            ),
            "by_python": records,
        }
        with open(baseline_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"call counts recorded in {baseline_path} (Python {version})")
        return 0
    if version not in records:
        print(
            f"calls recorded on Python {', '.join(sorted(records))}, this "
            f"is {version}: not comparable"
        )
        return 0
    recorded = records[version]
    failures = {
        name: ["recorded, but did not run"]
        for name in recorded if name not in fresh
    }
    for name, counts in fresh.items():
        if name not in recorded:
            print(f"{name}: no record on Python {version}, not compared")
            continue
        moved = _calls_differ(counts, recorded[name])
        if moved:
            failures[name] = moved
    if failures:
        for name, moved in failures.items():
            print(f"{name}: " + "; ".join(moved))
        print(
            "calls guard FAILED: call counts moved from the record; re-record "
            "with `guard calls --record` on Python "
            f"{version} and cite the change"
        )
        return 1
    print("calls guard passed: every count equals the record")
    return 0


#: name -> (default gate, ratio measurement, what it measures, what a
#: failure means).
GUARDS = {
    "telemetry": (
        0.03,
        _best_ratio(microbench.telemetry_overhead_ratio),
        "disabled-telemetry overhead on deflate round-trip",
        "the tracing_enabled() fast path must stay free when tracing is off",
    ),
    "span": (
        0.03,
        _best_ratio(microbench.span_overhead_ratio),
        "disabled span/quantile instrumentation overhead",
        "the span/quantile/flight-recorder guards must stay free when "
        "tracing is off",
    ),
    "tier": (
        0.25,
        _best_ratio(microbench.tier_overhead_ratio),
        "single-tier pipeline overhead on zswap store/load",
        "TierPipeline bookkeeping must stay negligible next to the codec "
        "on the single-tier store path",
    ),
    "stats": (
        0.50,
        _best_ratio(microbench.stats_overhead_ratio),
        "SwapStats field increment over a plain slot increment",
        "stats fields must stay plain attributes; the registry reads "
        "them at snapshot time, never on every increment",
    ),
    "sim": (
        0.05,
        _sim_ratio,
        "tier kernels over the committed baseline",
        "scheduler/clock bookkeeping leaked into the hot path",
    ),
}


def cmd_guard(args: argparse.Namespace) -> int:
    if args.name == "calls":
        return cmd_calls(args)
    default_gate, measure, what, meaning = GUARDS[args.name]
    gate = default_gate if args.max_overhead is None else args.max_overhead
    overhead = measure(args) - 1.0
    print(f"{what}: {overhead * 100:+.2f}% (gate: < {gate * 100:.0f}%)")
    if overhead > gate:
        print(f"{args.name} guard FAILED: {meaning}")
        return 1
    print(f"{args.name} guard passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    run = sub.add_parser("run", help="measure and print/update baseline")
    run.add_argument("--update-baseline", action="store_true")
    run.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    run.add_argument("--inner-scale", type=float, default=1.0)
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument("--trace-dir", default=None)
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="compare against committed baseline")
    check.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    check.add_argument("--inner-scale", type=float, default=1.0)
    check.add_argument("--repeats", type=int, default=2)
    check.add_argument("--max-slowdown", type=float, default=2.5)
    check.add_argument("--trace-dir", default=None)
    check.set_defaults(func=cmd_check)

    guard = sub.add_parser("guard", help="assert one overhead stays bounded")
    guard.add_argument("name", choices=sorted(GUARDS) + ["calls"])
    guard.add_argument("--max-overhead", type=float, default=None)
    guard.add_argument("--repeats", type=int, default=3)
    guard.add_argument("--trials", type=int, default=3)
    guard.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    guard.add_argument("--inner-scale", type=float, default=1.0)
    guard.add_argument(
        "--record", action="store_true",
        help="calls only: write the fresh counts as the record",
    )
    guard.set_defaults(func=cmd_guard)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

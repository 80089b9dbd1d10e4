"""Python and C calls per op over a short slice of an e2e workload.

    python benchmarks/perf/callcount.py <workload>

prints one JSON object: the slice's op count, its Python calls
(``call`` events of a ``sys.setprofile`` hook, generator resumptions
included) attributed to the callee's file, its C calls (``c_call``)
attributed to the caller's, both in total and per top-level ``repro``
package (``other`` for everything outside it). Only what raises a
profiler event counts: a call to a builtin function
(``hashlib.sha256(...)``, ``len``, ``heapq.heappush``) is a C call, but
a call to a type (``hashlib.blake2b(...)``, ``int(...)``, a
``NamedTuple`` or a dataclass) and a slot wrapper such as
``object.__setattr__`` are counted nowhere. What a type call runs
inside counts on its own terms: a ``NamedTuple``'s generated
``__new__`` is one Python call and its ``tuple.__new__`` one C call
(under ``other``), while a frozen dataclass's field stores count
nothing. So swapping one kind for the other can move the C count
while the work falls. The slice is set up from
``benchmarks/e2e/workloads.py``, which is imported as is, and only its
``run`` is counted. ``run_perf.py guard calls`` runs each slice through
this script in a fresh interpreter, so one-time costs (imports, the
native kernel load, first-use caches) land in the same place every time.
A workload whose modules cannot be imported (``numpy`` missing for the
emulator) prints ``{"skipped": <reason>}``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent.parent / "e2e"

#: The call gate's slice of each end-to-end workload: name -> scale (the
#: fraction of the workload's 15 s reference run), all at one seed.
CALL_SLICES = {
    "fleet_spike": 0.1,
    "fleet_steady_export": 0.1,
    "tier_churn": 0.1,
    "tier_fault_reuse": 0.1,
    "xfm_emulator": 0.01,
}
CALL_SEED = 23


def count_slice(name: str) -> dict:
    """Set up the slice of workload ``name``, count its run (see the
    module docstring) and return the counts."""
    sys.path.insert(0, str(E2E_DIR))
    import workloads  # the benchmark's own definitions, read-only

    workload = workloads.WORKLOADS[name]
    try:
        workloads.import_program(workload)
    except ModuleNotFoundError as exc:
        return {"skipped": str(exc)}
    if "repro.compression" in sys.modules:
        from repro.compression import _native

        if not _native.available():
            raise SystemExit("call gate: native codec kernels did not load")
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    by_file: dict = {}

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            key = (event, frame.f_code.co_filename)
            by_file[key] = by_file.get(key, 0) + 1

    with tempfile.TemporaryDirectory(prefix="call-gate-") as workdir:
        state = workload.setup(CALL_SEED, CALL_SLICES[name], Path(workdir))
        sys.setprofile(hook)
        try:
            outcome = workload.run(state, None)
        finally:
            sys.setprofile(None)
    by_package: dict = {}
    for (event, filename), count in by_file.items():
        if filename.startswith(root):
            head = filename[len(root):].split(os.sep, 1)[0]
            package = head[:-3] if head.endswith(".py") else head
        else:
            package = "other"
        kind = "python" if event == "call" else "c"
        counts = by_package.setdefault(package, {"python": 0, "c": 0})
        counts[kind] += count
    python = sum(c["python"] for c in by_package.values())
    c_calls = sum(c["c"] for c in by_package.values())
    return {
        "scale": CALL_SLICES[name],
        "ops": outcome.ops,
        "python_calls": python,
        "c_calls": c_calls,
        "python_calls_per_op": round(python / outcome.ops, 2),
        "c_calls_per_op": round(c_calls / outcome.ops, 2),
        "by_package": dict(sorted(by_package.items())),
    }


if __name__ == "__main__":
    print(json.dumps(count_slice(sys.argv[1])))

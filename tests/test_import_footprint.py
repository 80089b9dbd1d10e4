"""What an import loads, counted in a fresh interpreter.

Fleet throughput fell with the number of modules loaded in the process
(CHANGES.md, the FOUND line on loaded modules), and every module a
workload loads is compiled in a bytecode-free run. So the package inits
import no submodule (``import repro`` resolves its public names on first
use), each entry module loads only what its workload runs, and neither
the tier nor the fleet stack loads numpy or the analysis layer. The CLI
module loads no analysis, hardware-model or scenario module: the
experiment table and the campaigns import what they run when they run
it. Building and using a pipeline or a fleet shard loads nothing its
entry import did not, so no import cost moves into set-up or a timed run.
"""

import json
import subprocess
import sys

import pytest

#: ``repro.*`` modules (the package itself included) each import loads.
CEILINGS = {
    "repro": 1,
    "repro.core.emulator": 21,
    "repro.fleet.harness": 64,
    "repro.tiering.pipeline": 50,
}
#: Entry modules of the tier and fleet stacks, and the module of the
#: ``XfmDevice`` a tier can offload through; none of them needs numpy.
NUMPY_FREE = (
    "repro",
    "repro.core.refresh_channel",
    "repro.fleet.harness",
    "repro.tiering.pipeline",
)


def _loaded(module: str, then: str = ""):
    """``(repro modules, all modules)`` after importing ``module`` and
    running the statements ``then``, in a fresh interpreter."""
    code = (
        f"import json, sys, {module}\n{then}\n"
        "print(json.dumps([sorted(m for m in sys.modules if m == 'repro' "
        "or m.startswith('repro.')), sorted(sys.modules)]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("module", sorted(CEILINGS))
def test_library_imports_do_not_grow(module):
    loaded, _ = _loaded(module)
    assert len(loaded) <= CEILINGS[module], loaded
    assert not [m for m in loaded if m.startswith("repro.analysis")]


@pytest.mark.parametrize("module", NUMPY_FREE)
def test_tier_and_fleet_stacks_load_no_numpy(module):
    _, everything = _loaded(module)
    assert not [m for m in everything if m.split(".")[0] == "numpy"]


def test_cli_module_loads_no_engine_layer():
    lazy = ("repro.analysis", "repro.hwmodel", "repro.scenarios")
    loaded, _ = _loaded("repro.__main__")
    assert not [m for m in loaded if m.startswith(lazy)]


#: What building and using each stack runs after its entry import.
USES = {
    "repro.tiering.pipeline": (
        "from repro.tiering.pipeline import TierPipeline\n"
        "pipeline = TierPipeline.build(1 << 20, 1 << 20, 1 << 20)\n"
        "page = bytes(range(256)) * 16\n"
        "assert pipeline.store(7, page) and pipeline.load(7) == page"
    ),
    "repro.fleet.shard": (
        "from repro.fleet.shard import FleetShard\n"
        "from repro.sim.events import EventScheduler\n"
        "FleetShard('s0', EventScheduler())"
    ),
}


@pytest.mark.parametrize("module", sorted(USES))
def test_using_the_stack_loads_nothing_its_import_did_not(module):
    imported, _ = _loaded(module)
    used, _ = _loaded(module, USES[module])
    assert used == imported

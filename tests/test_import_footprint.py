"""What an import loads, counted in a fresh interpreter.

Fleet throughput fell with the number of modules loaded in the process
(CHANGES.md, the FOUND line on loaded modules), so the package and the
fleet harness may not load more of ``repro`` than they do today, and
neither loads the analysis layer. The CLI module loads no analysis,
hardware-model or scenario module: the experiment table and the
campaigns import what they run when they run it.
"""

import json
import subprocess
import sys

import pytest

#: ``repro.*`` modules (the package itself included) each import loads.
CEILINGS = {"repro": 82, "repro.fleet.harness": 92}


def _loaded(module: str):
    code = (
        f"import json, sys, {module}; print(json.dumps(sorted("
        "m for m in sys.modules if m == 'repro' or m.startswith('repro.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("module", sorted(CEILINGS))
def test_library_imports_do_not_grow(module):
    loaded = _loaded(module)
    assert len(loaded) <= CEILINGS[module], loaded
    assert not [m for m in loaded if m.startswith("repro.analysis")]


def test_cli_module_loads_no_engine_layer():
    lazy = ("repro.analysis", "repro.hwmodel", "repro.scenarios")
    loaded = _loaded("repro.__main__")
    assert not [m for m in loaded if m.startswith(lazy)]

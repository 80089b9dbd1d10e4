"""Metric catalogue: every series name, label set and stats field the
programs export, pinned.

Four in-process runs (the ``tiers`` demo, ``trace zswap``, a short fleet
campaign with a mid-spike shard kill, and a chaos campaign) each write a
``metrics.json``. For every run the test pins the sorted key list of its
``registry`` snapshot, the field names of its ``stats`` block, and the
number of label sets per metric name; for the fleet run it pins each
shard registry's snapshot keys as well. A change to how counters are
stored or bound must leave the catalogue alone: same keys, same labels,
nothing extra. A change that adds or renames a series on purpose
regenerates the file::

    PYTHONPATH=src python tests/telemetry/test_metric_catalogue.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, List

import pytest

CATALOGUE = Path(__file__).with_name("metric_catalogue.json")

#: run name -> CLI argv (``--out`` is appended).
RUNS = {
    "tiers": ["tiers"],
    "trace-zswap": ["trace", "zswap"],
    "fleet": [
        "fleet", "--fleet-shards", "3", "--rate-rps", "17500",
        "--duration-scale", "0.25", "--kill-shard-at-ms", "18.75",
        "--expect-shed",
    ],
    "chaos": ["chaos", "--seed", "7", "--ops", "200", "--profile", "full"],
}


def _label_sets(keys: List[str]) -> Dict[str, int]:
    return dict(sorted(Counter(key.split("{", 1)[0] for key in keys).items()))


def _entry(keys: List[str]) -> Dict[str, object]:
    keys = sorted(keys)
    return {"keys": keys, "label_sets": _label_sets(keys)}


def build_catalogue(root: Path) -> Dict[str, object]:
    """Run every program in :data:`RUNS` under ``root`` and catalogue
    what it exported."""
    from repro.__main__ import main
    from repro.fleet.shard import FleetShard

    shards: List[FleetShard] = []
    original_init = FleetShard.__init__

    def capture(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        shards.append(self)

    catalogue: Dict[str, object] = {}
    FleetShard.__init__ = capture
    try:
        for name, argv in RUNS.items():
            shards.clear()
            out = root / name
            with contextlib.redirect_stdout(io.StringIO()):
                main([*argv, "--out", str(out)])
            doc = json.loads((out / "metrics.json").read_text("utf-8"))
            entry = _entry(list(doc["registry"]))
            entry["stats"] = {
                owner: sorted(fields)
                for owner, fields in sorted(doc["stats"].items())
            }
            if shards:
                entry["shards"] = {
                    shard.name: _entry(list(shard.registry.snapshot()))
                    for shard in shards
                }
            catalogue[name] = entry
    finally:
        FleetShard.__init__ = original_init
    return catalogue


@pytest.fixture(scope="module")
def catalogue(tmp_path_factory):
    return build_catalogue(tmp_path_factory.mktemp("catalogue"))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(CATALOGUE.read_text("utf-8"))


def test_every_run_is_catalogued(catalogue, pinned):
    assert sorted(catalogue) == sorted(pinned) == sorted(RUNS)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_registry_keys_are_pinned(catalogue, pinned, run):
    assert catalogue[run]["keys"] == pinned[run]["keys"]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_label_cardinality_is_pinned(catalogue, pinned, run):
    assert catalogue[run]["label_sets"] == pinned[run]["label_sets"]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_stats_block_is_pinned(catalogue, pinned, run):
    assert catalogue[run]["stats"] == pinned[run]["stats"]


def test_fleet_shard_registries_are_pinned(catalogue, pinned):
    assert catalogue["fleet"]["shards"] == pinned["fleet"]["shards"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = build_catalogue(Path(tmp))
    CATALOGUE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {CATALOGUE}", file=sys.stderr)

"""The suite's one Hypothesis configuration.

Every generated-case test starts from ``derandomize=True`` (its cases
depend on the test alone, not on the host, ``PYTHONHASHSEED`` or earlier
runs), ``database=None``, ``deadline=None`` and ``print_blob=True`` (a
failure prints the falsifying example, each ``note()`` and the
``@reproduce_failure`` line that replays it). Hypothesis also mines
constants from the loaded local modules into its draws and caches them
in its home directory: every ``repro`` module is imported here first,
so the cases do not depend on which tests a run selects, and the home
is a temporary directory removed at exit, so no ``.hypothesis/`` is
left behind.

A test states only its tier-1 ``max_examples`` (and, for a state
machine, ``stateful_step_count``). Its ``fuzz``-marked twin passes the
same numbers to :func:`fuzz_settings`, which multiplies the example
count by ``FUZZ_TIME_BUDGET_S / 6``. This module is the only reader of
``FUZZ_TIME_BUDGET_S``. Unset, it reads 3, so in a plain ``pytest`` run
(which collects the twins too) a twin runs half its tier-1 count; CI's
fuzz job sets 30, five times the count.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import repro

settings.register_profile(
    "repro", derandomize=True, database=None, deadline=None, print_blob=True
)
settings.load_profile("repro")

_home = tempfile.TemporaryDirectory(prefix="repro-hypothesis-")
set_hypothesis_home_dir(_home.name)

for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not _module.name.endswith(".__main__"):
        importlib.import_module(_module.name)

#: How many times its tier-1 examples a ``fuzz``-marked twin runs.
FUZZ_SCALE = float(os.environ.get("FUZZ_TIME_BUDGET_S", "3")) / 6


def fuzz_settings(max_examples: int, **tier1) -> settings:
    """The settings of a ``fuzz``-marked twin whose tier-1 property runs
    ``max_examples`` examples (``tier1`` passes anything else it sets,
    such as ``stateful_step_count``)."""
    return settings(
        max_examples=max(1, round(max_examples * FUZZ_SCALE)), **tier1
    )

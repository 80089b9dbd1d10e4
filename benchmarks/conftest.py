"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper, writes the
rendered rows/series to ``benchmarks/results/<name>.txt``, prints them
(visible with ``pytest -s`` and in the teed bench log), and asserts the
qualitative shape the paper reports. Absolute numbers are not asserted —
the substrate is a simulator, not the authors' testbed (see EXPERIMENTS.md).

The paper's own figures and tables are the rows of
:data:`repro.analysis.experiments.EXPERIMENTS`: their benches run an
experiment through the :func:`experiment` fixture, which writes exactly
the text ``python -m repro <name>`` prints, and keep only their shape
asserts. The ablation and extension benches render their own tables.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.experiments import EXPERIMENTS

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def emit():
    """Write (and echo) a bench's rendered output."""

    def _emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n=== {name} ===")
        print(text)

    return _emit


@pytest.fixture
def once(benchmark):
    """Run the measured callable exactly once under pytest-benchmark.

    The experiment engines are deterministic simulations, not
    micro-kernels; one timed round is the meaningful measurement.
    """

    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _once


@pytest.fixture
def experiment(once, emit):
    """Compute one experiment of the table once (timed), write the
    results file(s) it owns, and return its data for the shape asserts."""

    def _experiment(name: str):
        rec = EXPERIMENTS[name]
        data = once(rec.compute)
        for stem, text in zip(rec.results, rec.render(data)):
            emit(stem, text)
        return data

    return _experiment

"""Golden-snapshot regression tests for the Fig. 8 and Fig. 12 rows of
the experiment table.

Each record's ``render(compute())`` must equal, file by file, the
committed ``benchmarks/results/*.txt`` artifacts its bench writes from
the same record. ``tests/test_cli.py::TestCli::test_fast_experiments_run``
checks that ``python -m repro <name>`` prints the same text. A diff here
means the paper-reproduction numbers moved — regenerate the goldens by
rerunning the benches only after confirming the shift is intentional.
"""

from pathlib import Path

from repro.analysis.experiments import EXPERIMENTS

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def _assert_matches_golden(name: str) -> None:
    rec = EXPERIMENTS[name]
    rendered = rec.render(rec.compute())
    assert len(rendered) == len(rec.results)
    for stem, text in zip(rec.results, rendered):
        golden = (RESULTS / f"{stem}.txt").read_text(encoding="utf-8")
        assert text + "\n" == golden, (
            f"{name} output drifted from benchmarks/results/{stem}.txt"
            " — rerun the bench to regenerate if the change is intentional"
        )


def test_fig08_matches_golden():
    _assert_matches_golden("fig8")


def test_fig12_matches_golden():
    _assert_matches_golden("fig12")

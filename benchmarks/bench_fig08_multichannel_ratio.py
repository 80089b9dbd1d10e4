"""Fig. 8 — compression ratio of page-divided corpora at interleave
granularity, 1/2/4-DIMM configurations.

Paper claims (§6, §8): interleaved multi-DIMM compression retains ~86.2%
of the in-order compression ratio on average at 4 DIMMs; memory savings
drop ~5% at 2 channels and ~14% at 4 channels (window shrink + same-offset
placement fragmentation).

The ingested-corpus table is rendered by the ``fig8`` experiment's
renderer too.
"""

from repro.analysis.experiments import EXPERIMENTS
from repro.core.multichannel import measure_corpus
from repro.workloads.ingested import ingested_corpus_pages, ingested_domains


def test_fig8_multichannel_ratio(experiment):
    reports = experiment("fig8")

    compressible = [r for r in reports if r.stored_ratio[1] > 1.3]
    mean_retention = sum(
        r.ratio_retention(4) for r in compressible
    ) / len(compressible)
    mean_red2 = sum(
        r.savings_reduction_vs_inorder(2) for r in compressible
    ) / len(compressible)
    mean_red4 = sum(
        r.savings_reduction_vs_inorder(4) for r in compressible
    ) / len(compressible)

    # Shape: monotone degradation, in the paper's ballpark.
    for report in reports:
        assert (
            report.stored_ratio[1] + 1e-9
            >= report.stored_ratio[2] - 1e-9
        )
        assert report.stored_ratio[2] + 1e-9 >= report.stored_ratio[4] - 1e-9
    assert 0.6 <= mean_retention <= 1.0
    assert 0.0 <= mean_red2 <= 0.25
    assert mean_red2 <= mean_red4 <= 0.40


def _measure_ingested():
    """The same interleave sweep over *real* ingested pages (this repo's
    tree, or $REPRO_CORPUS_DIR) — the synthetic golden stays untouched;
    this checks the paper's multi-channel degradation shape holds on
    actual source/text bytes too."""
    return [
        measure_corpus(
            f"ingested-{domain}",
            ingested_corpus_pages(domain, 16),
            dimm_counts=(1, 2, 4),
        )
        for domain in ingested_domains()
    ]


def test_fig8_on_ingested_corpus(once, emit):
    reports = once(_measure_ingested)
    (table,) = EXPERIMENTS["fig8"].render(reports)
    emit("fig08_ingested", table)

    for report in reports:
        # Real pages compress; interleave splitting degrades monotonically
        # (window shrink + same-offset fragmentation), exactly the shape
        # the synthetic golden pins numerically.
        assert report.stored_ratio[1] > 1.2, report
        assert (
            report.stored_ratio[1] + 1e-9 >= report.stored_ratio[2] - 1e-9
        )
        assert (
            report.stored_ratio[2] + 1e-9 >= report.stored_ratio[4] - 1e-9
        )
        assert 0.5 <= report.ratio_retention(4) <= 1.0 + 1e-9

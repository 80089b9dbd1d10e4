"""Workload substrates: corpora, access patterns, far-memory traces,
an AIFM-like runtime, a synthetic web front-end, and SPEC-like profiles.

These packages stand in for the proprietary inputs of the paper's
evaluation (Silesia-style corpus files, SPEC CPU 2017, the DataFrame web
front-end driving AIFM) with deterministic synthetic equivalents — see
DESIGN.md's substitution table.
"""

from repro.workloads.corpus import (
    CORPUS_NAMES,
    corpus_pages,
    describe_corpus,
    generate_corpus,
    tunable_page,
)
from repro.workloads.traces import SwapTrace

__all__ = [
    "CORPUS_NAMES",
    "SwapTrace",
    "corpus_pages",
    "describe_corpus",
    "generate_corpus",
    "tunable_page",
]

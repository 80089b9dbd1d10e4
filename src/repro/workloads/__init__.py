"""Workload substrates: corpora, access patterns, far-memory traces,
an AIFM-like runtime, a synthetic web front-end, and SPEC-like profiles.

These packages stand in for the proprietary inputs of the paper's
evaluation (Silesia-style corpus files, SPEC CPU 2017, the DataFrame web
front-end driving AIFM) with deterministic synthetic equivalents — see
DESIGN.md's substitution table.

The package imports none of its modules, so loading one loads no
sibling: import names from the module that defines them.
"""

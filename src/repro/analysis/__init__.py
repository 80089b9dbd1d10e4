"""Figure and table data for the paper's evaluation.

:mod:`repro.analysis.experiments` is the table of experiments the CLI,
``export``, the benches and the golden test read; the engines it calls
are :mod:`~repro.analysis.figures` and :mod:`~repro.analysis.tables`.
:mod:`~repro.analysis.report` renders ASCII tables, and
:mod:`~repro.analysis.amat` compares tiers' average access times. The
package imports none of them, so loading one module loads no engine.
"""

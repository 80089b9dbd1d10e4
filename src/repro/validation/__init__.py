"""Cross-layer validation subsystem (differential oracles, invariant
checkers, deterministic fuzzing).

This package is the correctness tooling that lets perf/scaling PRs
refactor hot paths without silently breaking paper fidelity:

* :mod:`repro.validation.hooks` — the zero-cost-when-disabled
  checkpoint switch every instrumented class calls after mutations;
* :mod:`repro.validation.invariants` — the structural checkers those
  checkpoints dispatch to (SFM backend index, zpool, SPM, register
  mirror, window scheduler, XFM module);
* :mod:`repro.validation.oracles` — differential oracles: codecs vs
  stdlib zlib, the optimistic emulator engine vs the FSM-protocol-
  checked :class:`~repro.core.xfm_module.XfmModule`, and independent
  command-trace replay;
* :mod:`repro.validation.fuzz` — a deterministic stdlib-only fuzz
  micro-framework with single-seed reproduction and shrinking;
* :mod:`repro.validation.generators` — seeded case generators (pages,
  damaged codec blobs, operation scripts, register programs, offload
  batches, fault plans).

Enable checkpoints globally with ``REPRO_VALIDATION=1``, scoped with
``with validation(): ...``, or for a whole pytest run with
``--validation``.

Import names from the submodules: the instrumented data structures
import :mod:`~repro.validation.hooks`, and the checkers import those
structures, so this package re-exports nothing.
"""

"""Cross-layer validation subsystem (differential oracles, invariant
checkers, seeded case generators).

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
* :mod:`repro.validation.generators` — seeded case generators (pages,
  damaged codec blobs, operation scripts, register programs, offload
  batches, fault plans), each a pure function of a ``random.Random``.
  The test suite drives them through Hypothesis
  (``st.randoms(use_true_random=False)``), which generates, shrinks
  and replays the cases; this package has no engine of its own.

Enable checkpoints globally with ``REPRO_VALIDATION=1``, scoped with
``with run_context(validation=True): ...`` (:mod:`repro.sim.context`),
or for a whole pytest run with ``--validation``.

Import names from the submodules: the instrumented data structures
import :mod:`~repro.validation.hooks`, and the checkers import those
structures, so this package re-exports nothing.
"""

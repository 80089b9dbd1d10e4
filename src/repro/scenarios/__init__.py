"""Scenario zoo: swap-trace record/replay and corpus ingestion.

See DESIGN.md §10. :class:`TraceRecorder` shadows any
:class:`~repro.tiering.protocol.FarMemoryTier` and emits a versioned
:class:`ScenarioTrace`; :class:`TraceReplayer` replays one against any
backend or pipeline config under the simulated clock;
:func:`ingest_tree` page-ifies a real file tree into a digest-verified
corpus; :data:`SCENARIOS` is the shipped library of replayable traces.
"""

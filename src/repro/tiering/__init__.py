"""Multi-tier far-memory composition (CPU-zswap -> XFM -> DFM).

``FarMemoryTier`` (:mod:`~repro.tiering.protocol`) is the structural
contract every backend satisfies; ``TierPipeline``
(:mod:`~repro.tiering.pipeline`) chains tiers under pluggable admission
and demotion policies. See DESIGN.md §8.

The package imports none of its modules, so loading one loads no
sibling: import names from the module that defines them.
"""

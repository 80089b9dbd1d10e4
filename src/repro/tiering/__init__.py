"""Multi-tier far-memory composition (CPU-zswap -> XFM -> DFM).

``FarMemoryTier`` is the structural contract every backend satisfies;
``TierPipeline`` chains tiers under pluggable admission and demotion
policies. See DESIGN.md §8.
"""

from repro.tiering.factory import TIER_KINDS, make_tier
from repro.tiering.pipeline import TierPipeline
from repro.tiering.policy import (
    LruDemotion,
    NeverDemote,
    PoolLimitPolicy,
)
from repro.tiering.protocol import FarMemoryTier, SwapOutcome

__all__ = [
    "FarMemoryTier",
    "LruDemotion",
    "NeverDemote",
    "PoolLimitPolicy",
    "SwapOutcome",
    "TIER_KINDS",
    "TierPipeline",
    "make_tier",
]

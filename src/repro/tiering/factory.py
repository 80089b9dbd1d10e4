"""make_tier: one constructor for every replay / CLI target config.

The CLI, the scenario replayer, and the differential tests all need to
turn a short backend name (``cpu`` / ``xfm`` / ``xfm-mc`` / ``dfm`` /
``pipeline``) into a ready :class:`~repro.tiering.protocol.FarMemoryTier`.
This module is that single mapping, so the set of replayable targets is
defined in exactly one place.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.sfm.page import PAGE_SIZE
from repro.telemetry.registry import MetricsRegistry
from repro.tiering.protocol import FarMemoryTier

#: Backend names ``make_tier`` accepts (also the CLI's --backend values).
TIER_KINDS = ("cpu", "xfm", "xfm-mc", "dfm", "pipeline")

#: Default pipeline split: tier-0 and tier-1 each get 1/8 of the total,
#: the DFM floor gets the rest — small upper tiers force the demotion
#: cascades the scenarios are recorded against.
_PIPELINE_SPLIT = (1 / 8, 1 / 8)


def make_tier(
    kind: str,
    capacity_bytes: int = 256 * PAGE_SIZE,
    registry: Optional[MetricsRegistry] = None,
) -> FarMemoryTier:
    """Build a far-memory target by name.

    ``capacity_bytes`` is the *total* capacity: flat backends get all of
    it; ``pipeline`` splits it 1/8 cpu-zswap, 1/8 xfm, 3/4 dfm.
    """
    if capacity_bytes < PAGE_SIZE:
        raise ConfigError(
            f"capacity_bytes must be at least one page, got {capacity_bytes}"
        )
    registry = registry if registry is not None else MetricsRegistry()
    if kind == "cpu":
        from repro.sfm.backend import SfmBackend

        return SfmBackend(
            capacity_bytes=capacity_bytes, registry=registry, tier="cpu-zswap"
        )
    if kind == "xfm":
        from repro.core.backend import XfmBackend

        return XfmBackend(
            capacity_bytes=capacity_bytes, registry=registry, tier="xfm"
        )
    if kind == "xfm-mc":
        from repro.core.backend import XfmBackend

        num_dimms = 4
        return XfmBackend(
            capacity_bytes=capacity_bytes - capacity_bytes % num_dimms,
            registry=registry,
            tier="xfm-mc",
            num_dimms=num_dimms,
        )
    if kind == "dfm":
        from repro.dfm.backend import DfmBackend

        return DfmBackend(
            capacity_bytes=capacity_bytes, registry=registry, tier="dfm"
        )
    if kind == "pipeline":
        from repro.tiering.pipeline import TierPipeline

        cpu = max(PAGE_SIZE, int(capacity_bytes * _PIPELINE_SPLIT[0]))
        xfm = max(PAGE_SIZE, int(capacity_bytes * _PIPELINE_SPLIT[1]))
        dfm = max(PAGE_SIZE, capacity_bytes - cpu - xfm)
        return TierPipeline.build(
            cpu_capacity_bytes=cpu,
            xfm_capacity_bytes=xfm,
            dfm_capacity_bytes=dfm,
            registry=registry,
        )
    raise ConfigError(
        f"unknown tier kind {kind!r}; have {', '.join(TIER_KINDS)}"
    )

"""Pluggable tiering policy objects.

The decisions that used to live inline in ``ZswapFrontend.store`` /
``ZswapFrontend.shrink`` — when is a tier too full to admit, which
entries are evicted under pressure — are policy, not mechanism. This module gives each decision a small
object so the :class:`~repro.tiering.pipeline.TierPipeline` (and the
zswap frontend itself) can swap strategies without touching the data
path:

* :class:`AdmissionPolicy` — may this tier accept one more page?
* :class:`DemotionPolicy` — is this tier under enough pressure that its
  LRU entries should sink to the next tier down?
* :class:`PoolLimitPolicy` — zswap's ``max_pool_percent`` arithmetic,
  extracted verbatim so the frontend and tests share one copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sfm.page import PAGE_SIZE


# -- admission ---------------------------------------------------------------


class AdmissionPolicy:
    """Decides whether a tier may take one more page *before* the
    store is attempted (the tier can still reject on its own)."""

    def admit(self, tier) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class AlwaysAdmit(AdmissionPolicy):
    """No pre-check: let the tier's own capacity logic decide."""

    def admit(self, tier) -> bool:
        return True


# -- demotion ----------------------------------------------------------------


class DemotionPolicy:
    """Decides when a tier is under pressure; the pipeline then demotes
    that tier's LRU entries downward until the policy is satisfied."""

    def should_demote(self, tier) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class LruDemotion(DemotionPolicy):
    """Demote LRU-cold entries while the tier sits above its watermark
    (fraction of capacity). The victim *order* is the pipeline's
    per-tier LRU; this object only supplies the pressure test."""

    watermark_fraction: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.watermark_fraction <= 1.0:
            raise ConfigError("watermark_fraction must be in (0, 1]")

    def should_demote(self, tier) -> bool:
        # One read per tier: every backend's ``used_bytes()`` returns a
        # maintained footprint and its ``capacity_bytes`` is a field.
        return tier.used_bytes() > self.watermark_fraction * tier.capacity_bytes


class NeverDemote(DemotionPolicy):
    """Pressure never cascades; tiers reject instead (store falls
    through to the next tier at admission time)."""

    def should_demote(self, tier) -> bool:
        return False


# -- zswap pool limit --------------------------------------------------------


@dataclass(frozen=True)
class PoolLimitPolicy:
    """zswap's ``max_pool_percent`` admission arithmetic.

    ``limit_bytes`` is the pool budget; :meth:`over_limit` is the
    store-path check and :meth:`needs_headroom` the shrink-loop
    condition — both exactly as ``ZswapFrontend`` historically inlined
    them, now shared between the frontend, the pipeline tests, and any
    future tier that wants kernel-compatible semantics.
    """

    total_ram_bytes: int
    max_pool_percent: int = 20

    def __post_init__(self) -> None:
        if not 1 <= self.max_pool_percent <= 100:
            raise ConfigError("max_pool_percent must be in [1, 100]")
        if self.total_ram_bytes < PAGE_SIZE:
            raise ConfigError("total_ram_bytes too small")

    def limit_bytes(self) -> int:
        return self.total_ram_bytes * self.max_pool_percent // 100

    def over_limit(self, used_bytes: int) -> bool:
        return used_bytes >= self.limit_bytes()

    def needs_headroom(self, used_bytes: int, headroom_bytes: int) -> bool:
        """True while ``used + headroom`` still exceeds the limit — the
        writeback loop keeps evicting until this turns False."""
        return used_bytes + headroom_bytes > self.limit_bytes()

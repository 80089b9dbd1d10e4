"""SFM control plane: cold-page selection.

:class:`ColdScanController` mirrors Google's approach (§2.1): a
kstaled-like scanner periodically sweeps page access timestamps and
nominates pages idle longer than a cold-age threshold (120 s in Google's
fleet, yielding ~30% cold memory and a ~15% promotion rate, §3.1).

It returns candidate lists; the backend decides acceptance (compressible,
pool space). It never touches page *contents* — control plane and data
plane are separate, which is what lets XFM swap the data plane out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List

from repro.errors import ConfigError
from repro.sfm.page import Page


@dataclass
class ColdScanController:
    """Periodic cold-age scanner (kstaled/kreclaimd-like)."""

    cold_threshold_s: float = 120.0
    scan_period_s: float = 60.0
    #: Cap on candidates per scan (reclaim batching).
    max_candidates_per_scan: int = 1 << 20
    _last_scan_s: float = field(default=float("-inf"), init=False)

    def __post_init__(self) -> None:
        if self.cold_threshold_s <= 0 or self.scan_period_s <= 0:
            raise ConfigError("thresholds must be positive")

    def due(self, now_s: float) -> bool:
        """Whether a scan is due at ``now_s``."""
        return now_s - self._last_scan_s >= self.scan_period_s

    def scan(self, pages: Iterable[Page], now_s: float) -> List[Page]:
        """Return resident pages idle for at least the cold threshold,
        coldest first."""
        self._last_scan_s = now_s
        cold = [
            page
            for page in pages
            if not page.swapped and page.is_cold(now_s, self.cold_threshold_s)
        ]
        cold.sort(key=lambda page: page.last_access_s)
        return cold[: self.max_candidates_per_scan]


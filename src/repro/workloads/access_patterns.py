"""Page-access pattern generators.

SFM pays off for applications with *predictable access patterns over
compressible data* (§1, §3.2). These generators produce the page-access
streams the far-memory runtime and the controllers are exercised with:

* :class:`ZipfPattern` — skewed popularity without a hard hot/cold split.
* :class:`ScanPattern` — periodic sequential sweeps (analytics), the
  prefetch-friendly pattern XFM's ``do_offload`` swap-ins target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import ConfigError


class AccessPattern:
    """Base: a deterministic stream of page indices in ``[0, num_pages)``."""

    num_pages: int

    def next_accesses(self, count: int) -> List[int]:
        """Produce the next ``count`` page accesses."""
        raise NotImplementedError


@dataclass
class ZipfPattern(AccessPattern):
    """Zipf-distributed page popularity."""

    num_pages: int
    exponent: float = 1.1
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ConfigError("zipf exponent must be positive")
        self._rng = np.random.default_rng(self.seed)
        ranks = np.arange(1, self.num_pages + 1, dtype=float)
        weights = ranks ** (-self.exponent)
        self._cdf = np.cumsum(weights / weights.sum())

    def next_accesses(self, count: int) -> List[int]:
        draws = self._rng.random(count)
        return [int(i) for i in np.searchsorted(self._cdf, draws)]


@dataclass
class ScanPattern(AccessPattern):
    """Sequential sweep over all pages, restarting at the end."""

    num_pages: int
    stride: int = 1
    _cursor: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")

    def next_accesses(self, count: int) -> List[int]:
        out = []
        for _ in range(count):
            out.append(self._cursor)
            self._cursor = (self._cursor + self.stride) % self.num_pages
        return out

    def predicted_next(self, lookahead: int) -> List[int]:
        """The pages the sweep will touch next — what a prefetcher sees."""
        return [
            (self._cursor + i * self.stride) % self.num_pages
            for i in range(lookahead)
        ]


"""Swap-in/out trace format.

The paper's emulator is driven by "swap-in/out traces generated using the
AIFM userspace far memory framework when running a synthetic web front-end
application" (§7). :class:`SwapTrace` is that artifact: a time-ordered list
of page-granular swap events, serializable to JSONL, with helpers to derive
the quantities the models need (promotion rate, arrival rates per tREFI).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Union

from repro._units import SECONDS_PER_MINUTE
from repro.errors import ConfigError
from repro.sfm.page import PAGE_SIZE

SWAP_OUT = "out"
SWAP_IN = "in"


@dataclass(frozen=True)
class SwapEvent:
    """One page-granular swap event."""

    time_s: float
    kind: str
    vaddr: int
    compressed_len: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (SWAP_OUT, SWAP_IN):
            raise ConfigError(f"kind must be in/out, got {self.kind!r}")
        if self.time_s < 0:
            raise ConfigError("event time must be non-negative")


@dataclass
class SwapTrace:
    """A time-ordered swap event stream."""

    events: List[SwapEvent] = field(default_factory=list)

    def record(
        self, time_s: float, kind: str, vaddr: int, compressed_len: int = 0
    ) -> None:
        self.events.append(
            SwapEvent(
                time_s=time_s,
                kind=kind,
                vaddr=vaddr,
                compressed_len=compressed_len,
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[SwapEvent]:
        return iter(self.events)

    @property
    def duration_s(self) -> float:
        if not self.events:
            return 0.0
        return self.events[-1].time_s - self.events[0].time_s

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.kind == kind)

    def swap_in_bytes_per_min(self) -> float:
        """Promoted bytes per minute — the numerator of the promotion rate."""
        duration = self.duration_s
        if duration <= 0:
            return 0.0
        return (
            self.count(SWAP_IN) * PAGE_SIZE * SECONDS_PER_MINUTE / duration
        )

    def promotion_rate(self, far_bytes: float) -> float:
        """Observed promotion rate against a far-memory capacity (§2.1)."""
        if far_bytes <= 0:
            return 0.0
        return self.swap_in_bytes_per_min() / far_bytes

    def mean_compression_ratio(self) -> float:
        outs = [
            event
            for event in self.events
            if event.kind == SWAP_OUT and event.compressed_len > 0
        ]
        if not outs:
            return 0.0
        return sum(PAGE_SIZE for _ in outs) / sum(
            event.compressed_len for event in outs
        )

    # -- persistence ---------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(
                    json.dumps(
                        {
                            "t": event.time_s,
                            "k": event.kind,
                            "v": event.vaddr,
                            "c": event.compressed_len,
                        }
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SwapTrace":
        trace = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                trace.record(raw["t"], raw["k"], raw["v"], raw.get("c", 0))
        return trace

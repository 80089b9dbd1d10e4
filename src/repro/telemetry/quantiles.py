"""Log-bucketed quantile histograms with bounded relative error.

The fixed-bucket :class:`~repro.telemetry.registry.Histogram` needs its
bounds chosen up front, which is hopeless for latency tails that span
five decades (a zswap store is ~10 us of simulated time, a DFM link
round-trip ~100x that, and a demotion cascade worse still). This module
adds the HDR-histogram idea: geometric buckets whose width grows by a
fixed ratio ``g = 1 + 2 * relative_error``, stored sparsely, so any
recorded value is reported with at most ``relative_error`` error and an
empty histogram costs a dict and five scalars.

Two histograms with the same ``(min_value, relative_error)`` config are
mergeable bucket-by-bucket (used when :class:`MetricsRegistry.merge`
folds per-tier registries into the pipeline's); merging histograms with
different configs raises :class:`~repro.errors.ConfigError` rather than
silently misfolding.

Quantile queries walk the sparse buckets in index order and report the
geometric midpoint of the bucket holding the target rank, which is what
bounds the relative error. ``p50/p90/p99/p999`` come pre-packaged via
:meth:`QuantileHistogram.percentiles` for the latency tables.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.errors import ConfigError

LabelKey = Tuple[Tuple[str, str], ...]

#: The percentile set every latency table reports.
STANDARD_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
)


class QuantileHistogram:
    """Sparse geometric-bucket histogram (HDR-style).

    ``min_value`` is the resolution floor: observations at or below it
    share bucket 0. Above it, bucket ``i`` covers
    ``(min_value * g**(i-1), min_value * g**i]`` with
    ``g = 1 + 2 * relative_error``, so the geometric midpoint of any
    bucket is within ``relative_error`` of every value in it.
    """

    __slots__ = (
        "name",
        "labels",
        "min_value",
        "relative_error",
        "growth",
        "_inv_log_g",
        "counts",
        "total",
        "sum",
        "min",
        "max",
    )

    kind = "quantile"

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        min_value: float = 1.0,
        relative_error: float = 0.01,
    ) -> None:
        if min_value <= 0:
            raise ConfigError(
                f"quantile min_value must be > 0, got {min_value}"
            )
        if not 0 < relative_error < 1:
            raise ConfigError(
                "quantile relative_error must be in (0, 1), got "
                f"{relative_error}"
            )
        self.name = name
        self.labels = labels
        self.min_value = float(min_value)
        self.relative_error = float(relative_error)
        self.growth = 1.0 + 2.0 * float(relative_error)
        self._inv_log_g = 1.0 / math.log(self.growth)
        #: sparse bucket index -> observation count
        self.counts: Dict[int, int] = {}
        self.total = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording ---------------------------------------------------------

    def _representative(self, index: int) -> float:
        if index == 0:
            return self.min_value
        # Geometric midpoint of (min * g**(i-1), min * g**i].
        return self.min_value * self.growth ** (index - 0.5)

    def observe(self, value: float) -> None:
        min_value = self.min_value
        if value <= min_value:
            idx = 0
        else:
            idx = 1 + int(math.log(value / min_value) * self._inv_log_g)
        self.counts[idx] = self.counts.get(idx, 0) + 1
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    # -- queries -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def value_at_quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], within relative_error."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = max(1, int(math.ceil(q * self.total)))
        cumulative = 0
        for idx in sorted(self.counts):
            cumulative += self.counts[idx]
            if cumulative >= rank:
                value = self._representative(idx)
                # The true extremes are tracked exactly; clamp so p0/p100
                # never report outside the observed range.
                return min(max(value, self.min), self.max)
        return self.max  # pragma: no cover - cumulative always reaches total

    def percentiles(self) -> Dict[str, float]:
        return {
            label: self.value_at_quantile(q)
            for label, q in STANDARD_QUANTILES
        }

    def count_below(self, threshold: float) -> int:
        """Observations at or below ``threshold`` (within relative_error).

        The SLO engine's attainment math: a bucket counts as "good" when
        its representative is within the threshold.
        """
        good = 0
        min_value, growth = self.min_value, self.growth
        for idx, count in self.counts.items():
            # _representative, inline: this runs once per bucket per tick.
            if idx == 0:
                representative = min_value
            else:
                representative = min_value * growth ** (idx - 0.5)
            if representative <= threshold:
                good += count
        return good

    # -- export / merge ----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": "quantile",
            "count": self.total,
            "sum": self.sum,
            "min": self.min if self.total else 0.0,
            "max": self.max if self.total else 0.0,
            "quantiles": self.percentiles(),
        }

    def merge_from(self, other: "QuantileHistogram") -> None:
        if (self.min_value, self.relative_error) != (
            other.min_value,
            other.relative_error,
        ):
            raise ConfigError(
                f"quantile histogram {self.name!r} config differs: "
                f"(min_value={self.min_value}, "
                f"relative_error={self.relative_error}) vs "
                f"(min_value={other.min_value}, "
                f"relative_error={other.relative_error})"
            )
        for idx, count in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + count
        self.total += other.total
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


def collect_percentiles(registry, metric: str = "op_latency_ns") -> list:
    """Flatten every non-empty quantile series named ``metric`` in a
    :class:`~repro.telemetry.registry.MetricsRegistry` into rows keyed
    by their ``op``/``tier`` labels — the latency-table feed for replay
    reports and the ``repro slo`` CLI. (Duck-typed on ``.metrics()`` to
    keep this module import-free of the registry.)"""
    rows = []
    for m in registry.metrics():
        if not isinstance(m, QuantileHistogram):
            continue
        if m.name != metric or not m.total:
            continue
        labels = dict(m.labels)
        row = {
            "op": labels.get("op", "?"),
            "tier": labels.get("tier", "?"),
            "count": m.total,
            "mean": m.mean,
        }
        row.update(m.percentiles())
        rows.append(row)
    rows.sort(key=lambda r: (r["op"], r["tier"]))
    return rows

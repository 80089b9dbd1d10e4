"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

The registry is the single home for every counter the stack maintains.
Components either bind their ledger-style statistics into a registry
through :class:`StatsFacade` (see :mod:`repro.telemetry.stats`) — the
dataclass-shaped views ``SwapStats``/``DriverStats``/… are thin facades
over registry counters — or register a *collector* callback that
contributes point-in-time values at snapshot (the DRAM refresh/command
counters use this, so their hot loops keep plain integer arithmetic).

Metrics are keyed by ``(name, labels)`` so one registry can hold the
same series for several components (e.g. per-DIMM driver counters with a
``dimm=<i>`` label). Snapshots export as a plain dict, JSON, or CSV.

There is one process-wide default registry (:func:`default_registry`)
for ad-hoc counters; systems that need isolation (every backend, every
:class:`~repro.telemetry.session.TelemetrySession`) create their own.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.telemetry.quantiles import QuantileHistogram

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A cumulative value.

    Monotonic by convention; :meth:`set` exists so the dataclass facades
    (which historically allowed direct assignment, including the odd
    decrement in the zswap re-store path) keep their exact semantics.
    """

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value (occupancy, depth, ratio)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``buckets`` are the inclusive upper bounds of each bin; observations
    above the last bound land in the implicit overflow bin. The bounds
    are fixed at creation (no dynamic rebinning), which keeps
    :meth:`observe` one bisect + one increment.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "total", "sum")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Iterable[float],
        labels: LabelKey = (),
    ) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ConfigError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.buckets: List[float] = bounds
        #: counts[i] observes <= buckets[i]; counts[-1] is overflow.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        # bisect_left keeps the bounds inclusive: observe(b) lands in
        # the ``le=b`` bin, matching the CSV column naming.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += 1
        self.sum += value

    def snapshot(self) -> Dict[str, object]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Holds metrics keyed by (name, labels) plus collector callbacks."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}
        #: prefix -> zero-arg callable returning {name: value}.
        self._collectors: List[Tuple[str, Callable[[], Dict[str, float]]]] = []

    # -- creation / lookup -------------------------------------------------

    def _get_or_create(self, cls, name: str, labels: Dict, **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels=key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ConfigError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Optional[Iterable[float]] = None, **labels
    ) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            if buckets is None:
                raise ConfigError(
                    f"histogram {name!r} needs bucket bounds on first use"
                )
            metric = Histogram(name, buckets, labels=key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise ConfigError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def quantile(
        self,
        name: str,
        min_value: float = 1.0,
        relative_error: float = 0.01,
        **labels,
    ) -> QuantileHistogram:
        """Log-bucketed quantile histogram (see
        :mod:`repro.telemetry.quantiles`). As with :meth:`histogram`,
        the config is fixed by the first caller; later lookups ignore
        the ``min_value``/``relative_error`` arguments."""
        return self._get_or_create(
            QuantileHistogram,
            name,
            labels,
            min_value=min_value,
            relative_error=relative_error,
        )

    def register_collector(
        self, prefix: str, collect: Callable[[], Dict[str, float]]
    ) -> None:
        """Attach a callback whose dict is folded into every snapshot
        under ``prefix.<key>`` — the re-homing path for counters whose
        hot loops must stay plain attribute arithmetic."""
        self._collectors.append((prefix, collect))

    def metrics(self) -> List[object]:
        return list(self._metrics.values())

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Flat dict: ``name{label=value,...}`` -> value/histogram dict."""
        out: Dict[str, object] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            key = name
            if labels:
                key += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            out[key] = metric.snapshot()
        for prefix, collect in self._collectors:
            for key, value in collect().items():
                out[f"{prefix}.{key}"] = value
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_csv(self) -> str:
        """``metric,value`` rows; histograms flatten to bucket columns."""
        lines = ["metric,value"]
        for key, value in self.snapshot().items():
            if isinstance(value, dict) and value.get("kind") == "quantile":
                for label, q in value["quantiles"].items():
                    lines.append(f"{key}|{label},{q}")
                lines.append(f"{key}|count,{value['count']}")
                lines.append(f"{key}|sum,{value['sum']}")
            elif isinstance(value, dict):  # fixed-bucket histogram
                for bound, count in zip(
                    value["buckets"] + ["+inf"], value["counts"]
                ):
                    lines.append(f"{key}|le={bound},{count}")
                lines.append(f"{key}|sum,{value['sum']}")
            else:
                lines.append(f"{key},{value}")
        return "\n".join(lines) + "\n"

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s counters/histograms into this registry
        (gauges take the other's latest value)."""
        for (name, labels), metric in other._metrics.items():
            if isinstance(metric, Counter):
                mine = self._get_or_create(Counter, name, dict(labels))
                mine.value += metric.value
            elif isinstance(metric, Gauge):
                self._get_or_create(Gauge, name, dict(labels)).set(
                    metric.value
                )
            elif isinstance(metric, QuantileHistogram):
                mine = self.quantile(
                    name,
                    min_value=metric.min_value,
                    relative_error=metric.relative_error,
                    **dict(labels),
                )
                mine.merge_from(metric)
            else:
                mine = self.histogram(
                    name, buckets=metric.buckets, **dict(labels)
                )
                if mine.buckets != metric.buckets:
                    raise ConfigError(
                        f"histogram {name!r} bucket bounds differ"
                    )
                for i, count in enumerate(metric.counts):
                    mine.counts[i] += count
                mine.total += metric.total
                mine.sum += metric.sum
        return self


#: Process-wide default registry for ad-hoc counters.
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    return _DEFAULT

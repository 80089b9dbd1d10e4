"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

The registry is the single home for every series the stack exports.
Statistics on the store/load hot paths stay plain attributes of their
owner (see :mod:`repro.telemetry.stats`); the registry holds a read-only
:class:`FieldCounter` per field (:meth:`MetricsRegistry.bind_field`)
that reads the attribute at snapshot time. Per-request fleet counters
are bound once per label set through a :class:`CounterFamily`. Reports
read counts back through :meth:`MetricsRegistry.value` and
:meth:`MetricsRegistry.totals`, which create no series.

Metrics are keyed by ``(name, labels)`` so one registry can hold the
same series for several components (e.g. per-DIMM driver counters with a
``dimm=<i>`` label). Snapshots export as a plain dict. Every backend
and every :class:`~repro.telemetry.session.TelemetrySession` creates its
own registry.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.telemetry.quantiles import QuantileHistogram

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A cumulative value, monotonic by convention."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class FieldCounter(Counter):
    """A read-only counter whose value is ``getattr(owner, attr)``."""

    __slots__ = ("owner", "attr")

    def __init__(self, name: str, labels: LabelKey, owner, attr: str):
        self.name = name
        self.labels = labels
        self.owner = owner
        self.attr = attr

    @property
    def value(self) -> float:
        return getattr(self.owner, self.attr)

    def inc(self, amount: float = 1) -> None:
        raise ConfigError(
            f"metric {self.name!r} is a read-only view of "
            f"{type(self.owner).__name__}.{self.attr}"
        )


class CounterFamily(dict):
    """Label values -> the :class:`Counter` ``name{label_names=values}``,
    looked up in the registry on first use only (``shed["rate", "t0"]``;
    ``requests["t0"]`` for one label). An unused label set adds no
    zero-valued series to the export."""

    def __init__(self, registry: "MetricsRegistry", name: str, *label_names):
        super().__init__()
        self._bind = lambda values: registry.counter(
            name, **dict(zip(label_names, values))
        )

    def __missing__(self, values) -> Counter:
        counter = self[values] = self._bind(
            values if isinstance(values, tuple) else (values,)
        )
        return counter


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
    """Holds metrics keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}

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

    def bind_field(
        self, name: str, owner: object, attr: str, **labels
    ) -> FieldCounter:
        """Export ``owner.<attr>`` as the counter ``name{labels}``; a
        series that already exists is a :class:`ConfigError`, never
        silently shared."""
        key = (name, _label_key(labels))
        if key in self._metrics:
            raise ConfigError(f"metric {name!r} {labels} already registered")
        view = FieldCounter(name, key[1], owner, attr)
        self._metrics[key] = view
        return view

    def metrics(self) -> List[object]:
        return list(self._metrics.values())

    # -- reads (never create a series) --------------------------------------

    def value(self, name: str, **labels) -> float:
        """Counter or gauge ``name{labels}``; 0 for a series that never
        fired, which the read does not create."""
        metric = self._metrics.get((name, _label_key(labels)))
        return 0 if metric is None else metric.value

    def totals(self, name: str, by: str) -> Dict[str, float]:
        """Counter ``name`` summed per value of its ``by`` label, over
        every series that exists, ordered by label value."""
        out: Dict[str, float] = {}
        for (metric_name, labels), metric in self._metrics.items():
            if metric_name == name:
                for key, value in labels:
                    if key == by:
                        out[value] = out.get(value, 0) + metric.value
        return dict(sorted(out.items()))

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Flat dict: ``name{label=value,...}`` -> value/histogram dict."""
        out: Dict[str, object] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            key = name
            if labels:
                key += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            out[key] = metric.snapshot()
        return out

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s counters/histograms into this registry
        (gauges take the other's latest value)."""
        for (name, labels), metric in other._metrics.items():
            if isinstance(metric, Counter):
                self._get_or_create(Counter, name, dict(labels)).inc(
                    metric.value
                )
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

"""Declarative SLOs evaluated over simulated-time windows.

An SLO here is the hyperscale framing from the CXL-adoption and TMTS
papers: a latency objective per operation class ("99% of pipeline
stores complete within 50 us of simulated time") or an availability
objective over the failure counters ("99.9% of operations neither
error nor lose data"), each evaluated per fixed window of *simulated*
time so a replayed trace produces the same burn report on every run.

The engine reads — never writes — a :class:`MetricsRegistry`: latency
attainment comes from the per-op-class quantile histograms
(:meth:`QuantileHistogram.count_below` on the cumulative counts, diffed
per window), availability from counter deltas. For each closed window it
records attainment and the **burn rate**, the standard error-budget
measure::

    burn = (1 - attainment) / (1 - target)

burn < 1 means the window spent less than its error budget; burn = 10
on a 99.9% objective means failures arrived 10x faster than the budget
allows. The summary reports overall attainment plus the worst window
burn per objective, which is what a paging policy would key on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.telemetry.quantiles import QuantileHistogram
from repro.telemetry.registry import Counter, MetricsRegistry

SLO_SCHEMA_VERSION = 1

#: Default metric the latency objectives read, as recorded by the
#: pipeline/backends: ``op_latency_ns{op=...,tier=...}``.
LATENCY_METRIC = "op_latency_ns"


@dataclass(frozen=True)
class LatencyObjective:
    """``target`` fraction of ``op`` on ``tier`` within ``threshold_ns``."""

    name: str
    op: str
    tier: str
    threshold_ns: float
    target: float
    metric: str = LATENCY_METRIC

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ConfigError(
                f"SLO target must be in (0, 1), got {self.target}"
            )
        if self.threshold_ns <= 0:
            raise ConfigError(
                f"SLO threshold_ns must be > 0, got {self.threshold_ns}"
            )


@dataclass(frozen=True)
class AvailabilityObjective:
    """``target`` fraction of total ops not counted as bad.

    ``bad_metrics``/``total_metrics`` name registry counters; all label
    variants of each name are summed, so ``tier_pipeline.tier_errors``
    covers every tier at once.
    """

    name: str
    target: float
    bad_metrics: Tuple[str, ...]
    total_metrics: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ConfigError(
                f"SLO target must be in (0, 1), got {self.target}"
            )
        if not self.bad_metrics or not self.total_metrics:
            raise ConfigError(
                "availability objective needs bad_metrics and total_metrics"
            )


@dataclass
class WindowResult:
    index: int
    start_ns: float
    end_ns: float
    objective: str
    total: int
    bad: int

    @property
    def attainment(self) -> float:
        return 1.0 - self.bad / self.total if self.total else 1.0

    def burn_rate(self, target: float) -> float:
        if self.total == 0:
            return 0.0
        return (self.bad / self.total) / (1.0 - target)

    def as_dict(self, target: float) -> Dict[str, object]:
        return {
            "window": self.index,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "objective": self.objective,
            "total": self.total,
            "bad": self.bad,
            "attainment": self.attainment,
            "burn_rate": self.burn_rate(target),
            "met": self.attainment >= target,
        }


@dataclass
class _Cumulative:
    """Last-seen cumulative (total, bad) per objective, so each window
    closes on deltas against monotone counters."""

    total: int = 0
    bad: int = 0


class SloEngine:
    """Evaluates objectives against a registry at window boundaries.

    Drive it with :meth:`tick` as simulated time advances (the replayer
    ticks per trace event); call :meth:`finalize` to close the trailing
    partial window.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        objectives: List[object],
        window_ns: float,
        start_ns: float = 0.0,
    ) -> None:
        if not (window_ns > 0 and math.isfinite(window_ns)):
            raise ConfigError(
                f"window_ns must be finite and > 0, got {window_ns}"
            )
        if not objectives:
            raise ConfigError("SLO engine needs at least one objective")
        names = [o.name for o in objectives]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate SLO objective names: {names}")
        self.registry = registry
        self.objectives = list(objectives)
        self.window_ns = float(window_ns)
        self._window_start = float(start_ns)
        self._window_index = 0
        self._cumulative: Dict[str, _Cumulative] = {
            o.name: _Cumulative() for o in self.objectives
        }
        self.windows: List[WindowResult] = []
        self._finalized = False

    # -- cumulative reads --------------------------------------------------

    def _latency_counts(self, obj: LatencyObjective) -> Tuple[int, int]:
        total = 0
        good = 0
        for metric in self.registry.metrics():
            if not isinstance(metric, QuantileHistogram):
                continue
            if metric.name != obj.metric:
                continue
            labels = dict(metric.labels)
            if labels.get("op") != obj.op or labels.get("tier") != obj.tier:
                continue
            total += metric.total
            good += metric.count_below(obj.threshold_ns)
        return total, total - good

    def _counter_sum(self, names: Tuple[str, ...]) -> int:
        value = 0.0
        wanted = set(names)
        for metric in self.registry.metrics():
            if isinstance(metric, Counter) and metric.name in wanted:
                value += metric.value
        return int(value)

    def _availability_counts(
        self, obj: AvailabilityObjective
    ) -> Tuple[int, int]:
        total = self._counter_sum(obj.total_metrics)
        bad = self._counter_sum(obj.bad_metrics)
        return total, min(bad, total)

    def _read(self, obj: object) -> Tuple[int, int]:
        if isinstance(obj, LatencyObjective):
            return self._latency_counts(obj)
        if isinstance(obj, AvailabilityObjective):
            return self._availability_counts(obj)
        raise ConfigError(f"unknown objective type: {type(obj).__name__}")

    # -- windowing ---------------------------------------------------------

    def _close_window(self, end_ns: float) -> None:
        for obj in self.objectives:
            total, bad = self._read(obj)
            seen = self._cumulative[obj.name]
            self.windows.append(
                WindowResult(
                    index=self._window_index,
                    start_ns=self._window_start,
                    end_ns=end_ns,
                    objective=obj.name,
                    total=total - seen.total,
                    bad=max(0, bad - seen.bad),
                )
            )
            seen.total, seen.bad = total, bad
        self._window_index += 1
        self._window_start = end_ns

    def tick(self, now_ns: float) -> None:
        """Close every whole window the clock has passed."""
        while now_ns >= self._window_start + self.window_ns:
            self._close_window(self._window_start + self.window_ns)

    def finalize(self, now_ns: Optional[float] = None) -> None:
        """Close the trailing partial window (idempotent)."""
        if self._finalized:
            return
        if now_ns is not None:
            self.tick(now_ns)
        end = now_ns if now_ns is not None else self._window_start
        # Close a final partial window if any ops landed after the last
        # boundary — otherwise the tail of the run would vanish.
        pending = any(
            self._read(obj) != (seen.total, seen.bad)
            for obj, seen in (
                (o, self._cumulative[o.name]) for o in self.objectives
            )
        )
        if pending:
            self._close_window(max(end, self._window_start))
        self._finalized = True

    # -- reporting ---------------------------------------------------------

    def _target_for(self, name: str) -> float:
        for obj in self.objectives:
            if obj.name == name:
                return obj.target
        raise ConfigError(f"unknown objective {name!r}")

    def summary(self) -> Dict[str, Dict[str, object]]:
        out: Dict[str, Dict[str, object]] = {}
        for obj in self.objectives:
            windows = [w for w in self.windows if w.objective == obj.name]
            total = sum(w.total for w in windows)
            bad = sum(w.bad for w in windows)
            attainment = 1.0 - bad / total if total else 1.0
            burns = [w.burn_rate(obj.target) for w in windows]
            out[obj.name] = {
                "target": obj.target,
                "total": total,
                "bad": bad,
                "attainment": attainment,
                "met": attainment >= obj.target,
                "worst_burn": max(burns) if burns else 0.0,
                "windows": len(windows),
                "windows_violated": sum(
                    1 for w in windows if w.attainment < obj.target
                ),
            }
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SLO_SCHEMA_VERSION,
            "window_ns": self.window_ns,
            "objectives": [
                {
                    "name": o.name,
                    "kind": (
                        "latency"
                        if isinstance(o, LatencyObjective)
                        else "availability"
                    ),
                    "target": o.target,
                    **(
                        {
                            "op": o.op,
                            "tier": o.tier,
                            "threshold_ns": o.threshold_ns,
                        }
                        if isinstance(o, LatencyObjective)
                        else {
                            "bad_metrics": list(o.bad_metrics),
                            "total_metrics": list(o.total_metrics),
                        }
                    ),
                }
                for o in self.objectives
            ],
            "windows": [
                w.as_dict(self._target_for(w.objective))
                for w in self.windows
            ],
            "summary": self.summary(),
        }

"""Plain-text table rendering for bench/example output."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union


def _cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_stats(stats: Union[object, Sequence], title: str = "") -> str:
    """Render one stats object — or merge a sequence of same-typed ones —
    as a two-column table.

    This is the single stats-aggregation path for report output: callers
    hand over :class:`~repro.telemetry.stats.Stats` instances
    (``SwapStats``, ``DriverStats``, ...) and their ``merged`` /
    ``as_dict`` do the combining, instead of each report re-summing
    fields by hand.
    """
    if isinstance(stats, (list, tuple)):
        if not stats:
            raise ValueError("format_stats needs at least one stats object")
        stats = type(stats[0]).merged(stats)
    return format_table(
        ["counter", "value"],
        [[name, value] for name, value in stats.as_dict().items()],
        title=title,
    )


def format_latency_table(rows: Sequence[dict], title: str = "") -> str:
    """Render op-class x tier latency percentiles (microseconds).

    ``rows`` are :func:`repro.telemetry.quantiles.collect_percentiles`
    dicts: ``op``/``tier``/``count``/``mean`` plus the standard
    percentile keys in nanoseconds; rendered in us so the pipeline rows
    and device rows share a readable scale.
    """
    if not rows:
        return "(no latency observations recorded)"
    quantile_keys = [
        key
        for key in rows[0]
        if key not in ("op", "tier", "count", "mean")
    ]
    headers = ["op", "tier", "count", "mean_us"] + [
        f"{key}_us" for key in quantile_keys
    ]
    table_rows = [
        [row["op"], row["tier"], row["count"], row["mean"] / 1e3]
        + [row[key] / 1e3 for key in quantile_keys]
        for row in rows
    ]
    return format_table(headers, table_rows, title=title)


def format_tier_stats(pipeline, title: str = "") -> str:
    """Render a :class:`~repro.tiering.pipeline.TierPipeline` as one
    column per tier (plus a merged total), one row per swap counter and
    occupancy figure — the per-tier companion of :func:`format_stats`."""
    names = list(pipeline.tier_names)
    tiers = list(pipeline.tiers)
    per_tier = [tier.stats.as_dict() for tier in tiers]
    rows: List[List] = []
    for field in per_tier[0]:
        values = [stats[field] for stats in per_tier]
        if not any(values):
            continue
        rows.append([field] + values + [sum(values)])
    rows.append(
        ["stored_pages"]
        + [tier.stored_pages() for tier in tiers]
        + [pipeline.stored_pages()]
    )
    rows.append(
        ["used_bytes"]
        + [tier.used_bytes() for tier in tiers]
        + [pipeline.used_bytes()]
    )
    rows.append(
        ["capacity_bytes"]
        + [tier.capacity_bytes for tier in tiers]
        + [pipeline.capacity_bytes]
    )
    rows.append(
        ["ledger_bytes"]
        + [tier.traffic.total_bytes for tier in tiers]
        + [pipeline.traffic.total_bytes]
    )
    return format_table(["counter"] + names + ["total"], rows, title=title)

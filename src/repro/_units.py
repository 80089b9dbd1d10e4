"""Unit helpers shared across the XFM reproduction.

Everything in this codebase carries its units in the name: ``_b`` (bytes),
``_kib``/``_mib``/``_gib`` (binary sizes), ``_gb`` (decimal gigabytes, used
only by the cost model, mirroring the paper's marketing-unit equations),
``_ns``/``_us``/``_ms``/``_s`` (time), ``_bps``/``_gbps`` (bandwidth),
``_j``/``_kwh`` (energy). These constants exist so that the models read
like the paper's text; :func:`pretty_bytes` renders sizes for the
examples.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB
TB = 1000 * GB

NS_PER_US = 1000.0
NS_PER_MS = 1_000_000.0
NS_PER_S = 1_000_000_000.0

SECONDS_PER_MINUTE = 60.0
MINUTES_PER_HOUR = 60.0
HOURS_PER_DAY = 24.0
DAYS_PER_YEAR = 365.0
MINUTES_PER_YEAR = SECONDS_PER_MINUTE * MINUTES_PER_HOUR * HOURS_PER_DAY * DAYS_PER_YEAR / SECONDS_PER_MINUTE
SECONDS_PER_YEAR = SECONDS_PER_MINUTE * MINUTES_PER_HOUR * HOURS_PER_DAY * DAYS_PER_YEAR

JOULES_PER_KWH = 3_600_000.0


def pretty_bytes(n: float) -> str:
    """Human-readable binary size (e.g. ``'4.0 KiB'``, ``'512.0 GiB'``)."""
    magnitude = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(magnitude) < 1024.0 or unit == "TiB":
            return f"{magnitude:.1f} {unit}"
        magnitude /= 1024.0
    raise AssertionError("unreachable")


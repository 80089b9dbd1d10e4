"""Plot-ready export of figure data.

The benches render ASCII tables; downstream users replotting the figures
want raw series. Each exported experiment of
:mod:`repro.analysis.experiments` writes its data as CSV rows (through
:func:`rows_to_csv`) or a JSON document, with stable column names.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from repro.errors import ConfigError


def rows_to_csv(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render rows as CSV text."""
    if any(len(row) != len(headers) for row in rows):
        raise ConfigError("row width does not match headers")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()

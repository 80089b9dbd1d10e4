"""Table 3 — power consumption breakdown of the XFM prototype.

Paper values: 7.024 W total = 5.718 W dynamic (81%) + 1.306 W static (19%).
"""

import pytest


def test_table3_power(experiment):
    rows = experiment("table3")

    values = {row[0]: float(row[1]) for row in rows}
    assert values["Dynamic"] == pytest.approx(5.718)
    assert values["Static"] == pytest.approx(1.306)
    assert values["Total"] == pytest.approx(7.024)

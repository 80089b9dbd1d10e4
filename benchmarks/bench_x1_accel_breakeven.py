"""X1 (§3.2) — integrated on-chip accelerator break-even promotion rate.

Paper claims: a QAT-class accelerator (9.8 / 13.3 GBps measured) can absorb
all compression of a 512 GB SFM even at 100% promotion, and becomes
beneficial above a ~6% average promotion rate (our equations with a 1-core
management cost give ~4%; see EXPERIMENTS.md).
"""

from repro.analysis.report import format_table
from repro.costmodel.accel import (
    IntegratedAccelerator,
    cores_needed_for_sfm,
    integrated_accel_breakeven_promotion,
)
from repro.costmodel.params import CostParams


def test_x1_accel_breakeven(once, emit):
    params = CostParams()
    accel = IntegratedAccelerator()
    breakeven = once(integrated_accel_breakeven_promotion, params, accel)
    rows = [
        [
            f"{int(rate * 100)}%",
            round(cores_needed_for_sfm(params, rate), 2),
            "yes" if cores_needed_for_sfm(params, rate) > accel.management_cores else "no",
            "yes" if accel.can_sustain(params, rate) else "no",
        ]
        for rate in (0.01, 0.02, 0.04, 0.06, 0.10, 0.20, 0.50, 1.00)
    ]
    table = format_table(
        ["promotion", "SW cores needed", "accel pays off", "QAT sustains"],
        rows,
        title="X1 — integrated accelerator break-even (512 GB SFM)",
    )
    table += (
        f"\nbreak-even promotion rate: {100 * breakeven:.1f}%"
        f" (paper: ~6%)"
    )
    emit("x1_accel_breakeven", table)

    assert 0.02 <= breakeven <= 0.08
    assert accel.can_sustain(params, 1.0)

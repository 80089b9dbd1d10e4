"""Fig. 3 — capital cost and emissions of SFM vs DFM, normalized to DFM.

Paper claims: SFM at 100% promotion takes ~8.5 years to break even with a
DRAM-based DFM in cost; at 20% promotion SFM can beat even PMem-based DFM;
DRAM-DFM's embodied emissions mean the (accelerated) SFM never breaks even
within a 5-year server lifetime.
"""

import pytest


def test_fig3_cost_and_emissions(experiment):
    data = experiment("fig3")

    assert data["cost_breakeven_100"] == pytest.approx(8.5, abs=0.3)
    be_20_pmem = data["cost_breakeven_20_pmem"]
    assert be_20_pmem is None or be_20_pmem > 10.0
    assert data["emission_breakeven_xfm_100"] is None
    be_cpu = data["emission_breakeven_cpu_20"]
    assert be_cpu is not None and be_cpu > 1.0

"""X4 (§4.3) — refresh-window budget arithmetic.

Paper claims: with tRFC ~300 ns and 32 ms retention, banks are locked
~2.46 ms per retention interval (~8% of cycles); a 512 GB SFM on a
4-channel/2-DPC server needs ~426 MBps of DRAM-NMA bandwidth; offloads
are delayed by at most a tREFI (~3.9 us) batching interval.
"""

import pytest


def test_x4_refresh_budget(experiment):
    summary = experiment("budget")

    assert summary["locked_ms_per_retention"] == pytest.approx(2.46, abs=0.01)
    assert summary["locked_fraction"] == pytest.approx(0.0768, abs=0.001)
    assert summary["per_dimm_nma_mbps"] == pytest.approx(426.7, abs=1.0)

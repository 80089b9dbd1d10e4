"""Fig. 11 — interference between SPEC and SFM operations.

Paper claims (§8): under Baseline-CPU the SFM throughput degrades 5–20%
and SPEC sees up to ~8% slowdown; Host-Lockout-NMA spares the SFM but
costs SPEC up to ~15%; XFM eliminates the interference on both sides,
yielding a 5–27% combined-performance improvement depending on the mix.
"""

from repro.interference.corun import SfmMode


def test_fig11_interference(experiment):
    data = experiment("fig11")

    default = data["results"]["mix-default"]
    # Shape assertions mirroring the paper's reading of the figure.
    assert default[SfmMode.XFM].spec_max_degradation_pct < 0.01
    assert default[SfmMode.XFM].sfm_degradation_pct < 0.01
    assert 0 < default[SfmMode.BASELINE_CPU].spec_max_degradation_pct <= 10
    assert 3 <= default[SfmMode.BASELINE_CPU].sfm_degradation_pct <= 22
    assert (
        default[SfmMode.HOST_LOCKOUT_NMA].spec_max_degradation_pct
        > default[SfmMode.BASELINE_CPU].spec_max_degradation_pct
    )
    pct_values = [pct for _, _, pct in data["improvements"]]
    assert max(pct_values) >= 15.0
    assert min(pct_values) >= 2.0
    assert max(pct_values) <= 30.0

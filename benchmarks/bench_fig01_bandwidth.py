"""Fig. 1 — SFM memory-bandwidth utilization vs rank count.

Paper claim: CPU-centric SFM's DDR traffic grows with capacity (rank
count) toward the channel limit, while XFM's per-rank refresh side channel
absorbs the same traffic with rank-level parallelism; XFM eliminates SFM
channel bandwidth for capacities up to ~1 TB.
"""


def test_fig1_bandwidth(experiment):
    data = experiment("fig1")
    points = data["points"]

    # Shape: CPU traffic scales with ranks; XFM per-rank demand flat & fits.
    assert points[-1].cpu_sfm_channel_gbps > 8 * points[0].cpu_sfm_channel_gbps
    assert all(p.xfm_utilization < 0.5 for p in points)
    assert data["max_gb"] >= 1000.0

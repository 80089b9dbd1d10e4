"""Fig. 12 — CPU fallback rate vs SPM size and accesses-per-REF.

Paper claims (§8): with 3 NMA accesses per REF, an 8 MB SPM eliminates all
CPU fallbacks regardless of the promotion rate; the random-access rate
scales with the promotion rate but conditional accesses dominate; the
conditional accesses cut NMA access energy by ~10%.
"""


def test_fig12_fallbacks(experiment):
    grid = experiment("fig12")

    by_key = {
        (promo, r.config.spm_bytes >> 20, r.config.accesses_per_ref): r
        for promo, reports in grid.items()
        for r in reports
    }
    # 3 accesses/REF + 8 MB SPM -> zero fallbacks at both promotion rates.
    assert by_key[(0.5, 8, 3)].fallback_fraction == 0.0
    assert by_key[(1.0, 8, 3)].fallback_fraction == 0.0
    # 1 access/REF cannot keep up at 100% promotion, SPM notwithstanding.
    assert by_key[(1.0, 8, 1)].fallback_fraction > 0.25
    # Fallbacks fall with SPM size at a fixed budget.
    assert (
        by_key[(1.0, 8, 2)].fallback_fraction
        <= by_key[(1.0, 1, 2)].fallback_fraction
    )
    # Conditional accesses dominate; randoms scale with promotion rate.
    for report in grid[1.0]:
        assert report.random_fraction < 0.5
    rand_50 = by_key[(0.5, 8, 3)].random_accesses / by_key[(0.5, 8, 3)].sim_time_s
    rand_100 = by_key[(1.0, 8, 3)].random_accesses / by_key[(1.0, 8, 3)].sim_time_s
    assert rand_100 > 1.5 * rand_50
    # Conditional accesses save ~10% NMA access energy (paper: 10.1%).
    saving = by_key[(1.0, 8, 3)].conditional_energy_saving
    assert 0.02 < saving < 0.12

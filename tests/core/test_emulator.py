"""XFM emulator tests: the Fig. 12 behaviours."""

import numpy as np
import pytest

from repro.core.emulator import (
    EmulatorConfig,
    XfmEmulator,
    _arrival_counts,
    fallback_sweep,
)
from repro.errors import ConfigError
from repro.sim.context import run_context


def _run(**overrides):
    defaults = dict(sim_time_s=0.04, seed=7)
    defaults.update(overrides)
    return XfmEmulator(EmulatorConfig(**defaults)).run()


class TestConfig:
    def test_ops_per_second_split(self):
        config = EmulatorConfig(
            sfm_capacity_bytes=512e9,
            promotion_rate=1.0,
            decompress_offload_fraction=0.5,
            num_ranks=8,
        )
        compress, decompress = config.ops_per_second_per_rank()
        assert compress == pytest.approx(512e9 / 60 / 4096 / 8)
        assert decompress == pytest.approx(compress / 2)

    def test_blob_size(self):
        assert EmulatorConfig(compression_ratio=4.0).blob_bytes == 1024

    def test_promotion_rate_validated(self):
        with pytest.raises(ConfigError):
            XfmEmulator(EmulatorConfig(promotion_rate=0.0))

    def test_expanding_pages_rejected(self):
        """A blob above the 4 KiB writeback group was never grouped: it
        sat in the flex buffer holding its SPM page for the whole run
        (ratio 0.9 completed 507 of 1538 ops and reported no fallback)."""
        with pytest.raises(ConfigError, match="compression_ratio"):
            XfmEmulator(EmulatorConfig(compression_ratio=0.9))
        report = XfmEmulator(
            EmulatorConfig(
                compression_ratio=1.0, sim_time_s=0.02, promotion_rate=0.2
            )
        ).run()
        assert report.completed_ops >= report.total_ops - 10
        assert report.spm_peak_bytes < 64 * 4096


class TestFig12Behaviours:
    def test_three_accesses_eliminate_fallbacks(self):
        """§8: 3 accesses/REF + 8 MB SPM -> zero fallbacks at 50% and 100%."""
        for promo in (0.5, 1.0):
            report = _run(
                promotion_rate=promo,
                accesses_per_ref=3,
                spm_bytes=8 << 20,
            )
            assert report.fallback_fraction == 0.0

    def test_one_access_insufficient_at_100pct(self):
        report = _run(promotion_rate=1.0, accesses_per_ref=1, spm_bytes=8 << 20)
        assert report.fallback_fraction > 0.3

    def test_fallbacks_decrease_with_spm(self):
        small = _run(promotion_rate=1.0, accesses_per_ref=2, spm_bytes=1 << 20)
        large = _run(promotion_rate=1.0, accesses_per_ref=2, spm_bytes=8 << 20)
        assert large.fallback_fraction < small.fallback_fraction

    def test_fallbacks_decrease_with_budget(self):
        one = _run(promotion_rate=1.0, accesses_per_ref=1)
        three = _run(promotion_rate=1.0, accesses_per_ref=3)
        assert three.fallback_fraction < one.fallback_fraction

    def test_majority_conditional(self):
        report = _run(promotion_rate=1.0, accesses_per_ref=3)
        assert report.random_fraction < 0.5
        assert report.conditional_accesses > report.random_accesses

    def test_random_rate_scales_with_promotion(self):
        low = _run(promotion_rate=0.5, accesses_per_ref=3)
        high = _run(promotion_rate=1.0, accesses_per_ref=3)
        per_s_low = low.random_accesses / low.sim_time_s
        per_s_high = high.random_accesses / high.sim_time_s
        assert per_s_high > per_s_low * 1.5

    def test_conditional_energy_saving_positive(self):
        report = _run(promotion_rate=1.0, accesses_per_ref=3)
        assert 0.0 < report.conditional_energy_saving < 0.15
        assert report.nma_energy_j >= report.all_conditional_energy_j


class TestAccounting:
    def test_determinism(self):
        a = _run(seed=42)
        b = _run(seed=42)
        assert a.fallback_ops == b.fallback_ops
        assert a.conditional_accesses == b.conditional_accesses

    def test_rerun_on_one_emulator_repeats_the_report(self):
        """A second run does not inherit the requests the first left
        queued (validation would reject the inherited accounting)."""
        emulator = XfmEmulator(EmulatorConfig(sim_time_s=0.02, seed=7))
        with run_context(validation=True):
            first = emulator.run()
            assert emulator.xfm_device.scheduler.pending_count
            assert emulator.run() == first

    def test_bandwidth_positive(self):
        report = _run()
        assert report.nma_bandwidth_bps > 0

    def test_spm_peak_bounded_by_capacity(self):
        report = _run(spm_bytes=2 << 20)
        assert report.spm_peak_bytes <= 2 << 20

    def test_completed_plus_fallback_bounded(self):
        report = _run()
        assert report.completed_ops + report.fallback_ops <= report.total_ops

    def test_mean_latency_reported(self):
        report = _run(accesses_per_ref=3)
        assert report.mean_latency_ms > 0

    def test_latency_percentiles_ordered(self):
        report = _run(accesses_per_ref=3)
        percentiles = report.latency_percentiles_ms
        assert set(percentiles) == {50, 95, 99}
        assert percentiles[50] <= percentiles[95] <= percentiles[99]

    def test_fig10_minimum_latency(self):
        """Fig. 10: an asynchronous XFM operation spans at least two
        refresh intervals (read in one window, writeback in a later one),
        so the median completion latency is >= ~2 x tREFI."""
        report = _run(accesses_per_ref=3, promotion_rate=0.5)
        trefi_ms = report.config.resolved_timings().trefi_ns / 1e6
        assert report.latency_percentiles_ms[50] >= 1.9 * trefi_ms


class TestArrivalCounts:
    """Arrival arrays become bytes when every count fits one, a list
    otherwise; the report must not depend on which."""

    @staticmethod
    def _simulate(comp, decomp):
        config = EmulatorConfig(spm_bytes=4 << 20, seed=3)
        return XfmEmulator(config)._simulate(comp, decomp)

    @pytest.mark.parametrize("burst", [200, 300])
    def test_form_does_not_change_the_report(self, burst):
        rng = np.random.default_rng(5)
        comp = rng.poisson(1.0, 400)
        decomp = rng.poisson(0.5, 400)
        comp[7] = burst
        converted = _arrival_counts(comp)
        assert isinstance(converted, bytes if burst <= 255 else list)
        report = self._simulate(comp, decomp)
        assert report.total_ops == comp.sum() + decomp.sum()
        assert report == self._simulate(comp.tolist(), decomp.tolist())


class TestSweep:
    def test_sweep_grid_size(self):
        reports = fallback_sweep(
            spm_sizes_mib=(1, 8),
            accesses_per_ref=(1, 3),
            promotion_rate=0.5,
            sim_time_s=0.02,
        )
        assert len(reports) == 4
        configs = {
            (r.config.spm_bytes >> 20, r.config.accesses_per_ref)
            for r in reports
        }
        assert configs == {(1, 1), (1, 3), (8, 1), (8, 3)}

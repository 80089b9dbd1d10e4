"""Cost/carbon model tests: equations, calibration targets, break-evens."""

import pytest

from repro.costmodel.accel import (
    IntegratedAccelerator,
    cores_needed_for_sfm,
    integrated_accel_breakeven_promotion,
)
from repro.costmodel.breakeven import (
    breakeven_years,
    fig3_series,
    sfm_vs_dfm_cost_breakeven,
    sfm_vs_dfm_emission_breakeven,
)
from repro.costmodel.capital import (
    dfm_cost_usd,
    dfm_idle_energy_kwh,
    sfm_cost_usd,
    sfm_cpu_cost_usd,
)
from repro.costmodel.carbon import dfm_emission_kg, sfm_emission_kg
from repro.costmodel.params import CostParams, MemoryKind
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def params():
    return CostParams()


class TestEq1(object):
    def test_gb_swapped_per_min(self, params):
        """EQ1 with the §2.1 example: 20% of 512 GB = ~102 GB/min."""
        assert params.gb_swapped_per_min(0.2) == pytest.approx(102.4)

    def test_promotion_rate_validated(self, params):
        with pytest.raises(ConfigError):
            params.gb_swapped_per_min(1.5)


class TestCpuQuantities:
    def test_cc_available_eq33(self, params):
        assert params.cc_available_per_min() == pytest.approx(
            2.6e9 * 8 * 60
        )

    def test_cpu_fraction_at_full_promotion(self, params):
        """512 GB/min at 7.65e9 cycles/GB needs ~3.1 E5-2670 sockets."""
        assert params.cpu_fraction_needed(1.0) == pytest.approx(3.14, abs=0.05)

    def test_footnote_bandwidth(self, params):
        """§3.3 footnote: 100% promotion on 512 GB is ~8.5 GBps."""
        assert params.gb_swapped_per_min(1.0) / 60 == pytest.approx(8.53, abs=0.01)

    def test_cpu_energy_per_gb(self, params):
        # 115 W at ~2.72 GB/s -> ~42 J/GB.
        assert params.cpu_energy_kwh_per_gb() * 3.6e6 == pytest.approx(
            42.3, abs=1.0
        )

    def test_nma_energy_much_cheaper(self, params):
        assert params.nma_energy_kwh_per_gb() < params.cpu_energy_kwh_per_gb() / 20


class TestCosts:
    def test_dfm_dominated_by_upfront(self, params):
        year0 = dfm_cost_usd(params, 1.0, 0.0)
        year5 = dfm_cost_usd(params, 1.0, 5.0)
        assert year0 == pytest.approx(512 * params.dram_cost_per_gb)
        assert year5 < year0 * 1.2

    def test_pmem_cheaper_than_dram(self, params):
        dram = dfm_cost_usd(params, 1.0, 1.0, MemoryKind.DRAM)
        pmem = dfm_cost_usd(params, 1.0, 1.0, MemoryKind.PMEM)
        assert pmem < dram

    def test_sfm_cost_grows_linearly(self, params):
        y1 = sfm_cost_usd(params, 1.0, 1.0)
        y2 = sfm_cost_usd(params, 1.0, 2.0)
        y3 = sfm_cost_usd(params, 1.0, 3.0)
        assert y2 - y1 == pytest.approx(y3 - y2)

    def test_sfm_scales_with_promotion(self, params):
        assert sfm_cost_usd(params, 0.2, 5.0) < sfm_cost_usd(params, 1.0, 5.0)

    def test_accelerated_sfm_is_cheapest(self, params):
        assert sfm_cost_usd(params, 1.0, 5.0, accelerated=True) < (
            sfm_cost_usd(params, 1.0, 5.0) * 0.1
        )

    def test_cpu_cost_eq31(self, params):
        assert sfm_cpu_cost_usd(params, 1.0) == pytest.approx(
            params.cpu_fraction_needed(1.0) * 500.0
        )

    def test_idle_energy_counts_dimms(self, params):
        # 512 GB of 64 GB DIMMs -> 8 DIMMs x 4 W.
        kwh = dfm_idle_energy_kwh(params, MemoryKind.DRAM, 1.0)
        assert kwh == pytest.approx(8 * 4 / 1000 * 8760, rel=0.01)

    def test_negative_years_rejected(self, params):
        with pytest.raises(ConfigError):
            dfm_cost_usd(params, 1.0, -1.0)


class TestBreakevens:
    def test_paper_headline_8_5_years(self, params):
        """§3.1: SFM at 100% promotion breaks even with DRAM-DFM at ~8.5y."""
        years = sfm_vs_dfm_cost_breakeven(params, 1.0)
        assert years == pytest.approx(8.5, abs=0.25)

    def test_sfm20_beats_pmem_for_decades(self, params):
        """§3.1: at 20% promotion SFM may beat even PMem-based DFM."""
        years = sfm_vs_dfm_cost_breakeven(params, 0.2, MemoryKind.PMEM)
        assert years is None or years > 10.0

    def test_accelerated_sfm_emission_never_breaks_even(self, params):
        """The 'ideal, accelerated SFM' never reaches DRAM-DFM emissions
        in (far more than) a 5-year server lifetime."""
        years = sfm_vs_dfm_emission_breakeven(
            params, 1.0, accelerated=True
        )
        assert years is None

    def test_cpu_sfm_emission_crosses_eventually(self, params):
        years = sfm_vs_dfm_emission_breakeven(params, 0.2)
        assert years is not None and years > 1.0

    def test_solver_detects_immediate_crossing(self):
        assert breakeven_years(lambda t: 10.0, lambda t: 5.0) == 0.0

    def test_solver_bisects(self):
        years = breakeven_years(lambda t: t, lambda t: 5.0)
        assert years == pytest.approx(5.0, abs=0.01)


class TestEmissions:
    def test_dram_embodied_dominates(self, params):
        assert dfm_emission_kg(params, 1.0, 0.0) == pytest.approx(
            512 * 1.01
        )

    def test_pmem_embodied_lower(self, params):
        dram = dfm_emission_kg(params, 1.0, 0.0, MemoryKind.DRAM)
        pmem = dfm_emission_kg(params, 1.0, 0.0, MemoryKind.PMEM)
        assert pmem / dram == pytest.approx(0.62 / 1.01)

    def test_sfm_operational_grows(self, params):
        assert sfm_emission_kg(params, 1.0, 2.0) > sfm_emission_kg(
            params, 1.0, 1.0
        )


class TestFig3Series:
    def test_series_structure(self):
        series = fig3_series()
        assert set(series) == {
            "dfm-dram", "dfm-pmem", "sfm-20", "sfm-xfm-20",
            "sfm-100", "sfm-xfm-100",
        }
        assert series["dfm-dram"].normalized == [1.0] * 10

    def test_sfm_lines_rise_toward_dfm(self):
        series = fig3_series()
        sfm = series["sfm-100"].normalized
        assert sfm == sorted(sfm)
        assert sfm[0] < 1.0

    def test_emission_metric(self):
        series = fig3_series(metric="emission")
        # Accelerated SFM emissions stay far below the DFM reference.
        assert all(v < 0.1 for v in series["sfm-xfm-100"].normalized)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError):
            fig3_series(metric="latency")


class TestIntegratedAccel:
    def test_breakeven_near_paper_estimate(self):
        """§3.2 puts the integrated-accelerator crossover at ~6%; the
        equations with a 1-core management cost give ~4%."""
        assert 0.02 <= integrated_accel_breakeven_promotion() <= 0.08

    def test_qat_sustains_full_promotion(self, params):
        accel = IntegratedAccelerator()
        assert accel.can_sustain(params, 1.0)

    def test_cores_needed_linear(self, params):
        assert cores_needed_for_sfm(params, 0.5) == pytest.approx(
            cores_needed_for_sfm(params, 1.0) / 2
        )

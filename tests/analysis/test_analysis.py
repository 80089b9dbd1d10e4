"""Analysis layer tests: figure data generators, tables, rendering."""

import pytest

from repro.analysis.figures import (
    fig11_interference,
    fig12_fallbacks,
    fig1_bandwidth_series,
    fig8_ratios,
    max_supported_sfm_gb,
    refresh_budget_summary,
    side_channel_gbps,
)
from repro.analysis.report import format_table
from repro.analysis.tables import (
    TABLE1_HEADERS,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.interference.corun import SfmMode


class TestFig1:
    def test_cpu_traffic_scales_with_ranks(self):
        points = fig1_bandwidth_series(rank_counts=(8, 16, 32))
        assert points[1].cpu_sfm_channel_gbps == pytest.approx(
            2 * points[0].cpu_sfm_channel_gbps
        )
        # Per-rank XFM demand stays flat.
        assert points[0].xfm_per_rank_gbps == pytest.approx(
            points[2].xfm_per_rank_gbps
        )

    def test_xfm_per_rank_within_side_channel(self):
        for point in fig1_bandwidth_series():
            assert point.xfm_utilization < 1.0

    def test_cpu_utilization_grows(self):
        points = fig1_bandwidth_series(rank_counts=(8, 64))
        assert points[1].cpu_utilization > points[0].cpu_utilization

    def test_side_channel_bandwidth(self):
        # 4 accesses x 4 KiB per 3.906 us ~ 4.2 GB/s.
        assert side_channel_gbps() == pytest.approx(4.19, abs=0.05)

    def test_max_sfm_capacity_claim(self):
        """The paper: XFM eliminates SFM bandwidth for capacities up to
        ~1 TB. A 16-rank server supports >= 1 TB at 100% promotion."""
        assert max_supported_sfm_gb(num_ranks=16) >= 1000.0
        assert max_supported_sfm_gb(num_ranks=8) >= 500.0


class TestFig8:
    def test_reports_cover_corpora(self):
        reports = fig8_ratios(
            corpora=("json-records", "random-bytes"), pages_per_corpus=2
        )
        assert [r.corpus for r in reports] == ["json-records", "random-bytes"]
        for report in reports:
            assert set(report.stored_ratio) == {1, 2, 4}


class TestFig11:
    def test_all_modes_present(self):
        results = fig11_interference()
        assert set(results) == {"mix-default", "mix-heavy", "mix-light"}
        for by_mode in results.values():
            assert set(by_mode) == set(SfmMode)


class TestFig12:
    def test_grid_shape(self):
        grid = fig12_fallbacks(
            promotion_rates=(0.5,),
            spm_sizes_mib=(1, 8),
            accesses_per_ref=(3,),
            sim_time_s=0.02,
        )
        assert len(grid[0.5]) == 2


class TestRefreshBudget:
    def test_section_4_3_numbers(self):
        summary = refresh_budget_summary()
        assert summary["locked_ms_per_retention"] == pytest.approx(2.46, abs=0.01)
        assert summary["locked_fraction"] == pytest.approx(0.077, abs=0.002)
        assert summary["per_dimm_nma_mbps"] == pytest.approx(426.7, abs=1.0)
        assert summary["page_batch_delay_us"] == pytest.approx(3.9, abs=0.1)


class TestTables:
    def test_table1_rows(self):
        rows = table1_rows()
        assert len(rows) == 3
        assert rows[0][0] == "DDR5-8Gb"
        assert [row[-1] for row in rows] == [2, 3, 4]
        assert len(TABLE1_HEADERS) == len(rows[0])

    def test_table2_rows(self):
        rows = table2_rows()
        luts = next(r for r in rows if r[0] == "LUTs")
        assert luts[1] == 435467 and luts[2] == 522720
        # Paper truncates to 83.30%; round-half-up gives 83.31%.
        assert luts[3] in ("83.30%", "83.31%")

    def test_table3_rows(self):
        rows = table3_rows()
        assert rows[-1][0] == "Total"
        assert float(rows[-1][1]) == pytest.approx(7.024)


class TestFormatTable:
    def test_renders_aligned(self):
        text = format_table(
            ["a", "bb"], [[1, 2.5], ["xxx", 10000.0]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_number_formatting(self):
        text = format_table(["v"], [[0.123456], [12345.0], [0]])
        assert "0.123" in text
        assert "12,345" in text

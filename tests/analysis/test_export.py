"""Figure data export tests: each exported experiment's ``export`` on
small data computed by its engine."""

import csv
import io
import json

import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.export import rows_to_csv
from repro.analysis.figures import (
    FIG11_JOB_MIXES,
    fig1_bandwidth_series,
    fig8_ratios,
    fig11_interference,
    fig12_fallbacks,
)
from repro.errors import ConfigError


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestRowsToCsv:
    def test_simple(self):
        text = rows_to_csv(["a", "b"], [[1, 2], [3, 4]])
        rows = _parse_csv(text)
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            rows_to_csv(["a"], [[1, 2]])


class TestFigureExports:
    def test_fig1(self):
        data = {"points": fig1_bandwidth_series(rank_counts=(8, 16))}
        rows = _parse_csv(EXPERIMENTS["fig1"].export(data))
        assert rows[0][0] == "num_ranks"
        assert len(rows) == 3

    def test_fig3(self):
        fig3 = EXPERIMENTS["fig3"]
        data = json.loads(fig3.export(fig3.compute()))
        assert "dfm-dram" in data
        assert data["dfm-dram"]["normalized"][0] == 1.0
        assert len(data["sfm-100"]["years"]) == len(
            data["sfm-100"]["normalized"]
        )

    def test_fig8(self):
        reports = fig8_ratios(corpora=("json-records",), pages_per_corpus=2)
        rows = _parse_csv(EXPERIMENTS["fig8"].export(reports))
        assert rows[0] == [
            "corpus", "num_dimms", "stored_ratio", "payload_ratio", "savings",
        ]
        assert len(rows) == 4  # header + 3 dimm configs

    def test_fig11(self):
        mix = {"mix-default": FIG11_JOB_MIXES["mix-default"]}
        data = {"results": fig11_interference(mix)}
        modes = json.loads(EXPERIMENTS["fig11"].export(data))["mix-default"]
        assert set(modes) == {"baseline-cpu", "host-lockout-nma", "xfm"}
        assert modes["xfm"]["spec_max_degradation_pct"] == pytest.approx(0.0)

    def test_fig12(self):
        grid = fig12_fallbacks(
            promotion_rates=(0.5,),
            spm_sizes_mib=(8,),
            accesses_per_ref=(3,),
            sim_time_s=0.02,
        )
        rows = _parse_csv(EXPERIMENTS["fig12"].export(grid))
        assert len(rows) == 2
        assert float(rows[1][3]) == 0.0  # fallback fraction

    def test_registry(self):
        exported = {
            rec.export_file for rec in EXPERIMENTS.values() if rec.export
        }
        assert exported == {
            "fig1.csv", "fig3.json", "fig8.csv", "fig11.json", "fig12.csv",
        }

"""The paper's experiments: one record per figure or table.

Each :class:`Experiment` computes its data once, at the one parameter
set the committed ``benchmarks/results`` files were made with (the
defaults of the engines in :mod:`repro.analysis.figures`,
:mod:`repro.analysis.tables` and :mod:`repro.costmodel`), and renders
that data once. ``python -m repro <name>`` prints exactly the text of
the results files the experiment owns, the benches write the same text
and assert the paper's shape on the data, ``python -m repro export``
writes the plot-ready series from the same data, and
``tests/test_cli.py`` pins the printed text to the committed files
byte for byte.

The engines are imported inside ``compute``, so reading the table (for
``python -m repro list``) loads none of them.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.analysis.export import rows_to_csv
from repro.analysis.report import format_table


class Experiment(NamedTuple):
    """One paper figure or table: what it shows, the results files it
    owns, how its data is computed, and how that data is rendered."""

    description: str
    #: Stems of the ``benchmarks/results/<stem>.txt`` files it owns.
    results: Tuple[str, ...]
    compute: Callable[[], Any]
    #: The text of each results file (without its final newline), in
    #: the order of :attr:`results`.
    render: Callable[[Any], Tuple[str, ...]]
    #: ``python -m repro export``'s file name and plot-ready text.
    export_file: Optional[str] = None
    export: Optional[Callable[[Any], str]] = None


def _years(value: Optional[float]) -> str:
    return "never" if value is None else f"{value:.1f} years"


# -- Fig. 1: SFM bandwidth vs rank count ---------------------------------------


def _fig1_compute() -> Dict[str, Any]:
    from repro.analysis.figures import (
        fig1_bandwidth_series,
        max_supported_sfm_gb,
        side_channel_gbps,
    )

    return {
        "points": fig1_bandwidth_series(),
        "side_gbps": side_channel_gbps(),
        "max_gb": max_supported_sfm_gb(),
    }


def _fig1_render(data) -> Tuple[str, ...]:
    table = format_table(
        [
            "ranks",
            "SFM GB",
            "CPU-SFM GBps",
            "chan util %",
            "XFM/rank GBps",
            "side-chan GBps",
            "XFM util %",
        ],
        [
            [
                p.num_ranks,
                p.sfm_capacity_gb,
                round(p.cpu_sfm_channel_gbps, 2),
                round(100 * p.cpu_utilization, 1),
                round(p.xfm_per_rank_gbps, 3),
                round(p.side_channel_per_rank_gbps, 2),
                round(100 * p.xfm_utilization, 1),
            ]
            for p in data["points"]
        ],
        title="Fig. 1 — SFM bandwidth vs ranks (100% promotion)",
    )
    return (
        table
        + f"\nside channel/rank: {data['side_gbps']:.2f} GBps"
        f"\nmax SFM capacity @16 ranks, 100% promotion:"
        f" {data['max_gb']:.0f} GB (paper: up to ~1 TB)",
    )


def _fig1_export(data) -> str:
    return rows_to_csv(
        [
            "num_ranks",
            "sfm_capacity_gb",
            "cpu_sfm_channel_gbps",
            "channel_peak_gbps",
            "xfm_per_rank_gbps",
            "side_channel_per_rank_gbps",
        ],
        [
            [
                p.num_ranks,
                p.sfm_capacity_gb,
                p.cpu_sfm_channel_gbps,
                p.channel_peak_gbps,
                p.xfm_per_rank_gbps,
                p.side_channel_per_rank_gbps,
            ]
            for p in data["points"]
        ],
    )


# -- Fig. 3: cost and emissions of SFM vs DFM -----------------------------------


def _fig3_compute() -> Dict[str, Any]:
    from repro.costmodel import CostParams, MemoryKind, fig3_series
    from repro.costmodel.breakeven import (
        sfm_vs_dfm_cost_breakeven,
        sfm_vs_dfm_emission_breakeven,
    )

    params = CostParams()
    return {
        "cost": fig3_series(metric="cost"),
        "emission": fig3_series(metric="emission"),
        "cost_breakeven_100": sfm_vs_dfm_cost_breakeven(params, 1.0),
        "cost_breakeven_20_pmem": sfm_vs_dfm_cost_breakeven(
            params, 0.2, MemoryKind.PMEM
        ),
        "emission_breakeven_xfm_100": sfm_vs_dfm_emission_breakeven(
            params, 1.0, accelerated=True
        ),
        "emission_breakeven_cpu_20": sfm_vs_dfm_emission_breakeven(
            params, 0.2
        ),
    }


def _fig3_series_table(metric: str, series) -> str:
    years = series["dfm-dram"].years
    return format_table(
        ["year"] + list(series),
        [
            [year] + [round(series[k].normalized[i], 3) for k in series]
            for i, year in enumerate(years)
        ],
        title=f"Fig. 3 ({metric}) — normalized to DFM (DRAM)",
    )


def _fig3_render(data) -> Tuple[str, ...]:
    cost = (
        _fig3_series_table("cost", data["cost"])
        + f"\ncost break-even, SFM@100% vs DFM-DRAM:"
        f" {data['cost_breakeven_100']:.1f} years (paper: 8.5)"
        f"\ncost break-even, SFM@20% vs DFM-PMem: "
        f"{_years(data['cost_breakeven_20_pmem'])}"
        f" (paper: SFM can beat even PMem)"
    )
    emission = (
        _fig3_series_table("emission", data["emission"])
        + f"\nemission break-even, XFM-SFM@100% vs DFM-DRAM: "
        f"{_years(data['emission_breakeven_xfm_100'])}"
        f" (paper: never within server lifetime)"
        f"\nemission break-even, CPU-SFM@20% vs DFM-DRAM: "
        f"{_years(data['emission_breakeven_cpu_20'])}"
        f" (literal EQ5 crosses earlier than the paper's figure; see"
        f" EXPERIMENTS.md)"
    )
    return cost, emission


def _fig3_export(data) -> str:
    return json.dumps(
        {
            key: {
                "label": value.label,
                "years": value.years,
                "normalized": value.normalized,
            }
            for key, value in data["cost"].items()
        },
        indent=2,
    )


# -- Fig. 8: multi-channel compression ratios -----------------------------------


def _fig8_compute():
    from repro.analysis.figures import fig8_ratios

    return fig8_ratios()


def _fig8_render(reports) -> Tuple[str, ...]:
    """Also renders other corpora's reports: the ingested-corpus bench
    writes its table through this renderer."""
    rows = [
        [
            report.corpus,
            round(report.stored_ratio[1], 2),
            round(report.stored_ratio[2], 2),
            round(report.stored_ratio[4], 2),
            round(100 * report.ratio_retention(4), 1),
            round(100 * report.savings_reduction_vs_inorder(2), 1),
            round(100 * report.savings_reduction_vs_inorder(4), 1),
        ]
        for report in reports
    ]
    compressible = [r for r in reports if r.stored_ratio[1] > 1.3]

    def mean(value) -> float:
        return sum(value(r) for r in compressible) / len(compressible)

    table = format_table(
        [
            "corpus",
            "ratio 1-DIMM",
            "ratio 2-DIMM",
            "ratio 4-DIMM",
            "retained@4 %",
            "savings loss@2 %",
            "savings loss@4 %",
        ],
        rows,
        title="Fig. 8 — multi-channel compression ratios (deflate)",
    )
    retention = mean(lambda r: r.ratio_retention(4))
    loss2 = mean(lambda r: r.savings_reduction_vs_inorder(2))
    loss4 = mean(lambda r: r.savings_reduction_vs_inorder(4))
    return (
        table
        + f"\nmean ratio retained @4 DIMMs (compressible corpora):"
        f" {100 * retention:.1f}% (paper: 86.2%)"
        f"\nmean savings reduction @2: {100 * loss2:.1f}% (paper: ~5%)"
        f"\nmean savings reduction @4: {100 * loss4:.1f}% (paper: ~14%)",
    )


def _fig8_export(reports) -> str:
    return rows_to_csv(
        ["corpus", "num_dimms", "stored_ratio", "payload_ratio", "savings"],
        [
            [
                report.corpus,
                dimms,
                ratio,
                report.payload_ratio[dimms],
                report.savings(dimms),
            ]
            for report in reports
            for dimms, ratio in sorted(report.stored_ratio.items())
        ],
    )


# -- Fig. 11: SPEC x SFM co-run interference ------------------------------------


def _fig11_compute() -> Dict[str, Any]:
    from repro.analysis.figures import FIG11_JOB_MIXES, fig11_interference
    from repro.interference.corun import SfmMode, xfm_improvement_pct

    return {
        "results": fig11_interference(),
        "improvements": [
            (mix, against.value, xfm_improvement_pct(config, against))
            for mix, config in FIG11_JOB_MIXES.items()
            for against in (SfmMode.BASELINE_CPU, SfmMode.HOST_LOCKOUT_NMA)
        ],
    }


def _fig11_render(data) -> Tuple[str, ...]:
    table = format_table(
        [
            "job mix",
            "config",
            "SPEC mean deg %",
            "SPEC max deg %",
            "SFM deg %",
            "combined tput",
        ],
        [
            [
                mix,
                mode.value,
                round(result.spec_mean_degradation_pct, 2),
                round(result.spec_max_degradation_pct, 2),
                round(result.sfm_degradation_pct, 2),
                round(result.combined_throughput(), 4),
            ]
            for mix, by_mode in data["results"].items()
            for mode, result in by_mode.items()
        ],
        title="Fig. 11 — SPEC x SFM co-run interference",
    )
    table += "\nXFM combined-performance improvement:"
    for mix, against, pct in data["improvements"]:
        table += f"\n  vs {against:18s} on {mix}: {pct:5.1f}%"
    return (table + "\n(paper: 5~27% depending on mix and comparison point)",)


def _fig11_export(data) -> str:
    return json.dumps(
        {
            mix: {
                mode.value: {
                    "spec_mean_degradation_pct": result.spec_mean_degradation_pct,
                    "spec_max_degradation_pct": result.spec_max_degradation_pct,
                    "sfm_degradation_pct": result.sfm_degradation_pct,
                    "combined_throughput": result.combined_throughput(),
                    "workloads": {
                        w.name: w.degradation_pct for w in result.workloads
                    },
                }
                for mode, result in by_mode.items()
            }
            for mix, by_mode in data["results"].items()
        },
        indent=2,
    )


# -- Fig. 12: CPU fallbacks --------------------------------------------------------


def _fig12_compute():
    from repro.analysis.figures import fig12_fallbacks

    return fig12_fallbacks()


def _fig12_render(grid) -> Tuple[str, ...]:
    rows = []
    for promo, reports in grid.items():
        for report in reports:
            cfg = report.config
            p95 = report.latency_percentiles_ms.get(95, 0.0)
            rows.append(
                [
                    f"{int(promo * 100)}%",
                    cfg.spm_bytes >> 20,
                    cfg.accesses_per_ref,
                    round(100 * report.fallback_fraction, 2),
                    round(100 * report.random_fraction, 1),
                    round(report.nma_bandwidth_bps / 1e9, 3),
                    round(100 * report.conditional_energy_saving, 2),
                    round(p95 * 1000, 1),
                ]
            )
    return (
        format_table(
            [
                "promotion",
                "SPM MiB",
                "acc/REF",
                "fallback %",
                "random %",
                "NMA GBps",
                "energy saved %",
                "p95 latency us",
            ],
            rows,
            title="Fig. 12 — CPU fallbacks (512 GB SFM, per-rank emulation)",
        ),
    )


def _fig12_export(grid) -> str:
    return rows_to_csv(
        [
            "promotion_rate",
            "spm_bytes",
            "accesses_per_ref",
            "fallback_fraction",
            "random_fraction",
            "nma_bandwidth_bps",
            "conditional_energy_saving",
        ],
        [
            [
                promotion,
                report.config.spm_bytes,
                report.config.accesses_per_ref,
                report.fallback_fraction,
                report.random_fraction,
                report.nma_bandwidth_bps,
                report.conditional_energy_saving,
            ]
            for promotion, reports in grid.items()
            for report in reports
        ],
    )


# -- Tables 1-3 -------------------------------------------------------------------


def _table1_compute():
    from repro.analysis.tables import table1_rows

    return table1_rows()


def _table1_render(rows) -> Tuple[str, ...]:
    from repro.analysis.tables import TABLE1_HEADERS

    return (
        format_table(
            TABLE1_HEADERS, rows, title="Table 1 — DDR5 device configuration"
        ),
    )


def _table2_compute() -> Dict[str, Any]:
    from repro.analysis.tables import table2_rows
    from repro.hwmodel.fpga import xfm_fpga_design

    return {
        "rows": table2_rows(),
        "components": xfm_fpga_design().breakdown(),
    }


def _table2_render(data) -> Tuple[str, ...]:
    from repro.analysis.tables import TABLE2_HEADERS

    table = format_table(
        TABLE2_HEADERS, data["rows"], title="Table 2 — FPGA resource utilization"
    )
    breakdown = format_table(
        ["component", "LUTs", "FFs", "BRAM", "dynamic W"],
        [
            [c["name"], c["luts"], c["ffs"], c["bram"], c["dynamic_w"]]
            for c in data["components"]
        ],
        title="component inventory",
    )
    return (table + "\n\n" + breakdown,)


def _table3_compute():
    from repro.analysis.tables import table3_rows

    return table3_rows()


def _table3_render(rows) -> Tuple[str, ...]:
    from repro.analysis.tables import TABLE3_HEADERS

    return (
        format_table(TABLE3_HEADERS, rows, title="Table 3 — XFM power consumption"),
    )


# -- §4.3 refresh-budget arithmetic (X4) -------------------------------------------


def _budget_compute() -> Dict[str, float]:
    from repro.analysis.figures import refresh_budget_summary

    return refresh_budget_summary()


def _budget_render(summary) -> Tuple[str, ...]:
    return (
        format_table(
            ["quantity", "value", "paper"],
            [
                ["locked ms / 32 ms retention",
                 round(summary["locked_ms_per_retention"], 3), "~2.46 ms"],
                ["locked fraction",
                 f"{100 * summary['locked_fraction']:.2f}%", "~8%"],
                ["tREFI", f"{summary['trefi_us']:.2f} us", "~3.9 us"],
                ["per-DIMM NMA bandwidth",
                 f"{summary['per_dimm_nma_mbps']:.0f} MBps", "426 MBps"],
                ["with compressed blobs",
                 f"{summary['per_dimm_with_blobs_mbps']:.0f} MBps", "-"],
                ["max offload batching delay",
                 f"{summary['page_batch_delay_us']:.2f} us", "~3.9 us"],
            ],
            title="X4 — refresh side-channel budget (512 GB SFM, 20% promotion)",
        ),
    )


#: Every experiment, by its CLI name, in ``python -m repro all`` order.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(
        "SFM bandwidth vs rank count; XFM side-channel headroom",
        ("fig01_bandwidth",), _fig1_compute, _fig1_render,
        "fig1.csv", _fig1_export,
    ),
    "fig3": Experiment(
        "cost and emissions of SFM vs DFM over years (EQ1-EQ5)",
        ("fig03_cost", "fig03_emissions"), _fig3_compute, _fig3_render,
        "fig3.json", _fig3_export,
    ),
    "fig8": Experiment(
        "multi-channel compression ratios on 16 corpora",
        ("fig08_multichannel",), _fig8_compute, _fig8_render,
        "fig8.csv", _fig8_export,
    ),
    "fig11": Experiment(
        "SPEC x SFM co-run interference, three configs x three job mixes",
        ("fig11_interference",), _fig11_compute, _fig11_render,
        "fig11.json", _fig11_export,
    ),
    "fig12": Experiment(
        "CPU fallback rate vs SPM size x access budget",
        ("fig12_fallbacks",), _fig12_compute, _fig12_render,
        "fig12.csv", _fig12_export,
    ),
    "table1": Experiment(
        "DDR5 device configuration + conditional access capacity",
        ("table1_devices",), _table1_compute, _table1_render,
    ),
    "table2": Experiment(
        "FPGA resource utilization",
        ("table2_fpga",), _table2_compute, _table2_render,
    ),
    "table3": Experiment(
        "FPGA power breakdown",
        ("table3_power",), _table3_compute, _table3_render,
    ),
    "budget": Experiment(
        "refresh side-channel budget arithmetic (Sec. 4.3)",
        ("x4_refresh_budget",), _budget_compute, _budget_render,
    ),
}

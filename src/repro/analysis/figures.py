"""Data generators for each figure of the paper's evaluation.

Each generator's defaults are the one parameter set its experiment in
:mod:`repro.analysis.experiments` (and its committed results file) uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro._units import SECONDS_PER_MINUTE
from repro.core.emulator import EmulatorReport, fallback_sweep
from repro.core.multichannel import MultiChannelReport, measure_corpus
from repro.dram.device import DDR5_32GB, PAGE_SIZE, DramDeviceConfig, timings_for_device
from repro.interference.corun import (
    AntagonistConfig,
    CorunConfig,
    CorunResult,
    SfmMode,
    simulate_corun,
)
from repro.workloads.corpus import CORPUS_NAMES, corpus_pages


# -- Fig. 1: SFM bandwidth vs rank count ------------------------------------


@dataclass
class Fig1Point:
    """One rank-count point of Fig. 1."""

    num_ranks: int
    sfm_capacity_gb: float
    #: DDR-channel traffic of a CPU-side SFM (GBps) — grows with capacity.
    cpu_sfm_channel_gbps: float
    #: Available DDR channel bandwidth (GBps).
    channel_peak_gbps: float
    #: Per-rank NMA demand under XFM (GBps) — constant per rank.
    xfm_per_rank_gbps: float
    #: Per-rank refresh side-channel budget (GBps).
    side_channel_per_rank_gbps: float

    @property
    def cpu_utilization(self) -> float:
        return self.cpu_sfm_channel_gbps / self.channel_peak_gbps

    @property
    def xfm_utilization(self) -> float:
        return self.xfm_per_rank_gbps / self.side_channel_per_rank_gbps


def side_channel_gbps(
    device: DramDeviceConfig = DDR5_32GB,
    accesses_per_ref: Optional[int] = None,
) -> float:
    """Per-rank NMA bandwidth from refresh-window accesses."""
    timings = timings_for_device(device)
    budget = (
        accesses_per_ref
        if accesses_per_ref is not None
        else device.conditional_accesses_per_trfc(timings)
    )
    return device.nma_bandwidth_bps(timings, budget) / 1e9


def fig1_bandwidth_series(
    rank_counts: Sequence[int] = (4, 8, 16, 32, 64),
    gb_per_rank: float = 32.0,
    sfm_fraction: float = 0.5,
    promotion_rate: float = 1.0,
    compression_ratio: float = 3.0,
    channel_gbps: float = 25.0,
    num_channels: int = 4,
    device: DramDeviceConfig = DDR5_32GB,
) -> List[Fig1Point]:
    """Fig. 1: with the channel count fixed, CPU-side SFM traffic grows
    with rank count (and hence SFM capacity) toward the DDR channel limit;
    XFM's per-rank side channel scales with the ranks instead."""
    side = side_channel_gbps(device)
    out = []
    for ranks in rank_counts:
        capacity_gb = ranks * gb_per_rank * sfm_fraction
        swap_gbps = capacity_gb * promotion_rate / SECONDS_PER_MINUTE
        channel_traffic = 2.0 * swap_gbps * (1.0 + 1.0 / compression_ratio)
        channels = num_channels
        per_rank = channel_traffic / ranks
        out.append(
            Fig1Point(
                num_ranks=ranks,
                sfm_capacity_gb=capacity_gb,
                cpu_sfm_channel_gbps=channel_traffic,
                channel_peak_gbps=channels * channel_gbps,
                xfm_per_rank_gbps=per_rank,
                side_channel_per_rank_gbps=side,
            )
        )
    return out


def max_supported_sfm_gb(
    num_ranks: int = 16,
    promotion_rate: float = 1.0,
    compression_ratio: float = 3.0,
    device: DramDeviceConfig = DDR5_32GB,
    accesses_per_ref: Optional[int] = None,
) -> float:
    """Largest SFM capacity whose NMA traffic fits in the refresh side
    channel (the paper's "up to 1 TB" claim for a two-DIMM-per-channel,
    four-channel class server)."""
    side = side_channel_gbps(device, accesses_per_ref)
    traffic_per_gb = (
        2.0 * (1.0 + 1.0 / compression_ratio) / SECONDS_PER_MINUTE
    ) * promotion_rate
    return num_ranks * side / traffic_per_gb


# -- Fig. 8: multi-channel compression ratios -----------------------------------


def fig8_ratios(
    corpora: Sequence[str] = tuple(CORPUS_NAMES),
    pages_per_corpus: int = 6,
    dimm_counts: Sequence[int] = (1, 2, 4),
    seed: int = 42,
) -> List[MultiChannelReport]:
    """Compression ratio of page-divided corpora at interleave granularity."""
    return [
        measure_corpus(
            corpus,
            corpus_pages(corpus, pages_per_corpus, seed=seed),
            dimm_counts=dimm_counts,
        )
        for corpus in corpora
    ]


# -- Fig. 11: co-run interference ---------------------------------------------------


#: Fig. 11's job mixes: the default SPEC mix, a bandwidth-heavy mix under
#: a harder antagonist, and a light mix under a gentler one.
FIG11_JOB_MIXES: Mapping[str, CorunConfig] = {
    "mix-default": CorunConfig(),
    "mix-heavy": CorunConfig(
        workloads=(
            "lbm", "fotonik3d", "bwaves", "roms",
            "mcf", "cactuBSSN", "lbm", "fotonik3d",
        ),
        antagonist=AntagonistConfig(promotion_rate=0.25, num_cores=4),
    ),
    "mix-light": CorunConfig(
        workloads=("gcc", "wrf", "xalancbmk", "omnetpp", "mcf", "cactuBSSN"),
        antagonist=AntagonistConfig(promotion_rate=0.10),
    ),
}


def fig11_interference(
    configs: Mapping[str, CorunConfig] = FIG11_JOB_MIXES,
) -> Dict[str, Dict[SfmMode, CorunResult]]:
    """SPEC + SFM antagonist co-runs under the three configurations."""
    return {
        name: {mode: simulate_corun(config, mode) for mode in SfmMode}
        for name, config in configs.items()
    }


# -- Fig. 12: CPU fallbacks ------------------------------------------------------------


def fig12_fallbacks(
    promotion_rates: Sequence[float] = (0.5, 1.0),
    spm_sizes_mib: Sequence[int] = (1, 2, 4, 8),
    accesses_per_ref: Sequence[int] = (1, 2, 3),
    sim_time_s: float = 0.08,
) -> Dict[float, List[EmulatorReport]]:
    """The Fig. 12 grid: fallback rate vs SPM size x access budget."""
    return {
        rate: fallback_sweep(
            spm_sizes_mib=spm_sizes_mib,
            accesses_per_ref=accesses_per_ref,
            promotion_rate=rate,
            sim_time_s=sim_time_s,
        )
        for rate in promotion_rates
    }


# -- §4.3 refresh-budget arithmetic (experiment X4) --------------------------------------


def refresh_budget_summary(
    trfc_ns: float = 300.0,
    retention_ms: float = 32.0,
    sfm_capacity_gb: float = 512.0,
    promotion_rate: float = 0.2,
    num_dimms: int = 8,
    compression_ratio: float = 3.0,
) -> Dict[str, float]:
    """The §4.3 worked numbers: ~2.46 ms locked per retention (~8%), and
    ~426 MBps of NMA bandwidth needed per DIMM for a 512 GB SFM."""
    refs = 8192
    locked_ms = refs * trfc_ns / 1e6
    swap_gbps = sfm_capacity_gb * promotion_rate / SECONDS_PER_MINUTE
    # The paper's 426 MBps counts the page read + page write per swap;
    # the ratio-adjusted figure additionally counts compressed blobs.
    per_dimm_mbps = 2.0 * swap_gbps / num_dimms * 1000.0
    per_dimm_with_blobs_mbps = (
        2.0 * swap_gbps * (1.0 + 1.0 / compression_ratio) / num_dimms * 1000.0
    )
    return {
        "locked_ms_per_retention": locked_ms,
        "locked_fraction": locked_ms / retention_ms,
        "trefi_us": retention_ms * 1000.0 / refs,
        "per_dimm_nma_mbps": per_dimm_mbps,
        "per_dimm_with_blobs_mbps": per_dimm_with_blobs_mbps,
        "page_batch_delay_us": retention_ms * 1000.0 / refs,
    }

"""Parameters of the §3 analytical model.

Constants the paper states explicitly (and we use verbatim):

* PCIe access energy 88 pJ/B = 2.44e-8 kWh/GB (EQ2.1);
* 4 W static power per extra DIMM (EQ2.2);
* $0.12/kWh electricity (EnergyBot);
* Xeon E5-2670: 115 W TDP, 2.6 GHz, 8 cores;
* CCPerGB = 7.65e9 cycles/GB, the zstd/lzo average;
* 64 GB DRAM DIMMs, 512 GB PMem DIMMs;
* emissions: 1.01 kgCO2e/GB DRAM, 0.62 kgCO2e/GB PMem, 0.625 kgCO2e per
  CPU core (Boavizta), 479 gCO2e/kWh grid (Southwest Power Pool, 2022).

Constants the paper uses but does not print (calibrated; see DESIGN.md):

* DRAM price $8.79/GB — 2023 server-RDIMM street price; with the $500 CPU
  price below, this reproduces the paper's 8.5-year cost break-even of a
  100%-promotion SFM against a DRAM DFM.
* PMem price $4.00/GB — half of DRAM, matching the paper's 2x-density
  assumption and Optane street prices.
* CPU purchase price $500 per 8-core E5-2670-class socket.

The accelerated-SFM (XFM) variant uses the prototype's 7.024 W power
(Table 3) at the 14.8 GBps memory-customized engine rate (§7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro._units import (
    DAYS_PER_YEAR,
    HOURS_PER_DAY,
    MINUTES_PER_HOUR,
)
from repro.errors import ConfigError

MINUTES_PER_YEAR = MINUTES_PER_HOUR * HOURS_PER_DAY * DAYS_PER_YEAR
HOURS_PER_YEAR = HOURS_PER_DAY * DAYS_PER_YEAR


class MemoryKind(enum.Enum):
    DRAM = "dram"
    PMEM = "pmem"


@dataclass(frozen=True)
class CostParams:
    """All knobs of the first-order model, with paper-faithful defaults."""

    # -- far memory sizing -------------------------------------------------
    extra_gb: float = 512.0
    dram_dimm_gb: float = 64.0
    pmem_dimm_gb: float = 512.0

    # -- prices --------------------------------------------------------------
    dram_cost_per_gb: float = 8.79
    pmem_cost_per_gb: float = 4.00
    cpu_purchase_price: float = 500.0
    electricity_cost_per_kwh: float = 0.12

    # -- energies ---------------------------------------------------------------
    pcie_kwh_per_gb: float = 2.44e-8
    idle_dimm_w: float = 4.0

    # -- CPU (Xeon E5-2670) ---------------------------------------------------
    cpu_freq_hz: float = 2.6e9
    cpu_cores: int = 8
    cpu_tdp_w: float = 115.0
    #: Average cycles to (de)compress one GB (zstd/lzo mean, EQ3.4).
    cc_per_gb: float = 7.65e9

    # -- XFM accelerator variant --------------------------------------------------
    nma_power_w: float = 7.024
    nma_throughput_gbps: float = 14.8

    # -- emissions -------------------------------------------------------------------
    dram_kg_per_gb: float = 1.01
    pmem_kg_per_gb: float = 0.62
    cpu_kg_per_core: float = 0.625
    grid_kg_per_kwh: float = 0.479

    def __post_init__(self) -> None:
        if self.extra_gb <= 0:
            raise ConfigError("extra_gb must be positive")
        if self.cpu_cores < 1:
            raise ConfigError("cpu_cores must be >= 1")

    # -- EQ1 ---------------------------------------------------------------------------

    def gb_swapped_per_min(self, promotion_rate: float) -> float:
        """EQ1: GBSwappedPerMin = ExtraGB x PromotionRate."""
        if not 0.0 <= promotion_rate <= 1.0:
            raise ConfigError("promotion rate must be in [0, 1]")
        return self.extra_gb * promotion_rate

    # -- derived CPU quantities (EQ3.2-3.4) -----------------------------------------------

    def cc_available_per_min(self) -> float:
        """EQ3.3: cycles one CPU provides per minute."""
        return self.cpu_freq_hz * self.cpu_cores * 60.0

    def cc_needed_per_min(self, promotion_rate: float) -> float:
        """EQ3.4: cycles needed per minute for (de)compression."""
        return self.gb_swapped_per_min(promotion_rate) * self.cc_per_gb

    def cpu_fraction_needed(self, promotion_rate: float) -> float:
        """EQ3.2: %CPUNeeded (may exceed 1: multiple sockets)."""
        return self.cc_needed_per_min(promotion_rate) / self.cc_available_per_min()

    def cpu_compress_throughput_gbps(self) -> float:
        """Whole-socket (de)compression throughput."""
        return self.cpu_freq_hz * self.cpu_cores / self.cc_per_gb

    def cpu_energy_kwh_per_gb(self) -> float:
        """EnergyPerGB for the CPU data plane (EQ3's prefactor)."""
        joules_per_gb = self.cpu_tdp_w / self.cpu_compress_throughput_gbps()
        return joules_per_gb / 3.6e6

    def nma_energy_kwh_per_gb(self) -> float:
        """EnergyPerGB when XFM's NMA performs the (de)compression."""
        joules_per_gb = self.nma_power_w / self.nma_throughput_gbps
        return joules_per_gb / 3.6e6

    # -- DFM DIMM counts ----------------------------------------------------------------------

    def dfm_dimm_count(self, kind: MemoryKind) -> int:
        size = (
            self.dram_dimm_gb if kind is MemoryKind.DRAM else self.pmem_dimm_gb
        )
        return int(-(-self.extra_gb // size))

    def memory_cost_per_gb(self, kind: MemoryKind) -> float:
        return (
            self.dram_cost_per_gb
            if kind is MemoryKind.DRAM
            else self.pmem_cost_per_gb
        )

    def memory_kg_per_gb(self, kind: MemoryKind) -> float:
        return (
            self.dram_kg_per_gb
            if kind is MemoryKind.DRAM
            else self.pmem_kg_per_gb
        )

"""DRAM access-energy model.

Calibrated to the constants the paper itself uses:

* an on-DIMM (DB-to-RCD PCB track) serial link costs 1.17 pJ/bit
  (Wilson et al., cited in §4.1);
* moving data over the DDR channel to the CPU instead costs ~3.8 pJ/bit, so
  near-memory movement "cuts the overall data movement energy by 69%"
  (§4.3: 1 - 1.17/3.8 = 0.69);
* a conditional access rides the refresh's own row activation, so a random
  access pays an extra rank-wide activate + precharge; with the default
  activation energy this makes conditional accesses ~10% cheaper, matching
  §8's "conditional accesses reduce the NMA access energy by 10.1%".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class AccessEnergyModel:
    """Per-operation DRAM energy constants (joules)."""

    #: DDR channel I/O energy, CPU <-> DRAM.
    ddr_io_pj_per_bit: float = 3.8
    #: On-DIMM PCB link energy, NMA <-> DRAM chips.
    on_dimm_io_pj_per_bit: float = 1.17
    #: Rank-wide row activate + precharge pair. Calibrated so a random
    #: 4 KiB NMA access (2 extra activations) costs ~10.1% more than a
    #: conditional one, the saving §8 reports.
    activate_nj: float = 3.07
    #: Array column access (read or write) per bit, inside the chip.
    array_pj_per_bit: float = 0.5
    #: Static power per DIMM, watts (the cost model's 4 W idle DIMM).
    idle_dimm_w: float = 4.0

    def __post_init__(self) -> None:
        if self.on_dimm_io_pj_per_bit >= self.ddr_io_pj_per_bit:
            raise ConfigError(
                "on-DIMM link must be cheaper than the DDR channel"
            )

    # -- data movement ------------------------------------------------------

    def cpu_transfer_j(self, num_bytes: int) -> float:
        """Energy to move ``num_bytes`` over the DDR channel."""
        return num_bytes * 8 * self.ddr_io_pj_per_bit * 1e-12

    def nma_transfer_j(self, num_bytes: int) -> float:
        """Energy to move ``num_bytes`` over the on-DIMM link."""
        return num_bytes * 8 * self.on_dimm_io_pj_per_bit * 1e-12

    def data_movement_saving(self) -> float:
        """Fractional I/O energy saved by staying on-DIMM (~0.69, §4.3)."""
        return 1.0 - self.on_dimm_io_pj_per_bit / self.ddr_io_pj_per_bit

    # -- page-granular accesses ----------------------------------------------

    def _array_j(self, num_bytes: int) -> float:
        return num_bytes * 8 * self.array_pj_per_bit * 1e-12

    def cpu_page_access_j(self, num_bytes: int, row_activations: int = 2) -> float:
        """CPU-side page read/write: activations + array + DDR channel."""
        return (
            row_activations * self.activate_nj * 1e-9
            + self._array_j(num_bytes)
            + self.cpu_transfer_j(num_bytes)
        )

    def nma_page_access_j(
        self, num_bytes: int, conditional: bool, row_activations: int = 2
    ) -> float:
        """NMA-side page access during a refresh window.

        A *conditional* access reuses the activation the refresh performs
        anyway, so only array + link energy is charged; a *random* access
        pays its own activations.
        """
        energy = self._array_j(num_bytes) + self.nma_transfer_j(num_bytes)
        if not conditional:
            energy += row_activations * self.activate_nj * 1e-9
        return energy

    def conditional_saving(self, num_bytes: int = 4096) -> float:
        """Fractional energy saved by a conditional vs random access."""
        random_j = self.nma_page_access_j(num_bytes, conditional=False)
        conditional_j = self.nma_page_access_j(num_bytes, conditional=True)
        return 1.0 - conditional_j / random_j

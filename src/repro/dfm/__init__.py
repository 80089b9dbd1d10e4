"""Disaggregated far memory (DFM): the paper's §3 comparator, functional.

The cost model (EQ2/EQ4) prices DFM; this package makes it a runnable
baseline with the same swap surface as the SFM backends: pages move
*uncompressed* over a serial interconnect (CXL / PCIe / RDMA presets with
the paper's 88 pJ/B PCIe energy), so swap-ins are fast and CPU-free but
capacity is what you bought — no compression gain, no elasticity.

The backend is :mod:`~repro.dfm.backend`, the link presets
:mod:`~repro.dfm.interconnect`. The package imports neither: import
names from the module that defines them.
"""

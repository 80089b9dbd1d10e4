"""First-order cost and carbon model for DFM vs SFM (system S11, §3).

Implements EQ1–EQ5 of the paper with explicit, documented parameters:
capital cost of DRAM/PMem-based disaggregated far memory versus the
CPU-cycle (or accelerator) cost of software-defined far memory, and the
embodied + operational carbon of both. Constants stated in the paper are
used verbatim; the handful it omits (memory $/GB, CPU purchase price) are
calibrated so the published break-even claims hold — see
:mod:`~repro.costmodel.params` and DESIGN.md.
"""

"""Hardware overhead models (system S12, Tables 2–3 and the CACTI study).

The paper's FPGA prototype numbers (Vivado synthesis on the AxDIMM's
UltraScale+ part) and its CACTI study of the DRAM bank modifications are
reproduced here as component-inventory models: the roll-ups regenerate the
published tables, and the per-component breakdowns make the ablations
(e.g. SPM size vs BRAM) computable.
"""

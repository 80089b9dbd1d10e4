"""DRAM memory-system substrate (systems S3–S5).

Models the parts of a DDR4/DDR5 memory system that XFM's refresh-window
side channel depends on: device geometry (Table 1), command timing,
Skylake-style physical address interleaving (§5, Fig. 6a), the all-bank
auto-refresh schedule (§2.2), per-bank/subarray state, a cycle-approximate
memory controller in the spirit of gem5's DDR4 interface (§7), and an
access-energy model.

The package imports none of its modules, so loading one loads no
sibling: import names from the module that defines them.
"""

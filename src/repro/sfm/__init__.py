"""Software-defined far memory stack (system S6).

A functional zswap-like SFM: a cold-page control plane
(:mod:`~repro.sfm.controller`), a zsmalloc-style compressed pool with
compaction (:mod:`~repro.sfm.zpool`), and a baseline CPU backend implementing
``swap_out``/``swap_in`` over a vaddr-keyed index of swapped entries
(:mod:`~repro.sfm.backend`). The XFM backend in
:mod:`repro.core.backend` wraps the same pool but offloads (de)compression
to the near-memory accelerator.

The package imports none of its modules, so loading one loads no
sibling: import names from the module that defines them.
"""

"""Software-defined far memory stack (system S6).

A functional zswap-like SFM: a cold-page control plane
(:mod:`~repro.sfm.controller`), a zsmalloc-style compressed pool with
compaction (:mod:`~repro.sfm.zpool`), a red-black tree index of swapped
entries (:mod:`~repro.sfm.rbtree`), and a baseline CPU backend implementing
``swap_out``/``swap_in`` (:mod:`~repro.sfm.backend`). The XFM backend in
:mod:`repro.core.backend` wraps the same pool but offloads (de)compression
to the near-memory accelerator.
"""

from repro.sfm.backend import SfmBackend, SwapOutcome
from repro.sfm.page import PAGE_SIZE, Page

__all__ = [
    "PAGE_SIZE",
    "Page",
    "SfmBackend",
    "SwapOutcome",
]

"""XFM: Accelerated Software-Defined Far Memory — full-system reproduction.

A from-scratch Python implementation of the MICRO 2023 paper "XFM:
Accelerated Software-Defined Far Memory" (Patel, Quinn, Mamandipoor,
Alian): the refresh-cycle-multiplexed near-memory compression architecture,
the zswap/AIFM-style software-defined far memory stack it accelerates, and
every substrate its evaluation depends on (codecs, DRAM timing/refresh,
cache and bandwidth interference, cost/carbon modeling, hardware-overhead
models).

Quickstart::

    from repro import XfmBackend, Page, PAGE_SIZE

    backend = XfmBackend(capacity_bytes=64 * PAGE_SIZE)
    page = Page(vaddr=0, data=b"x" * PAGE_SIZE)
    outcome = backend.xfm_swap_out(page)       # offloaded to the NMA
    data = backend.xfm_swap_in(page)           # CPU_Fallback by default

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure and table.
"""

from repro.compression import (
    Codec,
    DeflateCodec,
    LzFastCodec,
    ZstdLikeCodec,
    available_codecs,
    get_codec,
)
from repro.core import (
    EmulatorConfig,
    EmulatorReport,
    MultiChannelLayout,
    NearMemoryAccelerator,
    NmaConfig,
    XfmBackend,
    XfmDriver,
    XfmEmulator,
)
from repro.costmodel import CostParams, MemoryKind, fig3_series
from repro.dfm import DfmBackend
from repro.dram import (
    AddressMapping,
    DramDeviceConfig,
    DramTimings,
    RefreshScheduler,
)
from repro.interference import CorunConfig, SfmMode, simulate_corun
from repro.sfm import PAGE_SIZE, Page, SfmBackend
from repro.tiering import FarMemoryTier, SwapOutcome, TierPipeline
from repro.workloads import CORPUS_NAMES, corpus_pages, generate_corpus

__version__ = "1.0.0"

__all__ = [
    "AddressMapping",
    "CORPUS_NAMES",
    "Codec",
    "CorunConfig",
    "CostParams",
    "DeflateCodec",
    "DfmBackend",
    "DramDeviceConfig",
    "DramTimings",
    "EmulatorConfig",
    "EmulatorReport",
    "FarMemoryTier",
    "LzFastCodec",
    "MemoryKind",
    "MultiChannelLayout",
    "NearMemoryAccelerator",
    "NmaConfig",
    "PAGE_SIZE",
    "Page",
    "RefreshScheduler",
    "SfmBackend",
    "SfmMode",
    "SwapOutcome",
    "TierPipeline",
    "XfmBackend",
    "XfmDriver",
    "XfmEmulator",
    "ZstdLikeCodec",
    "available_codecs",
    "corpus_pages",
    "fig3_series",
    "generate_corpus",
    "get_codec",
    "simulate_corun",
    "__version__",
]

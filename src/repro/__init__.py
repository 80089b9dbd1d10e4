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

import importlib

__version__ = "1.0.0"

#: The defining module of every public name. ``import repro`` loads none
#: of them: :func:`__getattr__` imports a name's module on first use, so a
#: program loads only the subsystems it touches.
_HOMES = {
    "repro.compression.base": ("Codec", "available_codecs", "get_codec"),
    "repro.compression.deflate": ("DeflateCodec",),
    "repro.compression.lzfast": ("LzFastCodec",),
    "repro.compression.zstd_like": ("ZstdLikeCodec",),
    "repro.core.backend": ("XfmBackend",),
    "repro.core.driver": ("XfmDriver",),
    "repro.core.emulator": ("EmulatorConfig", "EmulatorReport", "XfmEmulator"),
    "repro.core.multichannel": ("MultiChannelLayout",),
    "repro.core.nma": ("NearMemoryAccelerator", "NmaConfig"),
    "repro.costmodel.breakeven": ("fig3_series",),
    "repro.costmodel.params": ("CostParams", "MemoryKind"),
    "repro.dfm.backend": ("DfmBackend",),
    "repro.dram.address": ("AddressMapping",),
    "repro.dram.device": ("DramDeviceConfig",),
    "repro.dram.refresh": ("RefreshScheduler",),
    "repro.dram.timing": ("DramTimings",),
    "repro.interference.corun": ("CorunConfig", "SfmMode", "simulate_corun"),
    "repro.sfm.backend": ("SfmBackend",),
    "repro.sfm.page": ("PAGE_SIZE", "Page"),
    "repro.tiering.pipeline": ("TierPipeline",),
    "repro.tiering.protocol": ("FarMemoryTier", "SwapOutcome"),
    "repro.workloads.corpus": ("CORPUS_NAMES", "corpus_pages", "generate_corpus"),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

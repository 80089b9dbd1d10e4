"""XFM core: the paper's primary contribution (systems S7–S8).

The pieces mirror §4–§6 of the paper:

* :mod:`~repro.core.registers` — the MMIO register file the driver talks to
  (``SP_Capacity_Register``, the ``Compress_Request_Queue`` doorbells, SFM
  region configuration).
* :mod:`~repro.core.spm` — the ScratchPad Memory staging buffer with
  PENDING/COMPLETED entry tags.
* :mod:`~repro.core.nma` — the near-memory accelerator: request queue,
  (de)compression engines, SPM.
* :mod:`~repro.core.refresh_channel` — the refresh-window access scheduler
  (conditional vs random accesses, per-tRFC budgets, subarray conflicts)
  and ``XfmDevice``, one rank's offload pipeline served through it.
* :mod:`~repro.core.driver` — the host-side XFM_Driver (ioctl/MMIO shim).
* :mod:`~repro.core.backend` — the XFM_Backend (``xfm_swap_in/out`` with
  ``CPU_Fallback``), a drop-in for the baseline SFM backend, over one DIMM
  or, in multi-channel mode, several.
* :mod:`~repro.core.multichannel` — multi-channel mode data layout (Fig. 8/9).
* :mod:`~repro.core.emulator` — the event-driven emulator behind Fig. 12:
  the arrivals and refresh windows that drive one ``XfmDevice`` per run.

The package imports none of its modules, so loading one loads no
sibling: import names from the module that defines them.
"""

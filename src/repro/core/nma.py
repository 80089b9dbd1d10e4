"""Near-memory accelerator (NMA): request queue, engines, scratchpad.

The NMA sits in the DIMM's buffer device (RCD, §4.1) and contains a
Compress_Request_Queue fed by MMIO doorbells, compression and decompression
engines, and the ScratchPad Memory. Engine throughputs default to the
paper's memory-customized accelerator (14.8 / 17.2 GBps, §7); the FPGA
prototype's open-source Deflate core (1.4 / 1.7 GBps, §8) is available as
:data:`FPGA_PROTOTYPE`.

Two usage modes:

* **functional** — :meth:`NearMemoryAccelerator.compress_page` /
  :meth:`decompress_blob` run a real codec on real bytes (used by the
  XFM backend so swap contents stay verifiable); content that recurs is
  answered from a host-side memo of earlier outputs (see
  :meth:`~NearMemoryAccelerator.compress_page`);
* **staging** — :meth:`stage_input` reserves a request's input in the
  scratchpad as PENDING work and :meth:`release` frees it; the XFM
  backend completes its own entries (:mod:`repro.core.backend`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.compression.base import Codec
from repro.compression.deflate import DeflateCodec
from repro.core.registers import (
    CRQ_FREE,
    CRQ_HEAD,
    SP_CAPACITY,
    STATUS,
    RegisterFile,
)
from repro.core.spm import PENDING, ScratchpadMemory, SpmEntry
from repro.errors import ConfigError, DeviceFault, QueueFullError
from repro.resilience import faults as _faults
from repro.sfm.digest_cache import DigestPageCache
from repro.validation.hooks import checkpoint

FPGA_PROTOTYPE_COMPRESS_GBPS = 1.4
FPGA_PROTOTYPE_DECOMPRESS_GBPS = 1.7

#: Digests the functional compress memo remembers (see
#: :meth:`NearMemoryAccelerator.compress_page`).
COMPRESS_MEMO_ENTRIES = 128

#: Memo value of content seen once: no codec output is ever empty.
_SEEN_ONCE = b""


@dataclass(frozen=True)
class NmaConfig:
    """Static configuration of one DIMM's accelerator."""

    compress_gbps: float = 14.8
    decompress_gbps: float = 17.2
    spm_bytes: int = 2 * 1024 * 1024
    crq_depth: int = 64

    def __post_init__(self) -> None:
        if self.compress_gbps <= 0 or self.decompress_gbps <= 0:
            raise ConfigError("engine throughputs must be positive")
        if self.crq_depth < 1:
            raise ConfigError("CRQ depth must be >= 1")

    def compress_time_ns(self, nbytes: int) -> float:
        return nbytes / self.compress_gbps

    def decompress_time_ns(self, nbytes: int) -> float:
        return nbytes / self.decompress_gbps


#: The paper's FPGA proof-of-concept engine speeds (Table 2 discussion).
FPGA_PROTOTYPE = NmaConfig(
    compress_gbps=FPGA_PROTOTYPE_COMPRESS_GBPS,
    decompress_gbps=FPGA_PROTOTYPE_DECOMPRESS_GBPS,
)


@dataclass
class OffloadRequest:
    """One entry in the Compress_Request_Queue."""

    request_id: int
    is_compress: bool
    #: DRAM row holding the input (page to compress / blob to decompress).
    source_row: int
    #: DRAM row for the output; None = allocator-flexible placement.
    dest_row: Optional[int]
    input_bytes: int


class NearMemoryAccelerator:
    """One DIMM's near-memory (de)compression accelerator."""

    def __init__(
        self,
        config: NmaConfig = NmaConfig(),
        codec: Optional[Codec] = None,
        registers: Optional[RegisterFile] = None,
    ) -> None:
        self.config = config
        self.codec = codec if codec is not None else DeflateCodec()
        self.registers = registers if registers is not None else RegisterFile()
        self.spm = ScratchpadMemory(config.spm_bytes)
        self._queue: Deque[OffloadRequest] = deque()
        self._next_id = 1
        #: Page digest -> codec output, or :data:`_SEEN_ONCE`. Host-side
        #: only: the model charges every compress whether or not the
        #: memo answers it.
        self._compress_memo = DigestPageCache(COMPRESS_MEMO_ENTRIES)
        self._sync_registers()

    # -- Compress_Request_Queue -----------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def queue_free_slots(self) -> int:
        return self.config.crq_depth - len(self._queue)

    def submit(
        self,
        is_compress: bool,
        source_row: int,
        dest_row: Optional[int],
        input_bytes: int,
    ) -> OffloadRequest:
        """Push an offload into the CRQ (the MMIO-write path of
        ``xfm_compress``/``xfm_decompress``)."""
        if not self.queue_free_slots():
            raise QueueFullError(
                f"Compress_Request_Queue full ({self.config.crq_depth})"
            )
        request = OffloadRequest(
            request_id=self._next_id,
            is_compress=is_compress,
            source_row=source_row,
            dest_row=dest_row,
            input_bytes=input_bytes,
        )
        self._next_id += 1
        self._queue.append(request)
        self._sync_registers()
        return request

    def pop_request(self) -> Optional[OffloadRequest]:
        """Device side: consume the next queued offload (on a window read)."""
        if not self._queue:
            return None
        request = self._queue.popleft()
        self._sync_registers()
        return request

    # -- scratchpad staging ------------------------------------------------------

    def stage_input(self, request: OffloadRequest) -> SpmEntry:
        """Place a request's input into the SPM as PENDING work."""
        entry = self.spm.admit(
            request.input_bytes, writeback_row=request.dest_row
        )
        self._sync_registers()
        return entry

    def release(self, entry_id: int) -> None:
        """Free an SPM entry after writeback."""
        self.spm.release(entry_id)
        self._sync_registers()

    # -- functional mode ---------------------------------------------------------

    def compress_page(self, data: bytes, digest: bytes) -> bytes:
        """Run the real codec on real bytes (functional backend path).

        ``digest`` is the caller's :func:`~repro.resilience.integrity.
        page_digest` of the page ``data`` belongs to (``data`` itself,
        or this DIMM's stripe of it). Content seen before skips the
        software codec: the first sight of a digest records a marker,
        the second the codec's output, and later sights return that
        output. The codec is deterministic, so the bytes are the same
        either way; holding only recurring content keeps the memo from
        filling with pages that never come back.

        Raises :class:`~repro.errors.DeviceFault` when the injected
        ``nma.timeout`` site fires — the engine stalled past its
        deadline; the caller retries or falls back to the CPU.
        """
        if _faults.injection_enabled():
            event = _faults.fire(_faults.NMA_TIMEOUT)
            if event is not None:
                raise DeviceFault("NMA compress engine stalled (timeout)")
        memo = self._compress_memo
        seen = memo.get(digest)
        if seen:
            return seen
        blob = self.codec.compress(data)
        memo.put(digest, _SEEN_ONCE if seen is None else blob)
        return blob

    def decompress_blob(self, blob: bytes) -> bytes:
        if _faults.injection_enabled():
            event = _faults.fire(_faults.NMA_TIMEOUT)
            if event is not None:
                raise DeviceFault("NMA decompress engine stalled (timeout)")
        return self.codec.decompress(blob)

    # -- register mirror -----------------------------------------------------------

    def _sync_registers(self) -> None:
        self.registers.device_set(SP_CAPACITY, self.spm.free_bytes)
        self.registers.device_set(CRQ_FREE, self.queue_free_slots())
        self.registers.device_set(CRQ_HEAD, self._next_id - len(self._queue) - 1)
        status = 0x1  # idle: no SPM entry is PENDING
        for entry in self.spm.entries():
            if entry.tag is PENDING:
                status &= ~0x1
            else:
                status |= 0x2  # a COMPLETED entry awaits writeback
        self.registers.device_set(STATUS, status)
        checkpoint(self)

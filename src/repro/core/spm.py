"""ScratchPad Memory (SPM): the NMA's staging buffer.

The SPM holds accelerator inputs/outputs between refresh windows (§6,
Fig. 10): entries are tagged *PENDING* while the (de)compression operation
is underway and *COMPLETED* once they are ready to be written back to DRAM
in a subsequent tRFC. The SFM backend tracks an upper bound on occupancy
and only reads ``SP_Capacity_Register`` when it infers the SPM might be
full; when it truly is, the driver falls back to the CPU.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigError, SpmFullError
from repro.resilience import faults as _faults
from repro.validation.hooks import checkpoint


class SpmTag(enum.Enum):
    """Lifecycle tag of an SPM entry (Fig. 10)."""

    PENDING = "pending"
    COMPLETED = "completed"


# Module-level aliases: every offload tags its entries, and an
# enum-class attribute lookup costs ~10x a global read.
PENDING, COMPLETED = SpmTag.PENDING, SpmTag.COMPLETED


@dataclass
class SpmEntry:
    """One staged operation's buffer reservation."""

    entry_id: int
    #: Bytes reserved (input page or output page, whichever is larger —
    #: the buffer is reused in place).
    nbytes: int
    tag: SpmTag
    #: DRAM row the writeback must target; None = placement-flexible
    #: (compressed blobs go wherever the allocator picks, ideally a row
    #: about to be refreshed).
    writeback_row: Optional[int] = None
    #: Arbitrary payload (the functional backend stores real bytes here).
    payload: Optional[bytes] = None


class ScratchpadMemory:
    """Bounded byte-accounted staging buffer with tagged entries."""

    def __init__(self, capacity_bytes: int = 2 * 1024 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ConfigError("SPM capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: Dict[int, SpmEntry] = {}
        self._used = 0
        self._next_id = 1
        self.peak_used = 0
        self.admissions = 0
        self.rejections = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def can_admit(self, nbytes: int) -> bool:
        return nbytes <= self.free_bytes

    def admit(
        self,
        nbytes: int,
        writeback_row: Optional[int] = None,
        payload: Optional[bytes] = None,
    ) -> SpmEntry:
        """Reserve ``nbytes`` for a new PENDING operation.

        Raises :class:`SpmFullError` when capacity is exhausted — the
        signal that back-propagates to the Compress_Request_Queue and
        ultimately triggers ``CPU_Fallback`` (§6).
        """
        if nbytes <= 0:
            raise ConfigError("SPM reservation must be positive")
        if not self.can_admit(nbytes):
            self.rejections += 1
            raise SpmFullError(
                f"SPM full: need {nbytes}, free {self.free_bytes}"
            )
        entry = SpmEntry(
            entry_id=self._next_id,
            nbytes=nbytes,
            tag=PENDING,
            writeback_row=writeback_row,
            payload=payload,
        )
        self._next_id += 1
        self._entries[entry.entry_id] = entry
        self._used += nbytes
        self.peak_used = max(self.peak_used, self._used)
        self.admissions += 1
        checkpoint(self)
        return entry

    def complete(
        self,
        entry_id: int,
        output_bytes: Optional[int] = None,
        payload: Optional[bytes] = None,
    ) -> SpmEntry:
        """Mark an entry COMPLETED, optionally resizing to the output size
        (a compressed blob is smaller than the input page)."""
        entry = self._get(entry_id)
        if entry.tag is COMPLETED:
            raise ConfigError(f"entry {entry_id} already completed")
        if output_bytes is not None:
            if output_bytes <= 0:
                raise ConfigError("output size must be positive")
            self._used += output_bytes - entry.nbytes
            entry.nbytes = output_bytes
            self.peak_used = max(self.peak_used, self._used)
        if payload is not None:
            entry.payload = payload
        entry.tag = COMPLETED
        checkpoint(self)
        return entry

    def read_payload(self, entry_id: int) -> Optional[bytes]:
        """Read a staged payload back out of the scratchpad.

        This is the SPM's fault-injection surface: with injection active
        the ``spm.read_flip`` site may flip one bit of the returned copy
        (the stored entry itself is untouched — SPM read disturbs are
        transient, so a re-read can heal). Callers that stage real bytes
        must verify the readback against an integrity digest.
        """
        entry = self._get(entry_id)
        data = entry.payload
        if data is not None and _faults.injection_enabled():
            event = _faults.fire(_faults.SPM_READ_FLIP)
            if event is not None:
                data = _faults.corrupt_bytes(data, event.salt)
        return data

    def release(self, entry_id: int) -> SpmEntry:
        """Free an entry after its writeback (or after fallback cleanup)."""
        entry = self._get(entry_id)
        del self._entries[entry_id]
        self._used -= entry.nbytes
        checkpoint(self)
        return entry

    def _get(self, entry_id: int) -> SpmEntry:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise ConfigError(f"unknown SPM entry {entry_id}") from None

    def entries(self, tag: Optional[SpmTag] = None) -> List[SpmEntry]:
        """Entries, optionally filtered by tag, in admission order."""
        out = [
            entry
            for entry in self._entries.values()
            if tag is None or entry.tag is tag
        ]
        return out

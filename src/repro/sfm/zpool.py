"""zsmalloc-style compressed-memory pool (zpool).

zswap stores compressed pages inside encapsulating OS pages via zsmalloc,
packing as many objects per page as possible at the cost of intermittent
compaction that memcpy-shifts objects to squeeze out holes (§2.1, §6).
This pool reproduces that behaviour: first-fit allocation of variable-size
blobs into 4 KiB slabs, explicit :meth:`Zpool.compact` that both shifts
objects within slabs and migrates objects out of nearly-empty slabs, and
accounting of the memcpy traffic compaction generates (the cost
``xfm_compact()`` exposes to the SFM controller).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError, EntryNotFoundError, ZpoolFullError
from repro.resilience import faults as _faults
from repro.sfm.page import PAGE_SIZE
from repro.validation.hooks import checkpoint


@dataclass(frozen=True)
class ZpoolEntry:
    """Snapshot of one stored object's location."""

    handle: int
    slab: int
    offset: int
    length: int


class _Slab:
    """One encapsulating OS page holding packed compressed objects."""

    __slots__ = ("buffer", "entries", "largest_gap")

    def __init__(self, size: int) -> None:
        self.buffer = bytearray(size)
        #: handle -> (offset, length), kept sorted by offset on demand.
        #: Change it only through :meth:`insert` / :meth:`remove` /
        #: :meth:`shift_compact`, which keep ``largest_gap`` honest.
        self.entries: Dict[int, Tuple[int, int]] = {}
        #: Longest free interval, or ``None`` when ``entries`` changed
        #: since it was last measured. An index over :meth:`gaps`, not a
        #: policy: it only lets :meth:`first_fit` skip a slab that
        #: cannot hold the request without sorting its entries.
        self.largest_gap: Optional[int] = size

    def insert(self, handle: int, offset: int, length: int) -> None:
        self.entries[handle] = (offset, length)
        self.largest_gap = None

    def remove(self, handle: int) -> None:
        del self.entries[handle]
        self.largest_gap = None

    def used_bytes(self) -> int:
        return sum(length for _, length in self.entries.values())

    def gaps(self, size: int) -> List[Tuple[int, int]]:
        """Free (offset, length) intervals, in offset order."""
        spans = sorted(self.entries.values())
        out: List[Tuple[int, int]] = []
        cursor = 0
        for offset, length in spans:
            if offset > cursor:
                out.append((cursor, offset - cursor))
            cursor = offset + length
        if cursor < size:
            out.append((cursor, size - cursor))
        return out

    def first_fit(self, length: int, size: int) -> Optional[int]:
        """Offset of the first gap that fits ``length`` bytes, or None."""
        largest = self.largest_gap
        if largest is not None and largest < length:
            return None
        gaps = self.gaps(size)
        if largest is None:
            self.largest_gap = max((gap for _, gap in gaps), default=0)
        for offset, gap in gaps:
            if gap >= length:
                return offset
        return None

    def shift_compact(self) -> int:
        """Slide all objects to the front of the slab; returns bytes moved."""
        moved = 0
        cursor = 0
        for handle, (offset, length) in sorted(
            self.entries.items(), key=lambda item: item[1][0]
        ):
            if offset != cursor:
                self.buffer[cursor : cursor + length] = self.buffer[
                    offset : offset + length
                ]
                self.entries[handle] = (cursor, length)
                moved += length
            cursor += length
        self.largest_gap = len(self.buffer) - cursor
        return moved


class Zpool:
    """Bounded pool of slabs holding compressed page blobs."""

    def __init__(self, capacity_bytes: int, slab_size: int = PAGE_SIZE) -> None:
        if capacity_bytes < slab_size:
            raise ConfigError(
                f"capacity {capacity_bytes} below one slab ({slab_size})"
            )
        self.slab_size = slab_size
        self.max_slabs = capacity_bytes // slab_size
        self._slabs: List[Optional[_Slab]] = []
        self._locator: Dict[int, Tuple[int, int, int]] = {}
        self._next_handle = 1
        #: Live slabs and payload bytes, maintained where slabs and
        #: entries come and go (both are read on every swap).
        self._used_slabs = 0
        self._stored_bytes = 0
        self.compaction_memcpy_bytes = 0
        self.compactions = 0
        self.stores = 0
        self.loads = 0

    # -- capacity accounting ---------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.max_slabs * self.slab_size

    def used_slabs(self) -> int:
        return self._used_slabs

    def stored_bytes(self) -> int:
        """Total payload bytes currently stored."""
        return self._stored_bytes

    def occupancy(self) -> float:
        """Stored payload over the pool's slab footprint."""
        footprint = self.used_slabs() * self.slab_size
        return self.stored_bytes() / footprint if footprint else 0.0

    def fragmentation(self) -> float:
        """Fraction of slab footprint that is neither payload nor a usable
        whole free slab — the space compaction can win back."""
        footprint = self.used_slabs() * self.slab_size
        if not footprint:
            return 0.0
        return 1.0 - self.stored_bytes() / footprint

    def __len__(self) -> int:
        return len(self._locator)

    def __contains__(self, handle: int) -> bool:
        return handle in self._locator

    # -- allocation --------------------------------------------------------------

    def store(self, blob: bytes) -> int:
        """Store ``blob``; returns its handle.

        Raises :class:`ZpoolFullError` if the blob does not fit even after
        compaction (the caller's cue to stop selecting swap-out candidates).
        """
        if not blob:
            raise ConfigError("cannot store an empty blob")
        if len(blob) > self.slab_size:
            raise ConfigError(
                f"blob of {len(blob)} bytes exceeds slab size "
                f"{self.slab_size}; incompressible pages stay resident"
            )
        placement = self._place(len(blob))
        if placement is None:
            self.compact()
            placement = self._place(len(blob))
        if placement is None:
            raise ZpoolFullError(
                f"no room for {len(blob)} bytes "
                f"({self.used_slabs()}/{self.max_slabs} slabs)"
            )
        slab_index, offset = placement
        slab = self._slabs[slab_index]
        assert slab is not None
        slab.buffer[offset : offset + len(blob)] = blob
        handle = self._next_handle
        self._next_handle += 1
        slab.insert(handle, offset, len(blob))
        self._locator[handle] = (slab_index, offset, len(blob))
        self._stored_bytes += len(blob)
        self.stores += 1
        checkpoint(self)
        return handle

    def _place(self, length: int) -> Optional[Tuple[int, int]]:
        for index, slab in enumerate(self._slabs):
            if slab is None:
                continue
            offset = slab.first_fit(length, self.slab_size)
            if offset is not None:
                return index, offset
        # Reuse a released slot or grow the pool.
        for index, slab in enumerate(self._slabs):
            if slab is None:
                self._slabs[index] = _Slab(self.slab_size)
                self._used_slabs += 1
                return index, 0
        if len(self._slabs) < self.max_slabs:
            self._slabs.append(_Slab(self.slab_size))
            self._used_slabs += 1
            return len(self._slabs) - 1, 0
        return None

    def load(self, handle: int) -> bytes:
        """Read a stored blob without freeing it.

        Two injection sites live here: ``zpool.media_corruption`` flips
        a bit in the backing slab itself (persistent — every re-read
        sees it; the page is lost and must be poisoned), while
        ``zpool.read_corruption`` flips a bit only in the returned copy
        (transient — a re-read heals it).
        """
        slab_index, offset, length = self._lookup(handle)
        slab = self._slabs[slab_index]
        assert slab is not None
        self.loads += 1
        data = bytes(slab.buffer[offset : offset + length])
        if _faults.injection_enabled():
            event = _faults.fire(_faults.ZPOOL_MEDIA_CORRUPTION)
            if event is not None:
                data = _faults.corrupt_bytes(data, event.salt)
                slab.buffer[offset : offset + length] = data
            else:
                event = _faults.fire(_faults.ZPOOL_READ_CORRUPTION)
                if event is not None:
                    data = _faults.corrupt_bytes(data, event.salt)
        return data

    def free(self, handle: int) -> int:
        """Release a blob; returns its length. Empty slabs are returned to
        the pool (this is how SFM capacity flexes, §4.2)."""
        slab_index, offset, length = self._lookup(handle)
        slab = self._slabs[slab_index]
        assert slab is not None
        slab.remove(handle)
        del self._locator[handle]
        self._stored_bytes -= length
        if not slab.entries:
            self._release_slab(slab_index)
        checkpoint(self)
        return length

    def _release_slab(self, index: int) -> None:
        self._slabs[index] = None
        self._used_slabs -= 1

    def entry(self, handle: int) -> ZpoolEntry:
        slab_index, offset, length = self._lookup(handle)
        return ZpoolEntry(handle=handle, slab=slab_index, offset=offset, length=length)

    def _lookup(self, handle: int) -> Tuple[int, int, int]:
        try:
            return self._locator[handle]
        except KeyError:
            raise EntryNotFoundError(f"unknown handle {handle}") from None

    # -- compaction ---------------------------------------------------------------

    def compact(self) -> int:
        """Shift objects within slabs and migrate objects out of
        lightly-used slabs; returns total memcpy bytes."""
        self.compactions += 1
        moved = 0
        for index, slab in enumerate(self._slabs):
            if slab is None:
                continue
            moved += slab.shift_compact()
            for handle, (offset, length) in slab.entries.items():
                self._locator[handle] = (index, offset, length)

        # Migrate from emptiest slabs into fuller ones to release slabs.
        order = sorted(
            (
                index
                for index, slab in enumerate(self._slabs)
                if slab is not None
            ),
            key=lambda index: self._slabs[index].used_bytes(),  # type: ignore[union-attr]
        )
        for source_index in order:
            source = self._slabs[source_index]
            if source is None:
                continue
            for handle in list(source.entries):
                offset, length = source.entries[handle]
                target = self._find_migration_target(length, source_index)
                if target is None:
                    continue
                target_index, target_offset = target
                target_slab = self._slabs[target_index]
                assert target_slab is not None
                blob = source.buffer[offset : offset + length]
                target_slab.buffer[
                    target_offset : target_offset + length
                ] = blob
                target_slab.insert(handle, target_offset, length)
                source.remove(handle)
                self._locator[handle] = (target_index, target_offset, length)
                moved += length
            if not source.entries:
                self._release_slab(source_index)
        self.compaction_memcpy_bytes += moved
        checkpoint(self)
        return moved

    def _find_migration_target(
        self, length: int, exclude: int
    ) -> Optional[Tuple[int, int]]:
        """A slab (other than ``exclude``) with room, fullest-first so
        migration empties slabs instead of spreading objects."""
        candidates = sorted(
            (
                index
                for index, slab in enumerate(self._slabs)
                if slab is not None and index != exclude
            ),
            key=lambda index: -self._slabs[index].used_bytes(),  # type: ignore[union-attr]
        )
        for index in candidates:
            slab = self._slabs[index]
            assert slab is not None
            offset = slab.first_fit(length, self.slab_size)
            if offset is not None:
                return index, offset
        return None

"""zsmalloc-style compressed-memory pool (zpool).

zswap stores compressed pages inside encapsulating OS pages via zsmalloc,
packing as many objects per page as possible at the cost of intermittent
compaction that memcpy-shifts objects to squeeze out holes (§2.1, §6).
This pool reproduces that behaviour: first-fit allocation of variable-size
blobs into 4 KiB slabs, explicit :meth:`Zpool.compact` that both shifts
objects within slabs and migrates objects out of nearly-empty slabs, and
accounting of the memcpy traffic compaction generates (the cost
``xfm_compact()`` exposes to the SFM controller).

First fit is answered from an index rather than a scan: each slab keeps
its free intervals as an offset-ordered list, and the pool keeps a
max-tree of every slot's largest free interval plus a min-heap of
released slots. The index changes how fast the winner is found, never
which ``(slab, offset)`` wins.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError, EntryNotFoundError, ZpoolFullError
from repro.resilience import faults as _faults
from repro.sfm.page import PAGE_SIZE
from repro.validation.hooks import checkpoint


_gap_length = itemgetter(1)


@dataclass(frozen=True)
class ZpoolEntry:
    """Snapshot of one stored object's location."""

    handle: int
    slab: int
    offset: int
    length: int


class _Slab:
    """One encapsulating OS page holding packed compressed objects."""

    __slots__ = ("buffer", "entries", "gaps", "largest_gap")

    def __init__(self, size: int) -> None:
        self.buffer = bytearray(size)
        #: handle -> (offset, length). Change it only through
        #: :meth:`insert` / :meth:`remove` / :meth:`shift_compact`, which
        #: keep ``gaps`` and ``largest_gap`` in step with it.
        self.entries: Dict[int, Tuple[int, int]] = {}
        #: Free (offset, length) intervals in offset order, never two
        #: adjacent: the complement of ``entries`` within the slab.
        self.gaps: List[Tuple[int, int]] = [(0, size)]
        #: Longest interval in ``gaps`` (0 when the slab is full).
        self.largest_gap = size

    def insert(self, handle: int, offset: int, length: int) -> None:
        """Record an object at ``offset``, which must lie in one gap."""
        self.entries[handle] = (offset, length)
        gaps = self.gaps
        index = bisect_right(gaps, (offset, len(self.buffer))) - 1
        gap_offset, gap_length = gaps[index]
        end = offset + length
        tail = gap_offset + gap_length - end
        if offset == gap_offset:
            if tail:
                gaps[index] = (end, tail)
            else:
                del gaps[index]
        else:
            gaps[index] = (gap_offset, offset - gap_offset)
            if tail:
                gaps.insert(index + 1, (end, tail))
        if gap_length == self.largest_gap:
            self.largest_gap = max(map(_gap_length, gaps), default=0)

    def remove(self, handle: int) -> None:
        """Forget an object, merging its bytes into the gaps beside it."""
        start, length = self.entries.pop(handle)
        end = start + length
        gaps = self.gaps
        low = high = bisect_left(gaps, (start,))
        if high < len(gaps) and gaps[high][0] == end:
            end += gaps[high][1]
            high += 1
        if low and sum(gaps[low - 1]) == start:
            low -= 1
            start = gaps[low][0]
        gaps[low:high] = [(start, end - start)]
        if end - start > self.largest_gap:
            self.largest_gap = end - start

    def used_bytes(self) -> int:
        return sum(length for _, length in self.entries.values())

    def first_fit(self, length: int) -> Optional[int]:
        """Offset of the first gap that fits ``length`` bytes, or None."""
        if self.largest_gap < length:
            return None
        for offset, gap in self.gaps:
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
        size = len(self.buffer)
        self.gaps = [(cursor, size - cursor)] if cursor < size else []
        self.largest_gap = size - cursor
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
        self.capacity_bytes = self.max_slabs * slab_size
        self._slabs: List[Optional[_Slab]] = []
        #: Max-tree over slab slots: leaf ``leaves + i`` holds slot i's
        #: ``largest_gap`` (-1 for a released or unused slot), node ``n``
        #: the max of nodes ``2n`` and ``2n + 1``. ``leaves`` is
        #: ``len(_tree) // 2``, a power of two doubled as slots are added.
        self._tree: List[int] = [-1, -1]
        #: Min-heap of the released (``None``) slots.
        self._released: List[int] = []
        self._locator: Dict[int, Tuple[int, int, int]] = {}
        self._next_handle = 1
        #: Live slabs times ``slab_size``, and payload bytes, maintained
        #: where slabs and entries come and go (both are read on every
        #: swap, the footprint by every demotion-pressure test).
        self.footprint_bytes = 0
        self._stored_bytes = 0
        self.compaction_memcpy_bytes = 0
        self.compactions = 0
        self.stores = 0
        self.loads = 0

    # -- capacity accounting ---------------------------------------------------

    def used_slabs(self) -> int:
        return self.footprint_bytes // self.slab_size

    def stored_bytes(self) -> int:
        """Total payload bytes currently stored."""
        return self._stored_bytes

    def fragmentation(self) -> float:
        """Fraction of slab footprint that is neither payload nor a usable
        whole free slab — the space compaction can win back."""
        footprint = self.footprint_bytes
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
        self._set_leaf(slab_index, slab.largest_gap)
        self._locator[handle] = (slab_index, offset, len(blob))
        self._stored_bytes += len(blob)
        self.stores += 1
        checkpoint(self)
        return handle

    def _place(self, length: int) -> Optional[Tuple[int, int]]:
        """First fit: the lowest live slab with a gap of ``length`` bytes,
        then the lowest released slot, then a new slot at the end."""
        tree = self._tree
        if tree[1] >= length:
            leaves = len(tree) >> 1
            node = 1
            while node < leaves:
                node <<= 1
                if tree[node] < length:
                    node += 1
            index = node - leaves
            slab = self._slabs[index]
            assert slab is not None
            offset = slab.first_fit(length)
            assert offset is not None
            return index, offset
        if self._released:
            index = heapq.heappop(self._released)
            self._slabs[index] = _Slab(self.slab_size)
            self.footprint_bytes += self.slab_size
            return index, 0
        if len(self._slabs) < self.max_slabs:
            self._slabs.append(_Slab(self.slab_size))
            self.footprint_bytes += self.slab_size
            if len(self._slabs) > len(self._tree) >> 1:
                self._reindex()
            return len(self._slabs) - 1, 0
        return None

    def _set_leaf(self, index: int, largest_gap: int) -> None:
        tree = self._tree
        node = (len(tree) >> 1) + index
        tree[node] = value = largest_gap
        while node > 1:
            # ``value`` is ``tree[node]``: the parent is its larger
            # sibling, and an unchanged parent leaves every ancestor.
            sibling = tree[node ^ 1]
            if sibling > value:
                value = sibling
            node >>= 1
            if tree[node] == value:
                break
            tree[node] = value

    def _reindex(self) -> None:
        """Rebuild the max-tree from the slabs, sized to hold every slot."""
        leaves = 1
        while leaves < len(self._slabs):
            leaves <<= 1
        tree = [-1] * (2 * leaves)
        for index, slab in enumerate(self._slabs):
            if slab is not None:
                tree[leaves + index] = slab.largest_gap
        for node in range(leaves - 1, 0, -1):
            tree[node] = max(tree[2 * node], tree[2 * node + 1])
        self._tree = tree

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
        data = bytes(memoryview(slab.buffer)[offset : offset + length])
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
        if slab.entries:
            self._set_leaf(slab_index, slab.largest_gap)
        else:
            self._release_slab(slab_index)
        checkpoint(self)
        return length

    def _release_slab(self, index: int) -> None:
        self._slabs[index] = None
        self.footprint_bytes -= self.slab_size
        heapq.heappush(self._released, index)
        self._set_leaf(index, -1)

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
        self._reindex()
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
            offset = slab.first_fit(length)
            if offset is not None:
                return index, offset
        return None

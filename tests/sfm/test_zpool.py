"""zsmalloc-style pool unit and property tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, EntryNotFoundError, ZpoolFullError
from repro.sfm.page import PAGE_SIZE
from repro.sfm.zpool import Zpool
from repro.validation.hooks import validation


@pytest.fixture
def pool():
    return Zpool(capacity_bytes=8 * PAGE_SIZE)


class TestStoreLoad:
    def test_round_trip(self, pool):
        blob = b"compressed!" * 30
        handle = pool.store(blob)
        assert pool.load(handle) == blob
        assert handle in pool

    def test_packs_multiple_per_slab(self, pool):
        handles = [pool.store(b"x" * 1000) for _ in range(4)]
        assert pool.used_slabs() == 1
        for handle in handles:
            assert pool.load(handle) == b"x" * 1000

    def test_empty_blob_rejected(self, pool):
        with pytest.raises(ConfigError):
            pool.store(b"")

    def test_oversized_blob_rejected(self, pool):
        with pytest.raises(ConfigError):
            pool.store(bytes(PAGE_SIZE + 1))

    def test_capacity_enforced(self):
        pool = Zpool(capacity_bytes=2 * PAGE_SIZE)
        pool.store(bytes([1]) * PAGE_SIZE)
        pool.store(bytes([2]) * PAGE_SIZE)
        with pytest.raises(ZpoolFullError):
            pool.store(bytes([3]) * PAGE_SIZE)

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ConfigError):
            Zpool(capacity_bytes=100)


class TestFree:
    def test_free_returns_length(self, pool):
        handle = pool.store(b"y" * 123)
        assert pool.free(handle) == 123
        assert handle not in pool

    def test_unknown_handle_raises(self, pool):
        with pytest.raises(EntryNotFoundError):
            pool.free(999)
        with pytest.raises(EntryNotFoundError):
            pool.load(999)

    def test_empty_slab_released(self, pool):
        handle = pool.store(b"z" * 2000)
        assert pool.used_slabs() == 1
        pool.free(handle)
        assert pool.used_slabs() == 0

    def test_freed_space_reusable(self):
        pool = Zpool(capacity_bytes=PAGE_SIZE)
        h1 = pool.store(bytes([1]) * 2000)
        h2 = pool.store(bytes([2]) * 2000)
        pool.free(h1)
        h3 = pool.store(bytes([3]) * 2000)
        assert pool.load(h2) == bytes([2]) * 2000
        assert pool.load(h3) == bytes([3]) * 2000


class TestCompaction:
    def test_compaction_consolidates_holes(self):
        pool = Zpool(capacity_bytes=PAGE_SIZE)
        handles = [pool.store(bytes([i]) * 1000) for i in range(1, 5)]
        pool.free(handles[0])
        pool.free(handles[2])
        # 2096 free but fragmented: 1000 + 1000 + tail 96.
        with_compaction = pool.store(bytes([9]) * 1900)
        assert pool.load(with_compaction) == bytes([9]) * 1900
        assert pool.compactions >= 1

    def test_migration_releases_slabs(self):
        pool = Zpool(capacity_bytes=4 * PAGE_SIZE)
        handles = [pool.store(bytes([i % 251 + 1]) * 1500) for i in range(8)]
        # Free most objects, leaving one small object in each slab.
        for handle in handles[1::2]:
            pool.free(handle)
        slabs_before = pool.used_slabs()
        pool.compact()
        assert pool.used_slabs() <= slabs_before
        for index, handle in enumerate(handles[0::2]):
            assert pool.load(handle) == bytes([(index * 2) % 251 + 1]) * 1500

    def test_compaction_counts_memcpy_bytes(self):
        pool = Zpool(capacity_bytes=2 * PAGE_SIZE)
        h1 = pool.store(b"a" * 1000)
        h2 = pool.store(b"b" * 1000)
        pool.free(h1)
        moved = pool.compact()
        assert moved >= 1000
        assert pool.compaction_memcpy_bytes == moved
        assert pool.load(h2) == b"b" * 1000


class TestAccounting:
    def test_stored_bytes(self, pool):
        pool.store(b"a" * 100)
        pool.store(b"b" * 200)
        assert pool.stored_bytes() == 300

    def test_occupancy_and_fragmentation(self, pool):
        assert pool.occupancy() == 0.0
        pool.store(b"a" * 2048)
        assert pool.occupancy() == pytest.approx(0.5)
        assert pool.fragmentation() == pytest.approx(0.5)

    def test_entry_snapshot(self, pool):
        handle = pool.store(b"c" * 64)
        entry = pool.entry(handle)
        assert entry.length == 64
        assert entry.handle == handle


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(1, 3000)),
        min_size=1,
        max_size=60,
    )
)
def test_zpool_model_property(operations):
    """Store/free interleavings match a dict model; contents never corrupt;
    stored bytes never exceed the slab footprint."""
    pool = Zpool(capacity_bytes=16 * PAGE_SIZE)
    model = {}
    counter = 0
    live = []
    for is_store, size in operations:
        if is_store or not live:
            counter += 1
            blob = bytes([counter % 251 + 1]) * size
            try:
                handle = pool.store(blob)
            except ZpoolFullError:
                continue
            model[handle] = blob
            live.append(handle)
        else:
            handle = live.pop(size % len(live))
            pool.free(handle)
            del model[handle]
    for handle, blob in model.items():
        assert pool.load(handle) == blob
    assert pool.stored_bytes() == sum(len(b) for b in model.values())
    assert pool.stored_bytes() <= pool.used_slabs() * PAGE_SIZE


class _ScanSlab:
    """The slab as it was before ``largest_gap``: every ``first_fit``
    sorts the entries and walks the gaps."""

    def __init__(self, size):
        self.entries = {}

    def used_bytes(self):
        return sum(length for _, length in self.entries.values())

    def gaps(self, size):
        spans = sorted(self.entries.values())
        out = []
        cursor = 0
        for offset, length in spans:
            if offset > cursor:
                out.append((cursor, offset - cursor))
            cursor = offset + length
        if cursor < size:
            out.append((cursor, size - cursor))
        return out

    def first_fit(self, length, size):
        for offset, gap in self.gaps(size):
            if gap >= length:
                return offset
        return None

    def shift_compact(self):
        moved = 0
        cursor = 0
        for handle, (offset, length) in sorted(
            self.entries.items(), key=lambda item: item[1][0]
        ):
            if offset != cursor:
                self.entries[handle] = (cursor, length)
                moved += length
            cursor += length
        return moved


class _ScanEverythingPool:
    """Placement oracle: the parent commit's ``Zpool`` bookkeeping copied
    verbatim minus the payload bytes — ``_place`` and
    ``_find_migration_target`` run ``first_fit`` on every slab, and the
    two accounting methods are O(n) sums."""

    def __init__(self, capacity_bytes, slab_size=PAGE_SIZE):
        self.slab_size = slab_size
        self.max_slabs = capacity_bytes // slab_size
        self._slabs = []
        self._locator = {}
        self._next_handle = 1
        self.compaction_memcpy_bytes = 0

    def used_slabs(self):
        return sum(1 for slab in self._slabs if slab is not None)

    def stored_bytes(self):
        return sum(length for _, _, length in self._locator.values())

    def store(self, length):
        placement = self._place(length)
        if placement is None:
            self.compact()
            placement = self._place(length)
        if placement is None:
            raise ZpoolFullError("oracle pool full")
        slab_index, offset = placement
        handle = self._next_handle
        self._next_handle += 1
        self._slabs[slab_index].entries[handle] = (offset, length)
        self._locator[handle] = (slab_index, offset, length)
        return handle

    def _place(self, length):
        for index, slab in enumerate(self._slabs):
            if slab is None:
                continue
            offset = slab.first_fit(length, self.slab_size)
            if offset is not None:
                return index, offset
        for index, slab in enumerate(self._slabs):
            if slab is None:
                self._slabs[index] = _ScanSlab(self.slab_size)
                return index, 0
        if len(self._slabs) < self.max_slabs:
            self._slabs.append(_ScanSlab(self.slab_size))
            return len(self._slabs) - 1, 0
        return None

    def free(self, handle):
        slab_index, offset, length = self._locator[handle]
        slab = self._slabs[slab_index]
        del slab.entries[handle]
        del self._locator[handle]
        if not slab.entries:
            self._slabs[slab_index] = None
        return length

    def compact(self):
        moved = 0
        for index, slab in enumerate(self._slabs):
            if slab is None:
                continue
            moved += slab.shift_compact()
            for handle, (offset, length) in slab.entries.items():
                self._locator[handle] = (index, offset, length)
        order = sorted(
            (
                index
                for index, slab in enumerate(self._slabs)
                if slab is not None
            ),
            key=lambda index: self._slabs[index].used_bytes(),
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
                self._slabs[target_index].entries[handle] = (
                    target_offset, length
                )
                del source.entries[handle]
                self._locator[handle] = (target_index, target_offset, length)
                moved += length
            if not source.entries:
                self._slabs[source_index] = None
        self.compaction_memcpy_bytes += moved
        return moved

    def _find_migration_target(self, length, exclude):
        candidates = sorted(
            (
                index
                for index, slab in enumerate(self._slabs)
                if slab is not None and index != exclude
            ),
            key=lambda index: -self._slabs[index].used_bytes(),
        )
        for index in candidates:
            offset = self._slabs[index].first_fit(length, self.slab_size)
            if offset is not None:
                return index, offset
        return None


@pytest.mark.parametrize("seed", [3, 41])
def test_indexed_placement_matches_scan_everything_oracle(seed):
    """The largest-gap cache and the counters are an index, not a policy:
    over random store / free / compact churn (sizes that fragment slabs,
    a pool small enough to fill and auto-compact) every handle lands at
    the same (slab, offset), compaction moves the same bytes, and the
    counters agree, after every single operation."""
    rng = random.Random(seed)
    pool = Zpool(capacity_bytes=24 * PAGE_SIZE)
    oracle = _ScanEverythingPool(capacity_bytes=24 * PAGE_SIZE)
    live = []
    refused = 0
    with validation():
        for step in range(1200):
            roll = rng.random()
            if roll < 0.55 or not live:
                length = rng.choice(
                    (rng.randint(1, 64), rng.randint(65, 900),
                     rng.randint(901, 2500), rng.randint(2501, PAGE_SIZE))
                )
                try:
                    expected = oracle.store(length)
                except ZpoolFullError:
                    expected = None
                try:
                    handle = pool.store(bytes([step % 251 + 1]) * length)
                except ZpoolFullError:
                    handle = None
                    refused += 1
                assert handle == expected
                if handle is not None:
                    live.append(handle)
            elif roll < 0.95:
                handle = live.pop(rng.randrange(len(live)))
                assert pool.free(handle) == oracle.free(handle)
            else:
                assert pool.compact() == oracle.compact()
            assert pool._locator == oracle._locator
            assert pool.used_slabs() == oracle.used_slabs()
            assert pool.stored_bytes() == oracle.stored_bytes()
            assert (
                pool.compaction_memcpy_bytes == oracle.compaction_memcpy_bytes
            )
    assert refused > 0 and pool.compactions > 20

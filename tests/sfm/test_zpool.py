"""zsmalloc-style pool unit and property tests."""

import random

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, EntryNotFoundError, ZpoolFullError
from repro.sfm.page import PAGE_SIZE
from repro.sfm.zpool import Zpool, _Slab
from repro.sim.context import run_context
from repro.validation.generators import gen_zpool_ops
from repro.validation.invariants import check_zpool
from tests.hypothesis_settings import fuzz_settings


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
        assert pool.fragmentation() == 0.0
        pool.store(b"a" * 2048)
        assert pool.stored_bytes() == pool.used_slabs() * pool.slab_size // 2
        assert pool.fragmentation() == pytest.approx(0.5)

    def test_entry_snapshot(self, pool):
        handle = pool.store(b"c" * 64)
        entry = pool.entry(handle)
        assert entry.length == 64
        assert entry.handle == handle


def _slab(size, *spans):
    """A ``_Slab`` of ``size`` bytes holding ``spans``, handles 1, 2, ..."""
    slab = _Slab(size)
    for handle, (offset, length) in enumerate(spans, start=1):
        slab.insert(handle, offset, length)
    return slab


class TestSlabFreeList:
    """The free list and ``largest_gap`` after each kind of edit."""

    @pytest.mark.parametrize(
        "offset, length, gaps",
        [
            (0, 10, [(10, 90)]),  # a gap's head
            (40, 10, [(0, 40), (50, 50)]),  # its middle
            (90, 10, [(0, 90)]),  # its tail
            (0, 100, []),  # exact fit
        ],
        ids=["head", "middle", "tail", "exact"],
    )
    def test_insert_splits_the_gap_it_lands_in(self, offset, length, gaps):
        slab = _slab(100, (offset, length))
        assert slab.gaps == gaps
        assert slab.largest_gap == max((g for _, g in gaps), default=0)

    def test_insert_into_a_later_gap_keeps_the_others(self):
        slab = _slab(100, (10, 20), (60, 10))
        slab.insert(3, 30, 5)
        assert slab.gaps == [(0, 10), (35, 25), (70, 30)]
        assert slab.largest_gap == 30

    def test_exact_fit_leaves_a_full_slab(self):
        slab = _slab(100, (0, 30), (60, 40), (30, 30))
        assert slab.gaps == [] and slab.largest_gap == 0
        assert slab.first_fit(1) is None

    @pytest.mark.parametrize(
        "order, gaps",
        [
            ((1, 2), [(0, 20)]),  # 2 merges with the gap on its left
            ((2, 1), [(0, 20)]),  # 1 merges with the gap on its right
            ((1, 3, 2), [(0, 100)]),  # 2 merges with both
            ((2,), [(10, 10)]),  # 2 has entries on both sides
        ],
        ids=["left", "right", "both", "neither"],
    )
    def test_remove_merges_with_free_neighbours(self, order, gaps):
        slab = _slab(100, (0, 10), (10, 10), (20, 80))
        for handle in order:
            slab.remove(handle)
        assert slab.gaps == gaps
        assert slab.largest_gap == max(g for _, g in gaps)

    def test_first_fit_takes_the_lowest_gap_that_fits(self):
        slab = _slab(100, (10, 10), (30, 10))
        assert slab.gaps == [(0, 10), (20, 10), (40, 60)]
        assert slab.first_fit(10) == 0
        assert slab.first_fit(11) == 40
        assert slab.first_fit(61) is None

    @pytest.mark.parametrize(
        "spans, gaps",
        [
            (((10, 10), (50, 30)), [(40, 60)]),
            (((0, 60), (60, 40)), []),
        ],
        ids=["holes", "full"],
    )
    def test_shift_compact_resets_the_list(self, spans, gaps):
        slab = _slab(100, *spans)
        slab.shift_compact()
        assert slab.gaps == gaps
        assert slab.largest_gap == max((g for _, g in gaps), default=0)


def _check_against_dict(rng, n):
    """Run an ``n``-op :func:`gen_zpool_ops` script with every invariant
    checkpoint on: each load returns what the dict model holds, and at
    the end every live blob loads intact and stored bytes fit the slab
    footprint."""
    ops = gen_zpool_ops(rng, n=n)
    note(ops)
    pool = Zpool(capacity_bytes=8 * PAGE_SIZE)
    model = {}
    with run_context(validation=True):
        for op in ops:
            if op[0] == "store":
                _, length, fill = op
                try:
                    model[pool.store(bytes([fill]) * length)] = (
                        bytes([fill]) * length
                    )
                except ZpoolFullError:
                    pass
            elif op[0] == "free" and model:
                handle = sorted(model)[op[1] % len(model)]
                pool.free(handle)
                del model[handle]
            elif op[0] == "load" and model:
                handle = sorted(model)[op[1] % len(model)]
                assert pool.load(handle) == model[handle]
            elif op[0] == "compact":
                pool.compact()
    for handle, blob in model.items():
        assert pool.load(handle) == blob
    assert pool.stored_bytes() == sum(len(b) for b in model.values())
    assert pool.stored_bytes() <= pool.used_slabs() * PAGE_SIZE


_SCRIPTS = dict(rng=st.randoms(use_true_random=False), n=st.integers(1, 120))


@settings(max_examples=40)
@given(**_SCRIPTS)
def test_zpool_model_property(rng, n):
    """Store/free/load/compact interleavings match a dict model."""
    _check_against_dict(rng, n)


@pytest.mark.fuzz
@fuzz_settings(max_examples=40)
@given(**_SCRIPTS)
def test_fuzz_zpool_model_property(rng, n):
    _check_against_dict(rng, n)


class _ScanSlab:
    """A slab with no free list: every ``first_fit`` sorts the entries
    and walks the gaps."""

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
    """Placement oracle: ``Zpool``'s bookkeeping with no index and no
    payload bytes — ``_place`` runs ``first_fit`` on every slab in slot
    order and then scans for the first released slot,
    ``_find_migration_target`` runs it fullest slab first, and the two
    accounting methods are O(n) sums."""

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


def _spread_sizes(rng):
    """Sizes from every band, so slabs fragment and a small pool fills."""
    return rng.choice(
        (rng.randint(1, 64), rng.randint(65, 900),
         rng.randint(901, 2500), rng.randint(2501, PAGE_SIZE))
    )


def _fleet_sizes(rng):
    """Mostly 20-120 B blobs, as a fleet campaign's compressed pages are,
    so slabs hold dozens of entries; the page-sized rest spreads the
    pool over hundreds of slabs."""
    if rng.random() < 0.6:
        return rng.randint(20, 120)
    return rng.randint(900, PAGE_SIZE)


def _churn_against_oracle(
    rng, slabs, steps, store_share, compact_share, sizes, check_every
):
    """Random store / free / compact churn on a ``Zpool`` and the
    scan-everything oracle side by side. Every handle must land at the
    same (slab, offset), compaction must move the same bytes, and the
    counters must agree, after every single operation. ``check_zpool``
    runs every ``check_every`` operations, whatever ``--validation``
    says, so a large pool stays affordable."""
    pool = Zpool(capacity_bytes=slabs * PAGE_SIZE)
    oracle = _ScanEverythingPool(capacity_bytes=slabs * PAGE_SIZE)
    live = []
    refused = 0
    with run_context(validation=False):
        for step in range(steps):
            roll = rng.random()
            if roll < store_share or not live:
                length = sizes(rng)
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
            elif roll < 1.0 - compact_share:
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
            if step % check_every == 0:
                check_zpool(pool)
    check_zpool(pool)
    return pool, refused


def _most_entries(pool):
    return max(len(slab.entries) for slab in pool._slabs if slab is not None)


#: Pool shape -> (churn arguments, what the churn must have reached).
_ORACLE_POOLS = {
    # Small enough to fill, refuse and auto-compact.
    "24-slab": (
        dict(slabs=24, steps=1200, store_share=0.55, compact_share=0.05,
             sizes=_spread_sizes, check_every=1),
        lambda pool, refused: refused > 0 and pool.compactions > 20,
    ),
    # The benchmark's 4 MiB tier: over 512 slots make the tree ten levels
    # deep. Compaction is left to the small pool; no benchmark runs it.
    "1024-slab": (
        dict(slabs=1024, steps=3200, store_share=0.8, compact_share=0.0,
             sizes=_fleet_sizes, check_every=200),
        lambda pool, refused: len(pool._tree) == 2 * 1024
        and _most_entries(pool) >= 24,
    ),
}


@pytest.mark.parametrize(
    "shape, seed",
    [
        pytest.param("24-slab", 3, id="3"),
        pytest.param("24-slab", 41, id="41"),
        pytest.param("1024-slab", 3, id="1024-slab-3"),
        pytest.param("1024-slab", 41, id="1024-slab-41"),
    ],
)
def test_indexed_placement_matches_scan_everything_oracle(shape, seed):
    """The free lists, the max-gap tree and the released-slot heap are an
    index, not a policy: the pool places exactly as the scan did."""
    churn, reached = _ORACLE_POOLS[shape]
    pool, refused = _churn_against_oracle(random.Random(seed), **churn)
    assert reached(pool, refused)


#: Both pool shapes, any seed, up to 1200 operations (past that a
#: 1024-slab churn outgrows Hypothesis' choice budget).
_CHURNS = dict(
    shape=st.sampled_from(sorted(_ORACLE_POOLS)),
    rng=st.randoms(use_true_random=False),
    steps=st.integers(1, 1200),
)


@settings(max_examples=4)
@given(**_CHURNS)
def test_indexed_placement_matches_oracle_on_drawn_churn(shape, rng, steps):
    _churn_against_oracle(rng, **dict(_ORACLE_POOLS[shape][0], steps=steps))


@pytest.mark.fuzz
@fuzz_settings(max_examples=4)
@given(**_CHURNS)
def test_fuzz_indexed_placement_matches_scan_everything_oracle(
    shape, rng, steps
):
    _churn_against_oracle(rng, **dict(_ORACLE_POOLS[shape][0], steps=steps))
